/**
 * @file
 * Structured run-report manifest (train_cli --memprof-out=FILE).
 *
 * One training run, one JSON artifact: dataset + config echo,
 * per-epoch stats (K, loss, accuracy, peak bytes, compute/transfer
 * seconds, OOM), the per-micro-batch Table 3 category breakdown from
 * obs/memprof.h, per-component estimator residuals, the sampled
 * per-category live-bytes timeline, and summary figures (peak bytes,
 * edge cut, transfer bytes, OOM episodes). betty_report (tools/)
 * prints one report as a table and diffs two with thresholds, so
 * every run leaves a comparable artifact — the regression gate the
 * BENCH trajectory needs.
 */
#ifndef BETTY_OBS_RUN_REPORT_H
#define BETTY_OBS_RUN_REPORT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/memprof.h"

namespace betty::obs {

/** One epoch's row in the report. */
struct RunReportEpoch
{
    int64_t epoch = 0;
    int64_t k = 1;           ///< micro-batches per mini-batch
    double loss = 0.0;
    double accuracy = 0.0;     ///< train accuracy
    double testAccuracy = 0.0;
    int64_t peakBytes = 0;     ///< device peak during the epoch
    double computeSeconds = 0.0;
    double transferSeconds = 0.0;
    bool oom = false;
};

/**
 * The run's recovery activity (robustness/resilient_trainer.h).
 * Serialized as an OPTIONAL, additive "recovery" section — older
 * reports without it still parse, so the schema version stays put.
 */
struct RunReportRecovery
{
    int64_t replans = 0;
    int64_t oomRetries = 0;
    int64_t transferRetries = 0;
    int64_t batchesSkipped = 0;
    int64_t corruptRowsRepaired = 0;
    int64_t faultsInjected = 0;

    /** Transfer retry activity (the trainer's retry protocol): failed
     * transfer attempts absorbed, total simulated backoff charged,
     * and exhaustion events. Fault-free runs must report zero for
     * all three (gated by `betty_report check`), and the backoff can
     * never exceed the link's lifetime transfer seconds. */
    int64_t retryFailures = 0;
    int64_t retryBackoffUs = 0;
    int64_t retryExhausted = 0;

    /** True when a fault plan was installed for this run. When false,
     * betty_report's check mode requires every counter above to be
     * zero (fault-free runs must not silently recover). */
    bool faultsActive = false;
};

/**
 * The run's feature-cache activity (cache/feature_cache.h).
 * ALWAYS serialized (schema v3): an uncached run carries the section
 * with enabled=false and all counters zero, which betty_report's
 * check mode enforces — a cache must never move bytes it was not
 * configured to have.
 */
struct RunReportCache
{
    /** True when --cache-gib > 0 configured a cache for the run. */
    bool enabled = false;

    /** Replacement policy name ("lru", "lru-pinned"; "none" when
     * disabled). */
    std::string policy = "none";

    int64_t capacityBytes = 0; ///< configured reservation
    int64_t reservedBytes = 0; ///< reservation still held at exit
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t bytesSaved = 0;
    int64_t evictions = 0;
    int64_t releases = 0;      ///< shrink/release events (OOM replan)
    int64_t releasedBytes = 0;
};

/**
 * Collects one run's facts and serializes them as the run-report
 * JSON. The memory_profile and estimator_residuals sections are
 * written from the process-wide MemProfiler's records at toJson()
 * time.
 */
class RunReport
{
  public:
    /** argv[0] (or a logical binary name) for the meta block. */
    void setBinary(const std::string& name) { binary_ = name; }

    void
    setDataset(const std::string& name, int64_t nodes, int64_t edges,
               int64_t classes, int64_t feature_dim)
    {
        datasetName_ = name;
        datasetNodes_ = nodes;
        datasetEdges_ = edges;
        datasetClasses_ = classes;
        datasetFeatureDim_ = feature_dim;
    }

    /** Echo one config knob (flag name -> value as text). */
    void setConfig(const std::string& key, const std::string& value);

    void addEpoch(const RunReportEpoch& epoch);

    /** The device's sampled per-category timeline. */
    void setTimeline(std::vector<MemTimelineSample> timeline)
    {
        timeline_ = std::move(timeline);
    }

    /** @name Run-level summary figures (toJson() derives the rest
     * from the epoch rows) */
    /** @{ */
    void setEdgeCut(int64_t cut) { edgeCut_ = cut; }
    void setTransferBytes(int64_t bytes) { transferBytes_ = bytes; }
    void setOomEvents(int64_t events) { oomEvents_ = events; }
    /** @} */

    /** Attach the recovery section (emitted only when set). */
    void
    setRecovery(const RunReportRecovery& recovery)
    {
        recovery_ = recovery;
        hasRecovery_ = true;
    }

    /** Fill the (always-emitted) cache section. */
    void setCache(const RunReportCache& cache) { cache_ = cache; }

    /** The complete report as a JSON document. */
    std::string toJson() const;

  private:
    std::string binary_;
    std::string datasetName_;
    int64_t datasetNodes_ = 0;
    int64_t datasetEdges_ = 0;
    int64_t datasetClasses_ = 0;
    int64_t datasetFeatureDim_ = 0;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<RunReportEpoch> epochs_;
    std::vector<MemTimelineSample> timeline_;
    int64_t edgeCut_ = 0;
    int64_t transferBytes_ = 0;
    int64_t oomEvents_ = 0;
    RunReportRecovery recovery_;
    bool hasRecovery_ = false;
    RunReportCache cache_;
};

} // namespace betty::obs

#endif // BETTY_OBS_RUN_REPORT_H
