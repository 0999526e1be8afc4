/**
 * @file
 * Shared plumbing for the experiment harness.
 *
 * Every binary in bench/ regenerates one table or figure of the paper
 * (see DESIGN.md's per-experiment index) and prints the same
 * rows/series the paper reports. Two environment variables scale the
 * whole harness:
 *
 *   BETTY_BENCH_SCALE  multiplies dataset sizes (default 1.0 = the
 *                      scaled-down defaults chosen for minutes-long
 *                      CPU runs; raise toward paper sizes if you have
 *                      the patience).
 *   BETTY_DEVICE_GIB   simulated accelerator capacity (default 0.25
 *                      GiB — plays the role of the paper's 24 GB
 *                      RTX6000 at our dataset scale).
 *   BETTY_THREADS      global ThreadPool lanes for parallel batch
 *                      preparation (default 1 = serial). Results are
 *                      bit-identical for any value; only wall-clock
 *                      changes. Benches also accept --threads=N.
 *   BETTY_CACHE_GIB    feature-cache reservation for the cache-aware
 *                      sweeps (default 0.05 GiB; docs/CACHING.md).
 *                      Benches also accept --cache-gib=X.
 *   BETTY_CACHE_POLICY feature-cache replacement policy ("lru",
 *                      "lru-pinned"; default lru). Also
 *                      --cache-policy=NAME.
 */
#ifndef BETTY_BENCH_BENCH_COMMON_H
#define BETTY_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/feature_cache.h"
#include "core/betty.h"
#include "data/catalog.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "train/trainer.h"
#include "util/env_config.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace betty::benchutil {

/** BETTY_BENCH_SCALE (default 1.0). Validation: util/env_config. */
inline double
envScale()
{
    return envcfg::benchScale();
}

/** BETTY_DEVICE_GIB as bytes (default 0.25 GiB). */
inline int64_t
deviceCapacityBytes()
{
    return envcfg::deviceCapacityBytes();
}

/** BETTY_CACHE_GIB as bytes (default 0.05 GiB): the feature-cache
 * reservation the cache-aware sweeps carve out of the device. */
inline int64_t
cacheCapacityBytes()
{
    return envcfg::cacheCapacityBytes();
}

/** BETTY_CACHE_POLICY (default pure LRU). */
inline CachePolicy
cachePolicy()
{
    const std::string name = envcfg::cachePolicyName();
    CachePolicy policy = CachePolicy::Lru;
    if (!parseCachePolicy(name, &policy))
        fatal("unknown BETTY_CACHE_POLICY '", name, "'");
    return policy;
}

/** Load a catalog dataset at bench scale (base further scalable). */
inline Dataset
loadBenchDataset(const std::string& name, double base_scale,
                 uint64_t seed = 42)
{
    return loadCatalogDataset(name, base_scale * envScale(), seed);
}

/** Build one of the four compared partitioners by name. */
inline std::unique_ptr<OutputPartitioner>
makePartitioner(const std::string& name, const CsrGraph& raw_graph)
{
    if (name == "range")
        return std::make_unique<RangePartitioner>();
    if (name == "random")
        return std::make_unique<RandomPartitioner>(17);
    if (name == "metis")
        return std::make_unique<MetisBaselinePartitioner>(raw_graph);
    if (name == "betty")
        return std::make_unique<BettyPartitioner>();
    fatal("unknown partitioner '", name, "'");
}

/** The sweep order used in every comparison figure. */
inline std::vector<std::string>
partitionerNames()
{
    return {"range", "random", "metis", "betty"};
}

/** Bytes -> GiB for table cells. */
inline double
toGiB(int64_t bytes)
{
    return double(bytes) / (1024.0 * 1024.0 * 1024.0);
}

/** Bytes -> MiB for table cells. */
inline double
toMiB(int64_t bytes)
{
    return double(bytes) / (1024.0 * 1024.0);
}

/**
 * Observability hookup for bench binaries: enables the collectors
 * when asked for via flags or environment, and writes the exports
 * when the session object is destroyed (end of main).
 *
 *   --trace-out=FILE / BETTY_TRACE_OUT=FILE    Chrome trace JSON
 *   --metrics-out=FILE / BETTY_METRICS_OUT=FILE  metrics snapshot
 *   --json=FILE / BETTY_BENCH_JSON=FILE   machine-readable results:
 *     key figures the bench records via result(), plus the full
 *     metrics snapshot (writeBenchJson below)
 *   --threads=N / BETTY_THREADS=N   global ThreadPool lanes
 *   --cache-gib=X / --cache-policy=NAME  feature-cache knobs
 *     (forwarded to the BETTY_CACHE_* variables read by
 *     cacheCapacityBytes()/cachePolicy())
 *
 * Recognized flags are removed from argc/argv, so a bench can reject
 * whatever is left. With neither flag nor env set, the collectors
 * stay disabled: one branch per site.
 */
inline bool
writeBenchJson(const std::string& path, const std::string& bench_name,
               const std::vector<std::pair<std::string, double>>&
                   results);

class ObsSession
{
  public:
    ObsSession(const std::string& bench_name = "", int* argc = nullptr,
               char** argv = nullptr)
        : bench_name_(bench_name)
    {
        if (argc && argv)
            stripFlags(argc, argv);
        if (trace_out_.empty())
            if (const char* env = std::getenv("BETTY_TRACE_OUT"))
                trace_out_ = env;
        if (metrics_out_.empty())
            if (const char* env = std::getenv("BETTY_METRICS_OUT"))
                metrics_out_ = env;
        if (json_out_.empty())
            if (const char* env = std::getenv("BETTY_BENCH_JSON"))
                json_out_ = env;
        if (!trace_out_.empty())
            obs::Trace::setEnabled(true);
        // --json embeds the metrics snapshot, so it implies
        // collection even without --metrics-out.
        if (!metrics_out_.empty() || !json_out_.empty())
            obs::Metrics::setEnabled(true);
        if (threads_ > 0)
            ThreadPool::setGlobalThreads(threads_);
    }

    /** Record one key figure for the --json export ("k16.total_s"). */
    void
    result(const std::string& name, double value)
    {
        results_.emplace_back(name, value);
    }

    ~ObsSession()
    {
        if (!trace_out_.empty() &&
            !obs::Trace::writeChromeTrace(trace_out_))
            warn("could not write trace '", trace_out_, "'");
        if (!metrics_out_.empty() &&
            !obs::Metrics::writeJson(metrics_out_))
            warn("could not write metrics '", metrics_out_, "'");
        if (!json_out_.empty() &&
            !writeBenchJson(json_out_, bench_name_, results_))
            warn("could not write bench json '", json_out_, "'");
    }

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

  private:
    void
    stripFlags(int* argc, char** argv)
    {
        int kept = 1;
        for (int i = 1; i < *argc; ++i) {
            const char* arg = argv[i];
            if (std::strncmp(arg, "--trace-out=", 12) == 0)
                trace_out_ = arg + 12;
            else if (std::strncmp(arg, "--metrics-out=", 14) == 0)
                metrics_out_ = arg + 14;
            else if (std::strncmp(arg, "--json=", 7) == 0)
                json_out_ = arg + 7;
            else if (std::strncmp(arg, "--threads=", 10) == 0) {
                int64_t parsed = 0;
                if (!envcfg::parseInt(arg + 10, &parsed) ||
                    parsed < 1)
                    fatal("malformed --threads='", arg + 10,
                          "': expected an integer >= 1");
                threads_ = int32_t(parsed);
            }
            else if (std::strncmp(arg, "--cache-gib=", 12) == 0)
                setenv("BETTY_CACHE_GIB", arg + 12, 1);
            else if (std::strncmp(arg, "--cache-policy=", 15) == 0)
                setenv("BETTY_CACHE_POLICY", arg + 15, 1);
            else
                argv[kept++] = argv[i];
        }
        *argc = kept;
    }

    std::string bench_name_;
    std::string trace_out_;
    std::string metrics_out_;
    std::string json_out_;
    std::vector<std::pair<std::string, double>> results_;
    int32_t threads_ = 0;
};

/**
 * Persist one bench result as JSON with the current metrics snapshot
 * embedded, so the --json export carries the per-phase breakdown
 * (counters/histograms/residuals), not just end-to-end seconds.
 * Returns success.
 */
inline bool
writeBenchJson(const std::string& path, const std::string& bench_name,
               const std::vector<std::pair<std::string, double>>&
                   results)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::string out = "{\n  \"bench\": \"" + bench_name + "\",\n";
    out += "  \"results\": {";
    for (size_t i = 0; i < results.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", results[i].second);
        out += i ? ",\n    \"" : "\n    \"";
        out += results[i].first + "\": " + buf;
    }
    out += results.empty() ? "},\n" : "\n  },\n";
    out += "  \"metrics\": " + obs::Metrics::snapshotJson();
    out += "}\n";
    const size_t written =
        std::fwrite(out.data(), 1, out.size(), file);
    std::fclose(file);
    return written == out.size();
}

} // namespace betty::benchutil

#endif // BETTY_BENCH_BENCH_COMMON_H
