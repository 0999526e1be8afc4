#include "obs/run_report.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/run_meta.h"

namespace betty::obs {

void
RunReport::setConfig(const std::string& key, const std::string& value)
{
    for (auto& [existing_key, existing_value] : config_) {
        if (existing_key == key) {
            existing_value = value;
            return;
        }
    }
    config_.emplace_back(key, value);
}

void
RunReport::addEpoch(const RunReportEpoch& epoch)
{
    epochs_.push_back(epoch);
}

std::string
RunReport::toJson() const
{
    JsonWriter out;
    out.beginObject();
    out.key("schema_version").integer(kObsSchemaVersion);
    out.key("meta");
    writeRunMeta(out);
    out.key("binary").string(binary_);

    out.key("dataset").beginObject();
    out.key("name").string(datasetName_);
    out.key("nodes").integer(datasetNodes_);
    out.key("edges").integer(datasetEdges_);
    out.key("classes").integer(datasetClasses_);
    out.key("feature_dim").integer(datasetFeatureDim_);
    out.endObject();

    out.key("config").beginObject();
    for (const auto& [key, value] : config_)
        out.key(key).string(value);
    out.endObject();

    // The summary's peak is the largest row's, its totals the sums in
    // epoch order, its final test accuracy the last row's.
    int64_t peak_bytes = 0;
    double compute_seconds = 0.0;
    double transfer_seconds = 0.0;
    out.key("epochs").beginArray();
    for (const RunReportEpoch& epoch : epochs_) {
        peak_bytes = std::max(peak_bytes, epoch.peakBytes);
        compute_seconds += epoch.computeSeconds;
        transfer_seconds += epoch.transferSeconds;
        out.beginObject();
        out.key("epoch").integer(epoch.epoch);
        out.key("k").integer(epoch.k);
        out.key("loss").number(epoch.loss);
        out.key("accuracy").number(epoch.accuracy);
        out.key("test_accuracy").number(epoch.testAccuracy);
        out.key("peak_bytes").integer(epoch.peakBytes);
        out.key("compute_seconds").number(epoch.computeSeconds);
        out.key("transfer_seconds").number(epoch.transferSeconds);
        out.key("oom").boolean(epoch.oom);
        out.endObject();
    }
    out.endArray();

    out.key("summary").beginObject();
    out.key("peak_bytes").integer(peak_bytes);
    out.key("total_compute_seconds").number(compute_seconds);
    out.key("total_transfer_seconds").number(transfer_seconds);
    out.key("final_test_accuracy")
        .number(epochs_.empty() ? 0.0 : epochs_.back().testAccuracy);
    out.key("edge_cut").integer(edgeCut_);
    out.key("transfer_bytes").integer(transferBytes_);
    out.key("oom_events").integer(oomEvents_);
    out.endObject();

    if (hasRecovery_) {
        out.key("recovery").beginObject();
        out.key("faults_active").boolean(recovery_.faultsActive);
        out.key("replans").integer(recovery_.replans);
        out.key("oom_retries").integer(recovery_.oomRetries);
        out.key("transfer_retries").integer(recovery_.transferRetries);
        out.key("batches_skipped").integer(recovery_.batchesSkipped);
        out.key("corrupt_rows_repaired")
            .integer(recovery_.corruptRowsRepaired);
        out.key("faults_injected").integer(recovery_.faultsInjected);
        out.key("retry_failures").integer(recovery_.retryFailures);
        out.key("retry_backoff_us").integer(recovery_.retryBackoffUs);
        out.key("retry_exhausted").integer(recovery_.retryExhausted);
        out.endObject();
    }

    out.key("cache").beginObject();
    out.key("enabled").boolean(cache_.enabled);
    out.key("policy").string(cache_.policy);
    out.key("capacity_bytes").integer(cache_.capacityBytes);
    out.key("reserved_bytes").integer(cache_.reservedBytes);
    out.key("hits").integer(cache_.hits);
    out.key("misses").integer(cache_.misses);
    out.key("bytes_saved").integer(cache_.bytesSaved);
    out.key("evictions").integer(cache_.evictions);
    out.key("releases").integer(cache_.releases);
    out.key("released_bytes").integer(cache_.releasedBytes);
    out.endObject();

    const std::vector<MicroBatchMemRecord> records =
        memProfiler().records();
    out.key("memory_profile");
    writeMemoryProfile(out, records);
    out.key("estimator_residuals");
    writeEstimatorResiduals(out, records);

    out.key("timeline").beginArray();
    for (const MemTimelineSample& sample : timeline_) {
        out.beginObject();
        out.key("ts_us").integer(sample.tsUs);
        out.key("total_live_bytes").integer(sample.totalLive);
        out.key("categories").beginObject();
        for (size_t c = 0; c < kMemCategoryCount; ++c)
            out.key(memCategoryName(MemCategory(c)))
                .integer(sample.live[c]);
        out.endObject();
        out.endObject();
    }
    out.endArray();
    out.endObject();
    return out.take();
}

} // namespace betty::obs
