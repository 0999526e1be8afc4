#include "obs/memprof.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace betty::obs {

namespace {

/** Fixed-depth thread-local category stack. Deep enough for every
 * legitimate nesting (trainer > model > layer > aggregator); overflow
 * pushes are counted and ignored so pop stays balanced. */
constexpr size_t kMaxDepth = 32;

struct CategoryStack
{
    std::array<MemCategory, kMaxDepth> entries;
    size_t depth = 0;
    size_t overflow = 0;
};

thread_local CategoryStack tls_stack;

const char* const kCategoryNames[kMemCategoryCount] = {
    "parameters",    "input_features", "labels",
    "blocks",        "hidden",         "aggregator",
    "gradients",     "optimizer_state", "feature_cache",
    "uncategorized",
};

} // namespace

const char*
memCategoryName(MemCategory category)
{
    const auto index = size_t(category);
    BETTY_ASSERT(index < kMemCategoryCount, "bad MemCategory");
    return kCategoryNames[index];
}

MemCategory
currentMemCategory()
{
    const CategoryStack& stack = tls_stack;
    if (stack.depth == 0)
        return MemCategory::Uncategorized;
    return stack.entries[stack.depth - 1];
}

namespace detail {

void
pushMemCategory(MemCategory category)
{
    CategoryStack& stack = tls_stack;
    if (stack.depth >= kMaxDepth) {
        ++stack.overflow;
        BETTY_WARN_ONCE("MemCategoryScope nesting exceeds ", kMaxDepth,
                        "; allocations keep the enclosing category");
        return;
    }
    stack.entries[stack.depth++] = category;
}

void
popMemCategory()
{
    CategoryStack& stack = tls_stack;
    if (stack.overflow > 0) {
        --stack.overflow;
        return;
    }
    BETTY_ASSERT(stack.depth > 0, "unbalanced MemCategoryScope pop");
    --stack.depth;
}

} // namespace detail

void
MemProfiler::record(const MicroBatchMemRecord& record)
{
    if (!Metrics::enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
}

std::vector<MicroBatchMemRecord>
MemProfiler::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

void
MemProfiler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.clear();
}

MemProfiler&
memProfiler()
{
    static MemProfiler* instance = new MemProfiler; // leaked: outlives threads
    return *instance;
}

ResidualSummary
residualSummary(const std::vector<MicroBatchMemRecord>& records)
{
    ResidualSummary summary;
    summary.count = int64_t(records.size());
    if (records.empty())
        return summary;

    double abs_bytes = 0.0, abs_rel = 0.0, signed_rel = 0.0;
    int64_t rel_count = 0;
    for (const MicroBatchMemRecord& record : records) {
        abs_bytes += std::abs(double(record.residualBytes()));
        if (record.actualTotalPeak != 0) {
            const double rel = record.relativeError();
            abs_rel += std::abs(rel);
            signed_rel += rel;
            summary.maxAbsRelative =
                std::max(summary.maxAbsRelative, std::abs(rel));
            ++rel_count;
        }
    }
    summary.meanAbsBytes = abs_bytes / double(records.size());
    if (rel_count > 0) {
        summary.meanAbsRelative = abs_rel / double(rel_count);
        summary.bias = signed_rel / double(rel_count);
    }
    return summary;
}

void
writeMemoryProfile(JsonWriter& out,
                   const std::vector<MicroBatchMemRecord>& records)
{
    out.beginObject();
    out.key("micro_batches").beginArray();
    for (size_t i = 0; i < records.size(); ++i) {
        const MicroBatchMemRecord& record = records[i];
        out.beginObject();
        out.key("index").integer(int64_t(i));
        out.key("actual_peak_bytes").integer(record.actualTotalPeak);
        out.key("predicted_peak_bytes").integer(record.predictedTotalPeak);
        out.key("categories").beginObject();
        for (size_t c = 0; c < kMemCategoryCount; ++c) {
            out.key(kCategoryNames[c]).beginObject();
            out.key("predicted_bytes").integer(record.predicted[c]);
            out.key("actual_bytes").integer(record.actualPeak[c]);
            out.key("residual_bytes")
                .integer(record.predicted[c] - record.actualPeak[c]);
            out.endObject();
        }
        out.endObject();
        out.endObject();
    }
    out.endArray();

    // Worst (max) measured peak per category across micro-batches:
    // the number a budget has to accommodate.
    out.key("category_peaks").beginObject();
    for (size_t c = 0; c < kMemCategoryCount; ++c) {
        int64_t worst = 0;
        for (const MicroBatchMemRecord& record : records)
            worst = std::max(worst, record.actualPeak[c]);
        out.key(kCategoryNames[c]).integer(worst);
    }
    out.endObject();
    out.endObject();
}

void
writeEstimatorResiduals(JsonWriter& out,
                        const std::vector<MicroBatchMemRecord>& records)
{
    out.beginObject();
    out.key("entries").beginArray();
    for (size_t i = 0; i < records.size(); ++i) {
        const MicroBatchMemRecord& record = records[i];
        out.beginObject();
        out.key("index").integer(int64_t(i));
        out.key("predicted_bytes").integer(record.predictedTotalPeak);
        out.key("actual_bytes").integer(record.actualTotalPeak);
        out.key("residual_bytes").integer(record.residualBytes());
        out.key("relative_error").number(record.relativeError());
        out.endObject();
    }
    out.endArray();
    const ResidualSummary summary = residualSummary(records);
    out.key("summary").beginObject();
    out.key("count").integer(summary.count);
    out.key("mean_abs_bytes").number(summary.meanAbsBytes);
    out.key("mean_abs_relative").number(summary.meanAbsRelative);
    out.key("max_abs_relative").number(summary.maxAbsRelative);
    out.key("bias").number(summary.bias);
    out.endObject();
    out.endObject();
}

} // namespace betty::obs
