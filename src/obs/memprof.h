/**
 * @file
 * Allocation-provenance profiling: Table 3 category attribution.
 *
 * Betty's memory estimator (§4.4.3, Table 3) prices eight component
 * categories — parameters, input features, labels, block structure,
 * hidden outputs, aggregator intermediates, gradients, optimizer
 * state — but the device model only measures one untyped total. This
 * layer closes the gap: an RAII MemCategoryScope pushes a category on
 * a thread-local stack, every Tensor allocation snapshots the current
 * category, and DeviceMemoryModel keeps per-category live/peak
 * counters. The result is a *measured* Table 3 column next to the
 * analytical one, per micro-batch, so estimator drift is localized to
 * a component instead of reported only in aggregate. The same records
 * carry each micro-batch's predicted vs. measured total peak, which
 * the exports summarize as "estimator_residuals": if the planner's
 * model (paper §4.4.3) drifts from what the device allocates, that
 * drift is a queryable number instead of a silent mis-split.
 *
 * Cost model matches the rest of obs/: category tagging itself is one
 * thread-local read at allocation time (always on — it is how paired
 * frees find their category), while MemProfiler::record() and the
 * timeline are gated on Metrics::enabled().
 */
#ifndef BETTY_OBS_MEMPROF_H
#define BETTY_OBS_MEMPROF_H

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace betty::obs {

class JsonWriter;

/**
 * Table 3 memory component a tensor allocation belongs to. Values
 * index fixed-size per-category arrays; keep Uncategorized last.
 */
enum class MemCategory : uint8_t {
    Parameters = 0,    ///< (1) GNN model parameters
    InputFeatures = 1, ///< (2) gathered input features
    Labels = 2,        ///< (3) output labels
    Blocks = 3,        ///< (4) block structure (CSR rows/cols)
    Hidden = 4,        ///< (5) hidden layer outputs
    Aggregator = 5,    ///< (6) aggregator intermediates (Eq. 5)
    Gradients = 6,     ///< (7) gradients + backward buffers
    OptimizerState = 7,///< (8) optimizer state (Adam m/v)
    FeatureCache = 8,  ///< device-resident feature-cache reservation
    Uncategorized = 9, ///< allocations outside any scope
};

/** Number of categories, including Uncategorized. */
constexpr size_t kMemCategoryCount = 10;

/** Snake_case category name used in JSON exports and trace args. */
const char* memCategoryName(MemCategory category);

/** The calling thread's innermost active category
 * (Uncategorized outside any MemCategoryScope). */
MemCategory currentMemCategory();

namespace detail {
void pushMemCategory(MemCategory category);
void popMemCategory();
} // namespace detail

/** RAII tag: tensor allocations in this scope belong to @p category. */
class MemCategoryScope
{
  public:
    explicit MemCategoryScope(MemCategory category)
    {
        detail::pushMemCategory(category);
    }

    ~MemCategoryScope() { detail::popMemCategory(); }

    MemCategoryScope(const MemCategoryScope&) = delete;
    MemCategoryScope& operator=(const MemCategoryScope&) = delete;
};

/** One sampled point of the per-category live-bytes timeline. */
struct MemTimelineSample
{
    /** Trace::nowUs() timestamp of the sample. */
    int64_t tsUs = 0;

    /** Live bytes per category at the sample. */
    std::array<int64_t, kMemCategoryCount> live{};

    /** Total live bytes; always equals the sum of live[]. */
    int64_t totalLive = 0;
};

/** Per-category predicted vs. measured peaks for one micro-batch. */
struct MicroBatchMemRecord
{
    /** Measured per-category window peak bytes. */
    std::array<int64_t, kMemCategoryCount> actualPeak{};

    /** Estimator's per-component prediction (componentBytes()). */
    std::array<int64_t, kMemCategoryCount> predicted{};

    /** Measured total window peak. */
    int64_t actualTotalPeak = 0;

    /** Estimator's total peak prediction. */
    int64_t predictedTotalPeak = 0;

    /** Total predicted - actual (positive = overestimate). */
    int64_t
    residualBytes() const
    {
        return predictedTotalPeak - actualTotalPeak;
    }

    /** residualBytes() / actual total; 0 when the actual is 0. */
    double
    relativeError() const
    {
        if (actualTotalPeak == 0)
            return 0.0;
        return double(residualBytes()) / double(actualTotalPeak);
    }
};

/** Aggregate estimator error over micro-batch total peaks. */
struct ResidualSummary
{
    int64_t count = 0;

    /** Mean |predicted - actual| in bytes. */
    double meanAbsBytes = 0.0;

    /** Mean |relative error| (records with actual == 0 excluded). */
    double meanAbsRelative = 0.0;

    /** Largest |relative error|. */
    double maxAbsRelative = 0.0;

    /** Mean signed relative error: > 0 means the estimator
     * systematically overestimates. */
    double bias = 0.0;
};

/** Summarize the total-peak residuals of @p records. */
ResidualSummary
residualSummary(const std::vector<MicroBatchMemRecord>& records);

/**
 * Thread-safe accumulator of per-micro-batch category breakdowns,
 * embedded in the metrics snapshot and the run report as
 * "memory_profile" and "estimator_residuals".
 */
class MemProfiler
{
  public:
    /** Record one micro-batch (no-op while metrics are disabled). */
    void record(const MicroBatchMemRecord& record);

    /** Copy of every recorded micro-batch, in record order. */
    std::vector<MicroBatchMemRecord> records() const;

    void reset();

  private:
    mutable std::mutex mutex_;
    std::vector<MicroBatchMemRecord> records_;
};

/** The process-wide profiler the trainers record into. */
MemProfiler& memProfiler();

/**
 * Write @p records as the "memory_profile" object:
 * {"micro_batches": [{"index", "actual_peak_bytes",
 * "predicted_peak_bytes", "categories": {name: {"predicted_bytes",
 * "actual_bytes", "residual_bytes"}}}], "category_peaks": {...}}.
 */
void writeMemoryProfile(JsonWriter& out,
                        const std::vector<MicroBatchMemRecord>& records);

/**
 * Write the total peaks of @p records as the "estimator_residuals"
 * object: {"entries": [{"index", "predicted_bytes", "actual_bytes",
 * "residual_bytes", "relative_error"}], "summary": {"count",
 * "mean_abs_bytes", "mean_abs_relative", "max_abs_relative",
 * "bias"}}.
 */
void writeEstimatorResiduals(
    JsonWriter& out, const std::vector<MicroBatchMemRecord>& records);

} // namespace betty::obs

#endif // BETTY_OBS_MEMPROF_H
