#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/memprof.h"
#include "obs/run_meta.h"

namespace betty::obs {

std::atomic<bool> Metrics::enabled_{false};

namespace {

/**
 * Name -> metric maps. std::map keeps the JSON export sorted, which
 * makes snapshots diffable. Values are never erased, so references
 * handed out by the accessors stay valid for the process lifetime.
 */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry&
registry()
{
    static Registry* instance = new Registry; // leaked: outlives threads
    return *instance;
}

/** Default histogram layout: exponential seconds, 1us .. ~100s. */
std::vector<double>
defaultSecondsBounds()
{
    std::vector<double> bounds;
    for (double b = 1e-6; b < 200.0; b *= 4.0)
        bounds.push_back(b);
    return bounds;
}

} // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
}

void
Histogram::observeSlow(double value)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    counts_[size_t(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
    }
}

int64_t
Histogram::bucketCount(size_t index) const
{
    return counts_[index].load(std::memory_order_relaxed);
}

int64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::percentile(double q) const
{
    const int64_t total = count();
    if (total <= 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // The (fractional) rank the quantile lands on, 1-based so a
    // bucket holding observations [c_before+1, c_before+n] covers
    // ranks in that closed interval.
    const double rank = q * double(total - 1) + 1.0;
    int64_t cumulative = 0;
    for (size_t i = 0; i < bounds_.size(); ++i) {
        const int64_t in_bucket = bucketCount(i);
        if (in_bucket <= 0)
            continue;
        if (double(cumulative + in_bucket) >= rank) {
            // Linear interpolation across the bucket's value span.
            const double lower =
                i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
            const double upper = bounds_[i];
            const double into =
                (rank - double(cumulative)) / double(in_bucket);
            return lower + (upper - lower) * std::min(1.0, into);
        }
        cumulative += in_bucket;
    }
    // Rank lands in the overflow bucket: no upper edge to
    // interpolate toward, so report the last finite bound.
    return bounds_.empty() ? 0.0 : bounds_.back();
}

bool
Histogram::bucketsConsistent() const
{
    int64_t bucket_total = 0;
    for (size_t i = 0; i <= bounds_.size(); ++i)
        bucket_total += bucketCount(i);
    return bucket_total == count();
}

void
Histogram::reset()
{
    for (auto& bucket : counts_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

void
Metrics::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

Counter&
Metrics::counter(const std::string& name)
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto& slot = reg.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
Metrics::gauge(const std::string& name)
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto& slot = reg.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
Metrics::histogram(const std::string& name,
                   std::vector<double> bounds)
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto& slot = reg.histograms[name];
    if (!slot) {
        if (bounds.empty())
            bounds = defaultSecondsBounds();
        slot = std::make_unique<Histogram>(std::move(bounds));
    }
    return *slot;
}

void
Metrics::reset()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& [name, counter] : reg.counters)
        counter->reset();
    for (auto& [name, gauge] : reg.gauges)
        gauge->reset();
    for (auto& [name, histogram] : reg.histograms)
        histogram->reset();
    memProfiler().reset();
}

void
Metrics::writeSnapshot(JsonWriter& out)
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);

    out.beginObject();
    out.key("schema_version").integer(kObsSchemaVersion);
    out.key("meta");
    writeRunMeta(out);
    out.key("counters").beginObject();
    for (const auto& [name, counter] : reg.counters)
        out.key(name).integer(counter->value());
    out.endObject();

    out.key("gauges").beginObject();
    for (const auto& [name, gauge] : reg.gauges)
        out.key(name).integer(gauge->value());
    out.endObject();

    out.key("histograms").beginObject();
    for (const auto& [name, histogram] : reg.histograms) {
        out.key(name).beginObject();
        out.key("bounds").beginArray();
        for (const double bound : histogram->bounds())
            out.number(bound);
        out.endArray();
        out.key("counts").beginArray();
        for (size_t i = 0; i <= histogram->bounds().size(); ++i)
            out.integer(histogram->bucketCount(i));
        out.endArray();
        out.key("count").integer(histogram->count());
        out.key("sum").number(histogram->sum());
        out.key("p50").number(histogram->percentile(0.50));
        out.key("p95").number(histogram->percentile(0.95));
        out.key("p99").number(histogram->percentile(0.99));
        out.key("count_consistent").boolean(histogram->bucketsConsistent());
        out.endObject();
    }
    out.endObject();

    const std::vector<MicroBatchMemRecord> records =
        memProfiler().records();
    out.key("estimator_residuals");
    writeEstimatorResiduals(out, records);
    out.key("memory_profile");
    writeMemoryProfile(out, records);
    out.endObject();
}

std::string
Metrics::snapshotJson()
{
    JsonWriter out;
    writeSnapshot(out);
    return out.take();
}

} // namespace betty::obs
