#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "obs/memprof.h"
#include "obs/residual.h"
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

void
appendNumber(std::string& out, double value)
{
    char buf[64];
    // %.17g round-trips doubles; integers print without a point.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
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
    residuals().reset();
    memProfiler().reset();
}

std::string
Metrics::snapshotJson()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);

    std::string out = "{\n  \"schema_version\": " +
                      std::to_string(kObsSchemaVersion) + ",\n";
    out += "  \"meta\": " + runMetaJson() + ",\n";
    out += "  \"counters\": {";
    bool first = true;
    for (const auto& [name, counter] : reg.counters) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": ";
        out += std::to_string(counter->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : reg.gauges) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": ";
        out += std::to_string(gauge->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : reg.histograms) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": {\"bounds\": [";
        const auto& bounds = histogram->bounds();
        for (size_t i = 0; i < bounds.size(); ++i) {
            if (i)
                out += ", ";
            appendNumber(out, bounds[i]);
        }
        out += "], \"counts\": [";
        for (size_t i = 0; i <= bounds.size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(histogram->bucketCount(i));
        }
        out += "], \"count\": " + std::to_string(histogram->count());
        out += ", \"sum\": ";
        appendNumber(out, histogram->sum());
        out += ", \"p50\": ";
        appendNumber(out, histogram->percentile(0.50));
        out += ", \"p95\": ";
        appendNumber(out, histogram->percentile(0.95));
        out += ", \"p99\": ";
        appendNumber(out, histogram->percentile(0.99));
        out += ", \"count_consistent\": ";
        out += histogram->bucketsConsistent() ? "true" : "false";
        out += "}";
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"estimator_residuals\": " + residuals().toJson();
    out += ",\n  \"memory_profile\": " + memProfiler().toJson();
    out += "\n}\n";
    return out;
}

bool
Metrics::writeJson(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    const std::string json = snapshotJson();
    const size_t written =
        std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    return written == json.size();
}

} // namespace betty::obs
