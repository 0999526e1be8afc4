/**
 * @file
 * Named counters, gauges, and fixed-bucket histograms with JSON
 * snapshot export.
 *
 * The metric catalog (docs/OBSERVABILITY.md) covers the quantities
 * Betty's evaluation argues about: partition quality
 * (partition.edge_cut), sampling volume (sampler.fanout_nodes),
 * residency (device.peak_bytes), data movement (transfer.bytes), and
 * per-micro-batch latency (trainer.microbatch_seconds).
 *
 * Cost model matches obs/trace.h: collection is off by default and a
 * disabled update costs one relaxed atomic load and branch — no
 * allocation, no lock, no registry lookup (instrumented sites cache
 * the handle in a function-local static). Enabled updates are single
 * relaxed atomic RMWs; registration (first lookup of a name) takes the
 * registry mutex and is expected to happen once per site.
 */
#ifndef BETTY_OBS_METRICS_H
#define BETTY_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace betty::obs {

class JsonWriter;
class Metrics;

/** Monotonically increasing sum (e.g. bytes transferred). */
class Counter
{
  public:
    /** Add @p delta when collection is enabled. */
    inline void add(int64_t delta);

    /** add(1). */
    void increment() { add(1); }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Last-write-wins (or running-max) point-in-time value. */
class Gauge
{
  public:
    /** Overwrite the value when collection is enabled. */
    inline void set(int64_t value);

    /** Raise the value to at least @p value when enabled. */
    inline void max(int64_t value);

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * value <= bounds[i] (first matching bucket); one extra overflow
 * bucket counts everything above the last bound.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    /** Record one observation when collection is enabled. */
    inline void observe(double value);

    const std::vector<double>& bounds() const { return bounds_; }

    /** Count in bucket @p index (bounds().size() is the overflow). */
    int64_t bucketCount(size_t index) const;

    /** Total observations. */
    int64_t count() const;

    /** Sum of observed values. */
    double sum() const;

    /**
     * The @p q quantile (q in [0, 1]) estimated from the bucket
     * counts by linear interpolation within the target bucket. The
     * first bucket interpolates from min(0, bounds[0]); ranks landing
     * in the overflow bucket return the last bound (no upper edge to
     * interpolate toward). 0 with no observations.
     */
    double percentile(double q) const;

    /**
     * True when the per-bucket counts sum to count() — the export
     * consistency check. Only meaningful while no thread is
     * observing (mid-update the two are transiently decoupled).
     */
    bool bucketsConsistent() const;

    void reset();

  private:
    void observeSlow(double value);

    std::vector<double> bounds_;
    std::vector<std::atomic<int64_t>> counts_; // bounds.size() + 1
    std::atomic<int64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Process-wide metric registry (all methods are static). */
class Metrics
{
  public:
    /** True if metric updates are being recorded. Hot-path gate. */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void setEnabled(bool on);

    /**
     * The counter registered under @p name (creating it on first
     * use). The reference stays valid for the process lifetime; cache
     * it in a function-local static at the instrumentation site.
     */
    static Counter& counter(const std::string& name);

    /** The gauge registered under @p name. */
    static Gauge& gauge(const std::string& name);

    /**
     * The histogram registered under @p name. @p bounds applies only
     * on first registration (later callers inherit the original
     * bucket layout); empty means a default exponential seconds
     * layout (1us .. ~100s).
     */
    static Histogram& histogram(const std::string& name,
                                std::vector<double> bounds = {});

    /** Reset every registered metric's value (registrations stay). */
    static void reset();

    /**
     * Write the registry as one JSON object: {"schema_version": N,
     * "meta": {...}, "counters": {...}, "gauges": {...},
     * "histograms": {...}, "estimator_residuals": {...},
     * "memory_profile": {...}}.
     */
    static void writeSnapshot(JsonWriter& out);

    /** writeSnapshot() as a standalone document. */
    static std::string snapshotJson();

  private:
    static std::atomic<bool> enabled_;
};

inline void
Counter::add(int64_t delta)
{
    if (Metrics::enabled())
        value_.fetch_add(delta, std::memory_order_relaxed);
}

inline void
Gauge::set(int64_t value)
{
    if (Metrics::enabled())
        value_.store(value, std::memory_order_relaxed);
}

inline void
Gauge::max(int64_t value)
{
    if (!Metrics::enabled())
        return;
    int64_t current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

inline void
Histogram::observe(double value)
{
    if (Metrics::enabled())
        observeSlow(value);
}

} // namespace betty::obs

#endif // BETTY_OBS_METRICS_H
