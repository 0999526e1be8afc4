/**
 * @file
 * Simulated accelerator memory.
 *
 * Substitute for the paper's 24 GB RTX6000 (no GPU in this
 * environment): a byte-accurate arena that observes every Tensor
 * allocation made while it is installed, tracks live and peak usage,
 * and records out-of-memory events when live usage exceeds the
 * configured capacity. Betty's claims are about *which bytes are
 * resident when* — that is exactly what this model measures — so OOM
 * behaviour, peak-memory comparisons and the memory-aware planner all
 * run unchanged against it.
 *
 * OOM is recorded, not thrown: a bench can finish the step and report
 * "OOM" the way Figure 2 does, and the planner can probe budgets
 * without crashing.
 */
#ifndef BETTY_MEMORY_DEVICE_MEMORY_H
#define BETTY_MEMORY_DEVICE_MEMORY_H

#include <array>
#include <cstdint>
#include <vector>

#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace betty {

namespace detail {

/** Metric charges for alloc/free/OOM (call only when enabled). */
inline void
chargeDeviceAlloc(int64_t bytes, int64_t live)
{
    static obs::Counter& alloc_count =
        obs::Metrics::counter("device.alloc_count");
    static obs::Counter& alloc_bytes =
        obs::Metrics::counter("device.alloc_bytes");
    static obs::Gauge& peak =
        obs::Metrics::gauge("device.peak_bytes");
    alloc_count.increment();
    alloc_bytes.add(bytes);
    peak.max(live);
}

inline void
chargeDeviceFree(int64_t bytes)
{
    static obs::Counter& free_count =
        obs::Metrics::counter("device.free_count");
    static obs::Counter& free_bytes =
        obs::Metrics::counter("device.free_bytes");
    free_count.increment();
    free_bytes.add(bytes);
}

inline void
chargeDeviceOom()
{
    static obs::Counter& oom_events =
        obs::Metrics::counter("device.oom_events");
    oom_events.increment();
}

} // namespace detail

/** Byte-accurate device-memory tracker with a capacity limit. */
class DeviceMemoryModel : public AllocationObserver
{
  public:
    /** @param capacity_bytes 0 means "unlimited" (tracking only). */
    explicit DeviceMemoryModel(int64_t capacity_bytes = 0)
        : capacity_(capacity_bytes)
    {
    }

    using AllocationObserver::onAlloc;
    using AllocationObserver::onFree;

    void
    onAlloc(int64_t bytes, obs::MemCategory category) override
    {
        const size_t cat = size_t(category);
        live_ += bytes;
        cat_live_[cat] += bytes;
        if (live_ > peak_)
            peak_ = live_;
        if (live_ > window_peak_)
            window_peak_ = live_;
        if (cat_live_[cat] > cat_peak_[cat])
            cat_peak_[cat] = cat_live_[cat];
        if (cat_live_[cat] > cat_window_peak_[cat])
            cat_window_peak_[cat] = cat_live_[cat];
        if (capacity_ > 0 && live_ > capacity_) {
            // One device.oom_events count per EPISODE: a contiguous
            // stretch of over-capacity residency. The episode ends
            // when live drops back under capacity (see onFree), not
            // when oom_ is reset — oom_ stays latched for
            // oomOccurred() until resetPeak().
            if (!in_oom_episode_) {
                ++oom_episodes_;
                if (obs::Metrics::enabled())
                    detail::chargeDeviceOom();
                obs::FlightRecorder::record(obs::FrCategory::Oom,
                                            "oom/episode", live_,
                                            capacity_);
            }
            in_oom_episode_ = true;
            oom_ = true;
            if (live_ - capacity_ > worst_overshoot_)
                worst_overshoot_ = live_ - capacity_;
        }
        if (obs::Metrics::enabled())
            detail::chargeDeviceAlloc(bytes, live_);
        maybeSample();
    }

    void
    onFree(int64_t bytes, obs::MemCategory category) override
    {
        const size_t cat = size_t(category);
        // Clamp: a model installed mid-lifetime can observe frees for
        // storage it never saw allocated. Debiting those would drive
        // live_ below zero and poison every later peak comparison, so
        // cap the debit at what this model actually has live in the
        // category (cat_live_[cat] <= live_ always, since live_ is
        // the sum over categories).
        int64_t freed = bytes;
        if (freed > cat_live_[cat]) {
            freed = cat_live_[cat];
            BETTY_WARN_ONCE("DeviceMemoryModel: free of ", bytes,
                            " bytes (", obs::memCategoryName(category),
                            ") exceeds tracked live bytes; clamping — "
                            "was the observer installed mid-lifetime?");
        }
        cat_live_[cat] -= freed;
        live_ -= freed;
        if (in_oom_episode_ && live_ <= capacity_)
            in_oom_episode_ = false;
        if (obs::Metrics::enabled())
            detail::chargeDeviceFree(freed);
        maybeSample();
    }

    int64_t capacity() const { return capacity_; }
    int64_t liveBytes() const { return live_; }
    int64_t peakBytes() const { return peak_; }

    /**
     * Change the capacity mid-run (a co-tenant claiming or releasing
     * device memory — the runtime condition the resilient trainer
     * recovers from). Episode accounting follows the new limit: if
     * current live usage violates it, that is a NEW over-capacity
     * episode starting now; if a shrink-induced episode ends because
     * capacity grew back, the episode closes.
     */
    void
    setCapacity(int64_t capacity_bytes)
    {
        capacity_ = capacity_bytes;
        const bool over = capacity_ > 0 && live_ > capacity_;
        if (over && !in_oom_episode_) {
            in_oom_episode_ = true;
            oom_ = true;
            if (live_ - capacity_ > worst_overshoot_)
                worst_overshoot_ = live_ - capacity_;
            ++oom_episodes_;
            if (obs::Metrics::enabled())
                detail::chargeDeviceOom();
            obs::FlightRecorder::record(obs::FrCategory::Oom,
                                        "oom/episode", live_,
                                        capacity_);
        } else if (!over) {
            in_oom_episode_ = false;
        }
    }

    /**
     * Over-capacity episodes since construction: one count per
     * contiguous stretch of live > capacity. Unlike the
     * device.oom_events metric this counts even when metrics are
     * disabled, so EpochStats::oomEvents is always meaningful.
     */
    int64_t oomEpisodeCount() const { return oom_episodes_; }

    /** @name Per-category (Table 3 provenance) accessors */
    /** @{ */
    int64_t liveBytes(obs::MemCategory category) const
    {
        return cat_live_[size_t(category)];
    }

    int64_t peakBytes(obs::MemCategory category) const
    {
        return cat_peak_[size_t(category)];
    }

    int64_t windowPeakBytes(obs::MemCategory category) const
    {
        return cat_window_peak_[size_t(category)];
    }
    /** @} */

    /** True if live usage ever exceeded capacity since the last reset. */
    bool oomOccurred() const { return oom_; }

    /** Largest number of bytes by which capacity was exceeded. */
    int64_t worstOvershoot() const { return worst_overshoot_; }

    /** Clear peak/OOM records; live usage is whatever is still resident. */
    void
    resetPeak()
    {
        peak_ = live_;
        window_peak_ = live_;
        cat_peak_ = cat_live_;
        cat_window_peak_ = cat_live_;
        oom_ = capacity_ > 0 && live_ > capacity_;
        worst_overshoot_ = oom_ ? live_ - capacity_ : 0;
        // If still over capacity this is the SAME ongoing episode, so
        // in_oom_episode_ (already true) must survive the reset and
        // suppress a duplicate device.oom_events count.
    }

    /**
     * Start a measurement window at the current live level. The
     * window peak answers "what did THIS micro-batch reach" while
     * peakBytes() keeps the epoch-wide maximum — the trainer uses it
     * to measure per-micro-batch actual peaks for estimator-residual
     * telemetry (obs/memprof.h) without disturbing epoch stats.
     */
    void
    resetWindow()
    {
        window_peak_ = live_;
        cat_window_peak_ = cat_live_;
    }

    /** Largest live bytes since the last resetWindow()/resetPeak(). */
    int64_t windowPeakBytes() const { return window_peak_; }

    /**
     * The sampled per-category live-bytes timeline collected while
     * tracing or metrics were enabled. Event-stride sampled: when the
     * buffer fills, every other retained sample is dropped and the
     * stride doubles, so long runs keep bounded, evenly-thinned
     * coverage.
     */
    const std::vector<obs::MemTimelineSample>& timeline() const
    {
        return timeline_;
    }

    /**
     * RAII installer: tensor allocations inside the scope are routed to
     * @p model; the previous observer is restored on destruction.
     */
    class Scope
    {
      public:
        explicit Scope(DeviceMemoryModel& model)
            : previous_(setAllocationObserver(&model))
        {
        }

        ~Scope() { setAllocationObserver(previous_); }

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        AllocationObserver* previous_;
    };

  private:
    /**
     * Record a timeline sample every sample_stride_-th allocation
     * event while collection is on. Also mirrors the sample into the
     * trace as a "device/memory" counter event, which Perfetto draws
     * as stacked per-category bands.
     */
    void
    maybeSample()
    {
        const bool tracing = obs::Trace::enabled();
        if (!tracing && !obs::Metrics::enabled())
            return;
        if (++events_since_sample_ < sample_stride_)
            return;
        events_since_sample_ = 0;

        if (timeline_.size() >= kMaxTimelineSamples) {
            // Thin: keep every other sample, double the stride.
            for (size_t i = 1; 2 * i < timeline_.size(); ++i)
                timeline_[i] = timeline_[2 * i];
            timeline_.resize((timeline_.size() + 1) / 2);
            sample_stride_ *= 2;
        }

        obs::MemTimelineSample sample;
        sample.tsUs = obs::Trace::nowUs();
        sample.live = cat_live_;
        sample.totalLive = live_;
        timeline_.push_back(sample);

        if (tracing) {
            std::vector<std::pair<const char*, int64_t>> values;
            values.reserve(obs::kMemCategoryCount);
            for (size_t c = 0; c < obs::kMemCategoryCount; ++c)
                values.emplace_back(
                    obs::memCategoryName(obs::MemCategory(c)),
                    cat_live_[c]);
            obs::Trace::recordCounter("device/memory",
                                      std::move(values));
        }
    }

    static constexpr size_t kMaxTimelineSamples = 4096;

    int64_t capacity_;
    int64_t live_ = 0;
    int64_t peak_ = 0;
    int64_t window_peak_ = 0;
    int64_t worst_overshoot_ = 0;
    bool oom_ = false;
    /** Inside a contiguous over-capacity stretch right now. */
    bool in_oom_episode_ = false;
    /** Lifetime count of over-capacity episodes (metrics-independent). */
    int64_t oom_episodes_ = 0;
    std::array<int64_t, obs::kMemCategoryCount> cat_live_{};
    std::array<int64_t, obs::kMemCategoryCount> cat_peak_{};
    std::array<int64_t, obs::kMemCategoryCount> cat_window_peak_{};
    std::vector<obs::MemTimelineSample> timeline_;
    int64_t events_since_sample_ = 0;
    int64_t sample_stride_ = 1;
};

/** Convenience: gibibytes to bytes for capacity configuration. */
constexpr int64_t
gib(double g)
{
    return int64_t(g * 1024.0 * 1024.0 * 1024.0);
}

} // namespace betty

#endif // BETTY_MEMORY_DEVICE_MEMORY_H
