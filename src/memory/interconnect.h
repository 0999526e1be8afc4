/**
 * @file
 * Simulated device<->device interconnect for multi-accelerator
 * training (train/multi_device.h).
 *
 * Without physical accelerators the collective is priced analytically,
 * the same way transfer_model.h prices the host link. The model is a
 * bandwidth/latency pair with two presets matching the links the paper
 * environment would offer — an NVLink-class mesh and a PCIe-class
 * switch — and a ring all-reduce cost:
 *
 *   t = 2 (D-1) * (latency + (bytes / D) / bandwidth)
 *
 * A D-device ring all-reduce runs 2(D-1) steps (reduce-scatter +
 * all-gather), each moving one 1/D-sized shard per link; every step
 * pays the per-hop latency. The formula is deterministic and charged
 * once per optimizer step, so the simulated clock — like everything
 * else in the substrate — is a pure function of the configuration.
 */
#ifndef BETTY_MEMORY_INTERCONNECT_H
#define BETTY_MEMORY_INTERCONNECT_H

#include <cstdint>
#include <string>

namespace betty {

/** Bandwidth/latency description of the device<->device fabric. */
struct InterconnectConfig
{
    /** Preset name ("nvlink", "pcie", or "custom"). */
    std::string name = "nvlink";

    /** Per-link bandwidth, bytes/s. */
    double bandwidth = 150.0e9;

    /** Per-hop latency, seconds. */
    double latencySeconds = 5.0e-6;

    /** NVLink-class mesh: ~150 GB/s per link, 5 us hops. */
    static InterconnectConfig nvlink();

    /** PCIe-class switch: ~12 GB/s per link, 20 us hops. */
    static InterconnectConfig pcie();

    /**
     * Resolve a preset by name ("nvlink" / "pcie"); returns false on
     * unknown names and leaves @p out untouched.
     */
    static bool parse(const std::string& name, InterconnectConfig* out);
};

/** Accumulates simulated collective time over one fabric. */
class InterconnectModel
{
  public:
    explicit InterconnectModel(InterconnectConfig config = {})
        : config_(std::move(config))
    {
    }

    /**
     * Ring all-reduce cost of @p gradient_bytes across @p devices,
     * without charging it (what-if queries, bench tables). A ring
     * moves every shard through every link, so one lane degraded by
     * @p slowdown (>= 1; the engine passes its slowest live host
     * link's, TransferModel::degrade) slows the whole collective.
     */
    double allReduceSeconds(int64_t gradient_bytes, int32_t devices,
                            double slowdown = 1.0) const;

    /**
     * Charge one gradient all-reduce across @p devices at
     * @p slowdown; returns the seconds charged (0 for a single device
     * — nothing to reduce). Also counts the per-device bytes the ring
     * moved.
     */
    double chargeAllReduce(int64_t gradient_bytes, int32_t devices,
                           double slowdown);

    const InterconnectConfig& config() const { return config_; }

    /** Cumulative charged collective time, seconds. */
    double seconds() const { return seconds_; }

    /** Collectives charged since construction/reset. */
    int64_t collectives() const { return collectives_; }

    /** Per-device bytes moved by charged collectives. */
    int64_t bytesMoved() const { return bytes_moved_; }

    void
    reset()
    {
        seconds_ = 0.0;
        collectives_ = 0;
        bytes_moved_ = 0;
    }

  private:
    InterconnectConfig config_;
    double seconds_ = 0.0;
    int64_t collectives_ = 0;
    int64_t bytes_moved_ = 0;
};

} // namespace betty

#endif // BETTY_MEMORY_INTERCONNECT_H
