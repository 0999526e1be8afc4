/**
 * @file
 * Multi-accelerator split-parallel micro-batch training — the paper's
 * stated future work ("we plan to extend Betty to multi-GPU training
 * to speed up the training process", §7), built on the same
 * simulated-device substrate as the single-device trainer.
 *
 * Model: D simulated devices, each with its own DeviceMemoryModel,
 * host link (TransferModel), and optional FeatureCache. The K REG
 * micro-batches of a batch are sharded across devices by a vertex-cut
 * assignment (shardVertexCut): greedy balanced placement that
 * co-locates micro-batches sharing input (halo) vertices, minimizing
 * the cross-device duplication factor the `multi.*` metrics report.
 * The same placement routine re-shards after a device drop and off a
 * straggler.
 * Every device computes gradients for its share against the same
 * parameter snapshot; gradients are then combined with a ring
 * all-reduce priced by memory/interconnect.h before one optimizer
 * step.
 *
 * Equivalence guarantee (tests/test_multi_device_equivalence.cc): the
 * engine owns no training loop. It hands its devices and the shard
 * assignment to Trainer::accumulateMicroBatches — the same loop
 * Trainer::trainMicroBatches runs over its one device — which
 * computes every micro-batch on the calling thread, in canonical
 * order. Device assignment decides only where the simulated bytes
 * and seconds are charged — never the float operation order — so
 * losses and parameters are bit-identical to single-device gradient
 * accumulation for any device count, thread count (pipelined or not),
 * and cache size. The engine's per-micro-batch policy (fault clock,
 * device faults, straggler supervisor) runs in the loop's
 * MicroBatchArbiter hooks.
 *
 * Fault semantics (docs/MULTI_DEVICE.md): a `device-drop@epochN[.mbM]`
 * fault (util/fault.h) kills one device; its remaining micro-batches
 * are re-sharded over the survivors and the epoch continues. Because
 * assignment never touches numerics, the run finishes with parameters
 * bit-identical to running on the surviving devices from the start —
 * the multi-device mirror of PR 4's capacity-drop invariant.
 *
 * Gray failures: a `device-slow=FACTOR@epochN[:device=D][:duration=E]`
 * fault degrades one device's host link (TransferModel::degrade, which
 * also owns the healing schedule) and with it the shared ring, which
 * is priced at its slowest live link when charged (a ring is bounded
 * by its slowest lane). The engine does NOT use its ground-truth
 * knowledge of the victim to react; instead a straggler supervisor
 * keeps a per-device EWMA of *simulated* per-micro-batch link seconds
 * (deterministic — wall-clock compute is excluded) and,
 * when one device's EWMA exceeds stragglerFactor x the fastest
 * healthy device's, re-shards the straggler's PENDING micro-batches
 * toward healthy devices. Graceful degradation, not a drop: the
 * device keeps the batches it already ran, stays in the ring, and
 * heals on schedule. Numerics are bit-identical by construction —
 * assignment only moves simulated charges.
 */
#ifndef BETTY_TRAIN_MULTI_DEVICE_H
#define BETTY_TRAIN_MULTI_DEVICE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/feature_cache.h"
#include "data/dataset.h"
#include "memory/device_memory.h"
#include "memory/interconnect.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "sampling/block.h"
#include "train/trainer.h"
#include "util/markers.h"

namespace betty {

/** Configuration of the simulated multi-accelerator setup. */
struct MultiDeviceConfig
{
    /** Number of accelerators. */
    int32_t numDevices = 1;

    /** Per-device memory capacity (0 = unlimited, track only). */
    int64_t deviceCapacityBytes = 0;

    /** Device<->device fabric for the gradient all-reduce. */
    InterconnectConfig interconnect = InterconnectConfig::nvlink();

    /** Per-device feature-cache reservation (0 = no cache). */
    int64_t cacheBytesPerDevice = 0;

    /** Replacement policy of the per-device caches. */
    CachePolicy cachePolicy = CachePolicy::Lru;

    /**
     * Straggler supervisor: a device is flagged when its EWMA of
     * simulated per-micro-batch link seconds exceeds this factor
     * times the fastest healthy device's EWMA. The default tolerates
     * the sharder's balance slack plus cache variance while catching
     * any device-slow factor >= ~2. Set <= 0 to disable the
     * supervisor (the no-re-shard baseline the acceptance test
     * compares against).
     */
    double stragglerFactor = 2.0;
};

/**
 * Vertex-cut assignment of micro-batches to devices.
 *
 * REG already minimized input-node duplication BETWEEN micro-batches
 * (paper §4.3); across devices the residual duplication is the halo:
 * every input vertex needed by micro-batches on two devices is
 * gathered and transferred twice. shardVertexCut packs micro-batches
 * that share inputs onto the same device: largest cost first, each
 * onto the device it overlaps most in input nodes among those a load
 * cap of 1.2 x the mean load admits.
 *
 * Returns the device slot in [0, num_devices) of every micro-batch,
 * or -1 for micro-batches with no output nodes (never scheduled).
 * Deterministic: a pure function of the batches and arguments, never
 * of the thread count. Load-balance bound
 * (tests/test_multi_device.cc): every device's assigned cost is at
 * most max(1.2 * total / devices, total / devices + max single cost).
 */
std::vector<int32_t> shardVertexCut(
    const std::vector<MultiLayerBatch>& micros, int32_t num_devices,
    int64_t feature_dim);

/**
 * Duplication factor of an assignment (entries < 0 are ignored): the
 * sum over devices of their distinct input vertices, divided by the
 * distinct input vertices across all devices. 1.0 = no vertex is
 * replicated across devices; D = every vertex lives on every device.
 * The engine reports it for the executed assignment; pass the
 * round-robin assignment to get the naive split's factor.
 */
double shardDuplicationFactor(
    const std::vector<MultiLayerBatch>& micros,
    const std::vector<int32_t>& assignment);

/** Naive baseline: active micro-batch i -> device i % num_devices
 * (-1 for empty micro-batches). */
std::vector<int32_t> roundRobinAssignment(
    const std::vector<MultiLayerBatch>& micros, int32_t num_devices);

/** Per-epoch measurements of a multi-device step. */
struct MultiDeviceStats
{
    /** Output-weighted mean training loss (bit-identical to the
     * single-device trainer). */
    double loss = 0.0;

    /** Training accuracy over the epoch's output nodes. */
    double accuracy = 0.0;

    /**
     * Simulated parallel epoch time: max over devices of (compute +
     * feature transfer) plus the ring all-reduce and the optimizer
     * step. Per-device compute is the measured single-thread wall
     * time of that device's micro-batches (devices would run
     * concurrently on real hardware); so is the optimizer step.
     */
    double epochSeconds = 0.0;

    /** Simulated ring all-reduce portion of epochSeconds. */
    double allreduceSeconds = 0.0;

    /** Largest per-device peak memory, bytes. */
    int64_t maxDevicePeakBytes = 0;

    /** True if any device exceeded its capacity. */
    bool oom = false;

    /** Micro-batch count executed on each device. */
    std::vector<int32_t> batchesPerDevice;

    /** Per-device busy time (compute + transfer), seconds. */
    std::vector<double> deviceSeconds;

    /** Per-device simulated host-link transfer time, seconds. */
    std::vector<double> deviceTransferSeconds;

    /** Per-device bytes moved over the host link. */
    std::vector<int64_t> deviceTransferBytes;

    /** Cross-device input-vertex duplication of the executed
     * assignment (after any re-shard). */
    double duplicationFactor = 1.0;

    /** Devices still alive after this step. */
    int32_t liveDevices = 0;

    /** device-drop faults consumed during this step. */
    int64_t deviceDrops = 0;

    /** device-slow faults consumed during this step. */
    int64_t deviceSlowFaults = 0;

    /** Straggler-supervisor detections during this step. */
    int64_t stragglersDetected = 0;

    /** Pending micro-batches the supervisor moved off stragglers. */
    int64_t stragglerResharded = 0;
};

/** Drives one model replica set over multiple simulated devices. */
class MultiDeviceEngine : private MicroBatchArbiter
{
  public:
    /**
     * @param dataset Host-resident data (must outlive the engine).
     * @param model Shared model (data-parallel replicas hold
     * identical weights; we keep one copy and compute serially in
     * canonical order, which is bit-identical).
     * @param optimizer Stepped once per batch after the all-reduce.
     */
    MultiDeviceEngine(const Dataset& dataset, GnnModel& model,
                      Optimizer& optimizer, MultiDeviceConfig config);

    /** Pinned: its trainer holds the engine as its arbiter. */
    MultiDeviceEngine(const MultiDeviceEngine&) = delete;
    MultiDeviceEngine& operator=(const MultiDeviceEngine&) = delete;

    /**
     * One gradient-accumulation step over @p micro_batches spread
     * across the configured devices. Does NOT advance the fault
     * clock (use trainEpoch in fault-injected runs).
     */
    MultiDeviceStats trainMicroBatches(
        const std::vector<MultiLayerBatch>& micro_batches);

    /**
     * trainMicroBatches plus the fault protocol: advances the
     * injector clock (Injector::beginEpoch / beginMicroBatch) and
     * consumes `device-drop` events — the dropped device's pending
     * micro-batches are re-sharded over the survivors and the step
     * completes with identical numerics — plus `device-slow` events
     * (link/interconnect degradation with scheduled healing, handled
     * by the straggler supervisor) and per-attempt transfer faults on
     * the per-device links (the trainer's retry protocol). Other
     * fault kinds remain the single-device ResilientTrainer's domain.
     */
    MultiDeviceStats trainEpoch(
        const std::vector<MultiLayerBatch>& micro_batches,
        int64_t epoch);

    const MultiDeviceConfig& config() const { return config_; }

    /** Devices not yet lost to a device-drop fault. */
    int32_t liveDevices() const;

    /** The interconnect's cumulative collective accounting. */
    const InterconnectModel& interconnect() const
    {
        return interconnect_;
    }

  private:
    /** One simulated accelerator: memory model, host link (at
     * TransferModel's default bandwidth), cache. The cache member is
     * declared last so its destructor releases the reservation into
     * a still-live memory model. */
    struct DeviceState
    {
        explicit DeviceState(int64_t capacity_bytes)
            : memory(capacity_bytes)
        {
        }

        DeviceMemoryModel memory;
        /** Its slowdown() is the ground truth of a consumed
         * device-slow fault, which the straggler supervisor must NOT
         * read — it detects from observed link seconds only. */
        TransferModel link;
        std::unique_ptr<FeatureCache> cache;
        bool dead = false;
    };

    /** What run() and the per-micro-batch hooks share in a step. */
    struct Step
    {
        const std::vector<MultiLayerBatch>* micros = nullptr;
        /** Owning device per micro-batch (-1 = never scheduled). */
        std::vector<int32_t> owner;
        bool faultClock = false;
        int64_t epoch = 0;
        /** Straggler supervisor state for this step: per-device EWMA
         * of simulated link seconds per micro-batch, its sample count,
         * and whether the device was flagged. */
        bool supervise = false;
        std::vector<double> ewma;
        std::vector<int32_t> ewmaSamples;
        std::vector<char> flagged;
        /** The owning device's link seconds at admission. */
        double linkBefore = 0.0;
        /** Routes the running micro-batch's tensors to its device. */
        std::optional<DeviceMemoryModel::Scope>* deviceScope = nullptr;
        MultiDeviceStats stats;
    };

    MultiDeviceStats run(
        const std::vector<MultiLayerBatch>& micro_batches,
        bool fault_clock, int64_t epoch);

    /** Loop hook before micro-batch @p index runs: advance the fault
     * clock and consume its device faults, which may move it, then
     * charge its tensors to its device. */
    bool admit(size_t index, const MultiLayerBatch& batch) override;

    /** Loop hook after micro-batch @p index ran: count it for its
     * device and run the straggler supervisor. */
    bool review(size_t index, const MultiLayerBatch& batch) override;

    /** Indices of live devices, ascending. */
    std::vector<int32_t> liveDeviceIds() const;

    /**
     * Consume pending device-drop faults at the current clock slot:
     * mark victims dead and re-shard their micro-batches from
     * @p first_pending on over the survivors. Never drops the last
     * live device.
     */
    void consumeDeviceDrops(size_t first_pending);

    /**
     * Consume pending device-slow faults at the current clock slot:
     * degrade the victim's host link for the fault's duration
     * (TransferModel::degrade). Picks the highest-indexed live device
     * when the spec names none.
     */
    void consumeDeviceSlow();

    /** Heal links whose degradation expired before @p epoch. */
    void healExpiredSlowdowns(int64_t epoch);

    /**
     * Move @p victim's micro-batches from @p first_pending on, in
     * index order, onto @p targets with the placement routine and no
     * load cap, recording each move under @p reason. Returns how many
     * moved. Attribution only — numerics never depend on ownership.
     */
    int64_t reshard(size_t first_pending, int32_t victim,
                    const std::vector<int32_t>& targets,
                    const char* reason);

    const Dataset& dataset_;
    GnnModel& model_;
    Optimizer& optimizer_;
    MultiDeviceConfig config_;
    /** Runs the micro-batch loop over this engine's devices. */
    Trainer trainer_;
    InterconnectModel interconnect_;
    std::vector<std::unique_ptr<DeviceState>> devices_;
    Step step_;
    /** Input working sets over node ids (util/markers.h): one per
     * device and one across devices, kept across steps. */
    std::vector<Markers> inputSets_;
    Markers anyInput_;
};

} // namespace betty

#endif // BETTY_TRAIN_MULTI_DEVICE_H
