/**
 * @file
 * Training loops: full-batch, mini-batch, and Betty's micro-batch
 * (gradient accumulation) mode.
 *
 * Micro-batch semantics (paper §4.2, Figure 6): all K micro-batches
 * are forwarded/backwarded against the SAME parameters; per-micro-
 * batch losses are weighted by their share of output nodes so the
 * accumulated gradient equals the full batch's mean-loss gradient;
 * one optimizer step is applied at the end of the batch. Mini-batch
 * mode, by contrast, steps the optimizer after every batch — that is
 * the statistical difference Figures 4/13 and Table 6 measure.
 *
 * The trainer also performs the simulated heterogeneous-memory data
 * movement: per (micro-)batch it gathers the needed feature rows from
 * the host-resident dataset into a buffer that becomes the device
 * tensor, charges the bytes to the TransferModel, and accounts the
 * block structures against the DeviceMemoryModel for the duration of
 * the step.
 *
 * The micro-batch loop runs over a set of devices (TrainDevice), one
 * owner per micro-batch: trainMicroBatches is that loop over the
 * trainer's own device, and the multi-device engine
 * (train/multi_device.h) drives the same loop over its shards.
 */
#ifndef BETTY_TRAIN_TRAINER_H
#define BETTY_TRAIN_TRAINER_H

#include <vector>

#include "data/dataset.h"
#include "kernels/arena.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "sampling/block.h"

namespace betty {

class FeatureCache;

/** Measurements of one training epoch (or one evaluation pass). */
struct EpochStats
{
    /** Output-node-weighted mean training loss. */
    double loss = 0.0;

    /** Training accuracy over the epoch's output nodes. */
    double accuracy = 0.0;

    /** Wall-clock compute time (forward+backward+step), seconds. */
    double computeSeconds = 0.0;

    /** Simulated host->device transfer time, seconds. */
    double transferSeconds = 0.0;

    /** Device peak bytes observed during the epoch (0 if untracked). */
    int64_t peakBytes = 0;

    /** True if the device capacity was exceeded at any point. */
    bool oom = false;

    /**
     * Over-capacity EPISODES during the epoch (contiguous stretches
     * of live > capacity, from DeviceMemoryModel::oomEpisodeCount).
     * The latched `oom` bool cannot distinguish "one transient
     * overshoot" from "every micro-batch overflowed"; recovery-vs-
     * failure runs need the count.
     */
    int64_t oomEvents = 0;

    /** Total first-layer input nodes processed (Table 6 metric). */
    int64_t inputNodesProcessed = 0;

    /** Total nodes across all blocks of all batches (Fig 15 metric). */
    int64_t totalNodesProcessed = 0;

    /**
     * True if the accumulation step was aborted by the arbiter before
     * the optimizer step: gradients were rolled back (zeroGrad) and
     * the parameters are EXACTLY as before the call — the caller can
     * re-plan and retry deterministically.
     */
    bool aborted = false;

    /** Index (into the micro-batch vector) where the abort fired;
     * -1 when not aborted. */
    int64_t abortedMicroBatch = -1;
};

/**
 * Admission/review hook the resilient runtime installs around every
 * micro-batch of a gradient-accumulation step (robustness/
 * resilient_trainer.h). Returning false from either hook aborts the
 * step: the trainer zeroes the accumulated gradients (a complete
 * rollback — parameters and optimizer state are untouched until the
 * final step()) and returns with EpochStats::aborted set.
 */
class MicroBatchArbiter
{
  public:
    virtual ~MicroBatchArbiter() = default;

    /** Before micro-batch @p index is charged/computed. Return false
     * to abort the accumulation step. */
    virtual bool
    admit(size_t index, const MultiLayerBatch& batch)
    {
        (void)index;
        (void)batch;
        return true;
    }

    /** After micro-batch @p index completed (device frees done).
     * Return false to abort the accumulation step. */
    virtual bool
    review(size_t index, const MultiLayerBatch& batch)
    {
        (void)index;
        (void)batch;
        return true;
    }
};

/**
 * One simulated accelerator of the micro-batch loop. Null members are
 * not charged. Tensors are charged to whichever allocation observer
 * is installed (DeviceMemoryModel::Scope) — the caller's choice.
 */
struct TrainDevice
{
    /** Charged with a micro-batch's block and label bytes; its window
     * peak feeds the estimator-residual telemetry. */
    DeviceMemoryModel* memory = nullptr;

    /** Host link priced for the micro-batch's feature rows and
     * blocks. */
    TransferModel* link = nullptr;

    /** Rows resident here do not cross the link again. */
    FeatureCache* cache = nullptr;

    /** Compute wall seconds of the micro-batches run here; the loop
     * adds to it. */
    double computeSeconds = 0.0;
};

/** Drives one model over batches built from one dataset. */
class Trainer
{
  public:
    /**
     * @param dataset Host-resident data (must outlive the trainer).
     * @param model The GNN; its parameters should have been allocated
     * inside the device scope if device accounting is wanted.
     * @param optimizer Optimizer over the model's parameters.
     * @param device Optional device memory model (peak/OOM tracking).
     * @param transfer Optional transfer cost model.
     */
    Trainer(const Dataset& dataset, GnnModel& model,
            Optimizer& optimizer, DeviceMemoryModel* device = nullptr,
            TransferModel* transfer = nullptr);

    /**
     * Enable/disable transfer-compute pipelining (default enabled).
     * When enabled AND the global ThreadPool has more than one lane,
     * the micro-batch loop gathers micro-batch k+1's feature rows on
     * a pool worker (its own lane in the Chrome trace) while
     * micro-batch k computes. The gather is pure host work; every
     * charge — cache lookup, link, device memory — is made when the
     * rows are consumed, on the training thread, in the serial order,
     * so loss, accuracy and all accounting are bit-identical to the
     * serial schedule (docs/PARALLELISM.md).
     */
    void setPipeline(bool on) { pipeline_ = on; }

    /**
     * Install (or with nullptr remove) the micro-batch arbiter
     * consulted by trainMicroBatches. Not owned; must outlive the
     * trainer or be removed first.
     */
    void setArbiter(MicroBatchArbiter* arbiter) { arbiter_ = arbiter; }

    /**
     * Install (or with nullptr remove) a device-resident feature
     * cache (cache/feature_cache.h) on the trainer's own device. When
     * set, only the input rows the cache misses are charged to the
     * TransferModel; the host-side gather itself is unchanged, so
     * numerics are bit-identical with or without a cache. Not owned;
     * must outlive the trainer or be removed first.
     */
    void setFeatureCache(FeatureCache* cache) { own_.cache = cache; }

    /**
     * One gradient-accumulation step over @p micro_batches (Betty
     * micro-batch training; pass a single batch for full-batch
     * training) on the trainer's own device: accumulateMicroBatches,
     * then one optimizer step. Empty micro-batches are skipped.
     */
    EpochStats trainMicroBatches(
        const std::vector<MultiLayerBatch>& micro_batches);

    /**
     * The micro-batch loop over a device set: forward and backward
     * every micro-batch that has output nodes, micro-batch i on
     * devices[owner[i]], accumulating output-weighted gradients into
     * the parameters without stepping the optimizer. owner[i] is read
     * once micro-batch i is admitted, so the arbiter may re-assign
     * micro-batches not yet admitted. Placement only decides where
     * bytes and seconds are charged, never the float operation order.
     * With more than one device, each device's gathers get their own
     * trace lane (1000 + index, named "deviceN"). Returns loss,
     * accuracy, node counts and compute seconds; on an arbiter abort
     * the gradients are zeroed again.
     */
    EpochStats accumulateMicroBatches(
        const std::vector<MultiLayerBatch>& micro_batches,
        std::vector<TrainDevice>& devices,
        const std::vector<int32_t>& owner);

    /** One epoch of classic mini-batch SGD: optimizer step per batch. */
    EpochStats trainMiniBatches(
        const std::vector<MultiLayerBatch>& batches);

    /** Forward-only accuracy of the model on @p batch's outputs. */
    double evaluate(const MultiLayerBatch& batch);

  private:
    /**
     * Copy the batch's input feature rows into a host buffer (the
     * physical gather). Pure host work — no charge, no device model —
     * so it may run on a pool lane ahead of the training thread; the
     * buffer later becomes the feature tensor itself (inputFeatures).
     * @p trace_device >= 0 puts the gather in that device's lane.
     */
    std::vector<float> gather(const MultiLayerBatch& batch,
                              int32_t trace_device) const;

    /**
     * Charge the batch's host->device copy to @p device: the cache
     * keeps resident rows off the link, and the retry protocol drains
     * the transfer faults keyed to @p micro_batch, the batch's
     * program-order position (-1 outside the micro-batch loop).
     */
    void chargeTransfer(const TrainDevice& device,
                        const MultiLayerBatch& batch,
                        int64_t micro_batch) const;

    /** Take gathered rows over as the device-side feature tensor,
     * charged to the current observer under InputFeatures. */
    ag::NodePtr inputFeatures(const MultiLayerBatch& batch,
                              std::vector<float> rows) const;

    /** Labels of the batch's output nodes. */
    std::vector<int32_t> loadLabels(const MultiLayerBatch& batch) const;

    /** Run forward+loss on one batch; returns {loss node, correct}. */
    struct ForwardResult
    {
        ag::NodePtr loss;
        int64_t correct = 0;
        int64_t outputs = 0;
    };
    ForwardResult forward(const MultiLayerBatch& batch,
                          std::vector<float> rows);

    const Dataset& dataset_;
    GnnModel& model_;
    Optimizer& optimizer_;
    /** The device trainMicroBatches, trainMiniBatches and evaluate
     * charge. */
    TrainDevice own_;
    MicroBatchArbiter* arbiter_ = nullptr;
    bool pipeline_ = true;

    /**
     * Per-micro-batch scratch arena (kernels/arena.h): every forward/
     * backward temporary of one micro-batch bump-allocates here and is
     * reclaimed wholesale by reset() once the graph is released, so a
     * steady-state micro-batch performs O(1) heap allocations.
     * Parameter gradients and optimizer state are explicitly arena-
     * suspended and stay on the heap.
     */
    kernels::Arena arena_;
};

} // namespace betty

#endif // BETTY_TRAIN_TRAINER_H
