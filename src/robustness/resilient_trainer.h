/**
 * @file
 * Mid-epoch OOM recovery via re-planning (docs/ROBUSTNESS.md).
 *
 * The ResilientTrainer wraps a Trainer + MemoryAwarePlanner pair with
 * a bounded retry loop:
 *
 *   1. Plan the epoch's micro-batches at the current device capacity.
 *   2. Run the gradient-accumulation step with an installed
 *      MicroBatchArbiter that aborts BEFORE a micro-batch whose
 *      estimated peak no longer fits (capacity can shrink under us —
 *      a co-tenant, or an injected fault::CapacityDrop), on an
 *      injected OOM, or after a simulated estimator under-prediction
 *      (alloc-scale ballast) overshoots capacity.
 *   3. On abort the trainer has already rolled the gradients back
 *      (one optimizer step per accumulation step means zeroGrad is a
 *      complete, deterministic rollback) — re-plan at K+1 and retry.
 *   4. When retries are exhausted or even max-K does not fit, SKIP
 *      the epoch with a report instead of crashing.
 *
 * Determinism: a run that recovers from a capacity drop at K0 and
 * re-plans to K1 produces bit-identical parameters to a run planned
 * at K1 from the start under the shrunken capacity — the rollback is
 * total and partitioning is a pure function of (batch, K) on a cold
 * start. tests/test_resilient_trainer.cc proves the param-hash match.
 *
 * Transfer faults are keyed to each micro-batch's logical
 * program-order position (Trainer passes it into the retry protocol),
 * so fault schedules are exact at every thread count.
 *
 * The device it guards is the wrapped Trainer's own: its memory model
 * gates admission, its host link takes device-slow degradation, and
 * its feature cache's reservation is what recovery may release.
 */
#ifndef BETTY_ROBUSTNESS_RESILIENT_TRAINER_H
#define BETTY_ROBUSTNESS_RESILIENT_TRAINER_H

#include <cstdint>

#include "core/betty.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace betty {

/** Bounds of the recovery loop. */
struct RecoveryPolicy
{
    /** Re-plan at K+1 at most this many times per epoch. */
    int32_t maxReplanAttempts = 8;

    /** Upper bound handed to the planner's K search. */
    int32_t maxK = 4096;
};

/** What one resilient epoch did (stats + the plan that survived). */
struct ResilientEpochResult
{
    /** Stats of the final (successful) accumulation step; default-
     * initialized when the epoch was skipped. */
    EpochStats stats;

    /** The plan that completed (or the last attempted one). */
    PlanResult plan;

    /** Re-plans performed within this epoch. */
    int64_t replans = 0;

    /** True when recovery was exhausted and the epoch was skipped
     * (parameters unchanged); the run continues — never crashes. */
    bool skipped = false;
};

/** Cumulative recovery activity across the run (run-report section). */
struct RecoveryReport
{
    int64_t replans = 0;
    int64_t oomRetries = 0;
    int64_t transferRetries = 0;
    int64_t batchesSkipped = 0;
    int64_t corruptRowsRepaired = 0;
    int64_t faultsInjected = 0;
};

/** The recovery loop around Trainer::trainMicroBatches (file doc). */
class ResilientTrainer
{
  public:
    /**
     * @param trainer The wrapped trainer (arbiter slot must be free).
     * Its device (Trainer::device()) is the one recovery guards: the
     * memory model's capacity gates admission (none: no capacity
     * checks — only injected faults recover); the device-slow fault
     * degrades the host link, inflating simulated transfer seconds,
     * never numerics (no link: the fault is not consumed); and the
     * feature cache's reservation is planned around, tightens
     * admission by its size, and is released — caching is a luxury,
     * training tensors are not — BEFORE an epoch is skipped.
     * @param spec Model description for the re-planner's estimator.
     * @param partitioner Output partitioner used for re-planning.
     * All references are borrowed and must outlive this object.
     */
    ResilientTrainer(Trainer& trainer, GnnSpec spec,
                     OutputPartitioner& partitioner,
                     RecoveryPolicy policy = {});

    /**
     * Writable feature storage (Dataset::features) the corrupt-
     * features fault poisons and the repair pass scans. Optional —
     * without it that fault kind is a no-op.
     */
    void setFeatureSource(Tensor* features) { features_ = features; }

    /**
     * One resilient epoch over @p full: advance the fault clock to
     * @p epoch (1-based), apply epoch-scoped faults, then
     * plan/train/re-plan per the policy starting from @p initial_k.
     */
    ResilientEpochResult trainEpoch(const MultiLayerBatch& full,
                                    int64_t epoch, int32_t initial_k);

    /** Cumulative recovery counters (mirrors the recover.* metrics). */
    const RecoveryReport& report() const { return report_; }

  private:
    friend class RecoveryArbiter;

    /** The trainer's device capacity (0 = unlimited or no device). */
    int64_t deviceCapacity() const;

    /** Bytes the feature cache currently reserves on the device
     * (0 without a cache). Re-read per admission: a release mid-run
     * must loosen later checks immediately. */
    int64_t cacheReservedBytes() const;

    /** Shrink the device capacity by @p factor (CapacityDrop). */
    void applyCapacityDrop(double factor);

    /** Poison the scheduled fraction of @p full's input-node feature
     * rows with NaNs (the fault's delivery side). */
    void corruptFeatureRows(const MultiLayerBatch& full,
                            double fraction);

    /** Scan @p full's input-node rows and zero non-finite values;
     * returns the number of rows repaired. */
    int64_t repairFeatureRows(const MultiLayerBatch& full);

    /** Consume the device-slow faults that fire at the clock
     * position in @p epoch: degrade the trainer's host link. */
    void consumeDeviceSlow(int64_t epoch);

    Trainer& trainer_;
    OutputPartitioner& partitioner_;
    MemoryAwarePlanner planner_;
    RecoveryPolicy policy_;
    Tensor* features_ = nullptr;
    RecoveryReport report_;
};

} // namespace betty

#endif // BETTY_ROBUSTNESS_RESILIENT_TRAINER_H
