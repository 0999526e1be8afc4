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
 */
#ifndef BETTY_ROBUSTNESS_RESILIENT_TRAINER_H
#define BETTY_ROBUSTNESS_RESILIENT_TRAINER_H

#include <cstdint>

#include "core/betty.h"
#include "memory/device_memory.h"
#include "tensor/tensor.h"
#include "train/trainer.h"
#include "util/fault.h"

namespace betty {

class FeatureCache;

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
     * @param spec Model description for the re-planner's estimator.
     * @param partitioner Output partitioner used for re-planning.
     * @param device Device model whose capacity gates admission; may
     * be null (no capacity checks — only injected faults recover).
     * All references are borrowed and must outlive this object.
     */
    ResilientTrainer(Trainer& trainer, GnnSpec spec,
                     OutputPartitioner& partitioner,
                     DeviceMemoryModel* device,
                     RecoveryPolicy policy = {});

    /**
     * Writable feature storage (Dataset::features) the corrupt-
     * features fault poisons and the repair pass scans. Optional —
     * without it that fault kind is a no-op.
     */
    void setFeatureSource(Tensor* features) { features_ = features; }

    /**
     * Feature cache whose device reservation the recovery loop
     * manages (cache/feature_cache.h). Planning accounts for the
     * reservation, admission checks estimated peaks against the
     * capacity MINUS the reservation, and when even that does not fit
     * the reservation is released — caching is a luxury; training
     * tensors are not — BEFORE the epoch is skipped. Borrowed, may be
     * null.
     */
    void setFeatureCache(FeatureCache* cache) { cache_ = cache; }

    /**
     * Transfer model the device-slow fault degrades (the simulated
     * host link). Borrowed, may be null — without it device-slow is a
     * no-op on the single-device path. The fault is attribution-only:
     * it inflates simulated transfer seconds, never numerics.
     */
    void setTransferModel(TransferModel* transfer)
    {
        transfer_ = transfer;
    }

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

    /** Consume pending device-slow faults (degrade the transfer
     * model) and heal expired ones; called at each epoch start. */
    void consumeDeviceSlow(int64_t epoch);

    Trainer& trainer_;
    OutputPartitioner& partitioner_;
    DeviceMemoryModel* device_;
    MemoryAwarePlanner planner_;
    RecoveryPolicy policy_;
    Tensor* features_ = nullptr;
    FeatureCache* cache_ = nullptr;
    TransferModel* transfer_ = nullptr;
    /** Last epoch the current device-slow degradation covers;
     * -1 = permanent, 0 = no degradation active. */
    int64_t slowUntilEpoch_ = 0;
    bool slowActive_ = false;
    RecoveryReport report_;
};

} // namespace betty

#endif // BETTY_ROBUSTNESS_RESILIENT_TRAINER_H
