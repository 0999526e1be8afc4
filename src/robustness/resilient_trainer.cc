#include "robustness/resilient_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cache/feature_cache.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace betty {

namespace {

/** Bump a recover.* counter (only when metrics collection is on). */
void
chargeRecover(const char* name, int64_t delta = 1)
{
    if (!obs::Metrics::enabled())
        return;
    obs::Metrics::counter(name).add(delta);
}

/** Extra bytes an AllocScale fault makes the micro-batch allocate
 * beyond its estimate. */
int64_t
ballastBytes(double scale, int64_t estimated_peak)
{
    if (scale <= 1.0 || estimated_peak <= 0)
        return 0;
    return int64_t((scale - 1.0) * double(estimated_peak));
}

} // namespace

/**
 * The admission/review hook installed around every micro-batch of a
 * resilient accumulation step. It advances the fault clock, applies
 * micro-batch-scoped faults, and decides abort-vs-continue:
 *
 *   admit:  capacity drops apply first; then the micro-batch is
 *           refused if its estimated peak no longer fits the (possibly
 *           just shrunken) capacity, or an OOM is injected for it.
 *           An alloc-scale fault allocates ballast — real observed
 *           bytes — so under-prediction shows up in the device model
 *           exactly like a mis-estimated tensor would.
 *   review: the ballast is freed; if it pushed live usage over
 *           capacity the step aborts (the "actual OOM" the estimator
 *           failed to predict), as does any new over-capacity episode
 *           when the policy says to react to real OOMs.
 */
class RecoveryArbiter : public MicroBatchArbiter
{
  public:
    RecoveryArbiter(ResilientTrainer& owner, DeviceMemoryModel* device,
                    const std::vector<MemoryEstimate>& estimates)
        : owner_(owner), device_(device), estimates_(estimates)
    {
    }

    bool
    admit(size_t index, const MultiLayerBatch&) override
    {
        fault::Injector::beginMicroBatch(int64_t(index));
        ballast_overshoot_ = false;

        double factor = 0.0;
        while (fault::Injector::takeCapacityDrop(&factor))
            owner_.applyCapacityDrop(factor);

        // Proactive admission check: the planner promised every
        // micro-batch's estimated peak fits the capacity it planned
        // against; if the capacity has shrunk since, refuse BEFORE
        // charging anything — that is the whole point of planning
        // analytically instead of trying on-device. The feature
        // cache's standing reservation is unavailable to training
        // tensors, so it tightens the check by exactly its size.
        if (device_ && device_->capacity() > 0 &&
            index < estimates_.size() &&
            estimates_[index].peak + owner_.cacheReservedBytes() >
                device_->capacity())
            return false;

        if (fault::Injector::takeInjectedOom())
            return false;

        double scale = 0.0;
        if (fault::Injector::takeAllocScale(&scale) && device_ &&
            index < estimates_.size()) {
            const int64_t bytes =
                ballastBytes(scale, estimates_[index].peak);
            if (bytes > 0) {
                obs::MemCategoryScope cat(
                    obs::MemCategory::Uncategorized);
                ballast_ = Tensor(
                    (bytes + int64_t(sizeof(float)) - 1) /
                        int64_t(sizeof(float)),
                    1);
                if (device_->capacity() > 0 &&
                    device_->liveBytes() > device_->capacity())
                    ballast_overshoot_ = true;
            }
        }
        return true;
    }

    bool
    review(size_t, const MultiLayerBatch&) override
    {
        ballast_ = Tensor();
        if (ballast_overshoot_) {
            ballast_overshoot_ = false;
            return false;
        }
        return true;
    }

  private:
    ResilientTrainer& owner_;
    DeviceMemoryModel* device_;
    const std::vector<MemoryEstimate>& estimates_;
    Tensor ballast_;
    bool ballast_overshoot_ = false;
};

ResilientTrainer::ResilientTrainer(Trainer& trainer, GnnSpec spec,
                                   OutputPartitioner& partitioner,
                                   DeviceMemoryModel* device,
                                   RecoveryPolicy policy)
    : trainer_(trainer), partitioner_(partitioner), device_(device),
      planner_(std::move(spec), device ? device->capacity() : 0),
      policy_(policy)
{
}

int64_t
ResilientTrainer::cacheReservedBytes() const
{
    return cache_ ? cache_->reservedBytes() : 0;
}

void
ResilientTrainer::applyCapacityDrop(double factor)
{
    if (!device_)
        return;
    if (device_->capacity() <= 0) {
        BETTY_WARN_ONCE("ResilientTrainer: capacity-drop fault "
                        "ignored — device capacity is unlimited");
        return;
    }
    const int64_t next = std::max<int64_t>(
        1, int64_t(double(device_->capacity()) * factor));
    warn("ResilientTrainer: device capacity dropped from ",
         device_->capacity(), " to ", next, " bytes");
    obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                "recover/capacity-drop",
                                device_->capacity(), next);
    device_->setCapacity(next);
}

void
ResilientTrainer::corruptFeatureRows(const MultiLayerBatch& full,
                                     double fraction)
{
    if (!features_ || features_->rows() == 0 || features_->cols() == 0)
        return;
    const auto& inputs = full.inputNodes();
    if (inputs.empty())
        return;
    const auto rows =
        fault::Injector::corruptRowPlan(int64_t(inputs.size()),
                                        fraction);
    const float garbage = std::numeric_limits<float>::quiet_NaN();
    const int64_t cols = features_->cols();
    for (int64_t idx : rows) {
        const int64_t node = inputs[size_t(idx)];
        if (node < 0 || node >= features_->rows())
            continue;
        std::fill_n(features_->data() + node * cols, size_t(cols),
                    garbage);
    }
}

void
ResilientTrainer::consumeDeviceSlow(int64_t epoch)
{
    if (!transfer_)
        return;
    // Heal a bounded degradation whose window has passed.
    if (slowActive_ && slowUntilEpoch_ > 0 && epoch > slowUntilEpoch_) {
        transfer_->setSlowdown(1.0);
        slowActive_ = false;
        slowUntilEpoch_ = 0;
        obs::FlightRecorder::record(obs::FrCategory::Fault,
                                    "fault/device-heal", epoch, 0);
        warn("ResilientTrainer: device-slow degradation healed at "
             "epoch ", epoch);
    }
    double factor = 0.0;
    int64_t device = -1;
    int64_t duration = 0;
    while (fault::Injector::takeDeviceSlow(&factor, &device,
                                           &duration)) {
        transfer_->setSlowdown(
            std::max(transfer_->slowdown(), factor));
        slowActive_ = true;
        slowUntilEpoch_ = duration > 0 ? epoch + duration - 1 : -1;
        obs::FlightRecorder::record(obs::FrCategory::Fault,
                                    "fault/device-slow", epoch,
                                    int64_t(factor * 1000.0));
        warn("ResilientTrainer: host link degraded by ", factor,
             "x at epoch ", epoch,
             duration > 0 ? " (bounded)" : " (permanent)");
    }
}

int64_t
ResilientTrainer::repairFeatureRows(const MultiLayerBatch& full)
{
    if (!features_ || features_->rows() == 0 || features_->cols() == 0)
        return 0;
    const int64_t cols = features_->cols();
    int64_t repaired = 0;
    for (int64_t node : full.inputNodes()) {
        if (node < 0 || node >= features_->rows())
            continue;
        float* row = features_->data() + node * cols;
        bool bad = false;
        for (int64_t c = 0; c < cols; ++c) {
            if (!std::isfinite(row[c])) {
                row[c] = 0.0f;
                bad = true;
            }
        }
        if (bad)
            ++repaired;
    }
    return repaired;
}

ResilientEpochResult
ResilientTrainer::trainEpoch(const MultiLayerBatch& full,
                             int64_t epoch, int32_t initial_k)
{
    obs::FlightRecorder::recordBegin("epoch/train", epoch,
                                     initial_k);
    fault::Injector::beginEpoch(epoch);

    // Epoch-scoped faults fire before any planning so the first plan
    // already sees the world as it is now.
    double factor = 0.0;
    while (fault::Injector::takeCapacityDrop(&factor))
        applyCapacityDrop(factor);

    consumeDeviceSlow(epoch);

    double fraction = 0.0;
    if (fault::Injector::takeCorruptFeatures(&fraction))
        corruptFeatureRows(full, fraction);
    if (features_) {
        const int64_t repaired = repairFeatureRows(full);
        if (repaired > 0) {
            report_.corruptRowsRepaired += repaired;
            chargeRecover("recover.corrupt_rows_repaired", repaired);
            obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                        "recover/repair-rows", epoch,
                                        repaired);
            warn("ResilientTrainer: repaired ", repaired,
                 " corrupt feature row(s) in epoch ", epoch);
        }
    }

    auto snapshotInjector = [this] {
        report_.transferRetries =
            fault::Injector::faultsInjected(
                fault::FaultKind::TransferFail) +
            fault::Injector::faultsInjected(
                fault::FaultKind::TransferFlaky);
        report_.faultsInjected = fault::Injector::faultsInjected();
    };

    ResilientEpochResult result;
    const int64_t num_outputs = int64_t(full.outputNodes().size());
    int32_t k = std::max<int32_t>(1, initial_k);
    int32_t attempts_left = policy_.maxReplanAttempts;
    // Replan-boundary flow edges: aborted attempt -> re-plan -> next
    // attempt, so the critpath DAG shows recovery work serialized
    // behind the failure that caused it.
    uint64_t prev_attempt_span = 0;
    for (;;) {
        planner_.setCapacity(device_ ? device_->capacity() : 0);
        planner_.setReservedBytes(cacheReservedBytes());
        uint64_t plan_span_id = 0;
        {
            obs::TraceSpan plan_span("epoch/plan", "partition");
            obs::Trace::recordFlow(prev_attempt_span, plan_span.id());
            plan_span_id = plan_span.id();
            result.plan =
                planner_.plan(full, partitioner_, k, policy_.maxK);
        }
        std::string give_up;
        if (!result.plan.fits) {
            give_up = "no K up to " + std::to_string(policy_.maxK) +
                      " fits the device capacity";
        } else {
            obs::TraceSpan attempt_span("resilient/attempt");
            obs::Trace::recordFlow(plan_span_id, attempt_span.id());
            prev_attempt_span = attempt_span.id();
            RecoveryArbiter arbiter(*this, device_,
                                    result.plan.estimates);
            trainer_.setArbiter(&arbiter);
            result.stats =
                trainer_.trainMicroBatches(result.plan.microBatches);
            trainer_.setArbiter(nullptr);
            if (!result.stats.aborted) {
                snapshotInjector();
                obs::FlightRecorder::recordEnd("epoch/train", epoch,
                                               result.plan.k);
                return result;
            }
            ++report_.oomRetries;
            chargeRecover("recover.oom_retries");
            obs::FlightRecorder::record(
                obs::FrCategory::Oom, "oom/epoch-abort", epoch,
                result.stats.abortedMicroBatch);
            if (attempts_left <= 0)
                give_up = "re-plan budget (" +
                          std::to_string(policy_.maxReplanAttempts) +
                          " attempts) exhausted";
            else if (result.plan.k >= policy_.maxK ||
                     int64_t(result.plan.k) >= num_outputs)
                give_up = "cannot partition finer than K=" +
                          std::to_string(result.plan.k);
        }
        if (!give_up.empty() && cache_ && cache_->reservedBytes() > 0) {
            // Last lever before skipping: caching is a luxury,
            // training tensors are not. Give the reservation back and
            // retry the SAME plan point — the freed bytes may make it
            // fit. Guarded by reservedBytes() > 0, so this fires at
            // most once per cache and cannot loop.
            const int64_t released = cache_->reservedBytes();
            cache_->releaseAll();
            obs::FlightRecorder::record(obs::FrCategory::Cache,
                                        "cache/release-reservation",
                                        epoch, released);
            warn("ResilientTrainer: ", give_up,
                 "; released feature-cache reservation (", released,
                 " bytes) and retrying before refusing any training "
                 "tensor");
            continue;
        }
        if (!give_up.empty()) {
            ++report_.batchesSkipped;
            chargeRecover("recover.batches_skipped");
            result.skipped = true;
            warn("ResilientTrainer: skipping epoch ", epoch, " — ",
                 give_up, " (parameters unchanged; run continues)");
            snapshotInjector();
            obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                        "recover/skip-epoch", epoch,
                                        result.plan.k);
            obs::FlightRecorder::recordEnd("epoch/train", epoch,
                                           result.plan.k);
            return result;
        }
        --attempts_left;
        k = result.plan.k + 1;
        ++report_.replans;
        ++result.replans;
        chargeRecover("recover.replans");
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "recover/replan", result.plan.k,
                                    k);
        warn("ResilientTrainer: epoch ", epoch,
             " aborted at micro-batch ",
             result.stats.abortedMicroBatch, " of K=",
             result.plan.k, "; re-planning at K=", k);
    }
}

} // namespace betty
