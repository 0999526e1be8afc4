#include "robustness/resilient_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cache/feature_cache.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "obs/trace.h"
#include "util/fault.h"
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
    RecoveryArbiter(ResilientTrainer& owner, int64_t epoch,
                    const std::vector<MemoryEstimate>& estimates)
        : owner_(owner), device_(owner.trainer_.device().memory),
          epoch_(epoch), estimates_(estimates)
    {
    }

    bool
    admit(size_t index, const MultiLayerBatch&) override
    {
        fault::Injector::beginMicroBatch(int64_t(index));
        ballast_overshoot_ = false;

        while (const auto drop = fault::Injector::take(
                   fault::FaultKind::CapacityDrop))
            owner_.applyCapacityDrop(drop->value);
        owner_.consumeDeviceSlow(epoch_);

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

        if (fault::Injector::take(fault::FaultKind::InjectOom))
            return false;

        const auto scale =
            fault::Injector::take(fault::FaultKind::AllocScale);
        if (scale && device_ && index < estimates_.size()) {
            const int64_t bytes =
                ballastBytes(scale->value, estimates_[index].peak);
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
    int64_t epoch_;
    const std::vector<MemoryEstimate>& estimates_;
    Tensor ballast_;
    bool ballast_overshoot_ = false;
};

ResilientTrainer::ResilientTrainer(Trainer& trainer, GnnSpec spec,
                                   OutputPartitioner& partitioner,
                                   RecoveryPolicy policy)
    : trainer_(trainer), partitioner_(partitioner),
      planner_(std::move(spec), deviceCapacity()), policy_(policy)
{
}

int64_t
ResilientTrainer::deviceCapacity() const
{
    const DeviceMemoryModel* device = trainer_.device().memory;
    return device ? device->capacity() : 0;
}

int64_t
ResilientTrainer::cacheReservedBytes() const
{
    const FeatureCache* cache = trainer_.device().cache;
    return cache ? cache->reservedBytes() : 0;
}

void
ResilientTrainer::applyCapacityDrop(double factor)
{
    DeviceMemoryModel* device = trainer_.device().memory;
    if (!device)
        return;
    if (device->capacity() <= 0) {
        BETTY_WARN_ONCE("ResilientTrainer: capacity-drop fault "
                        "ignored — device capacity is unlimited");
        return;
    }
    const int64_t next = std::max<int64_t>(
        1, int64_t(double(device->capacity()) * factor));
    warn("ResilientTrainer: device capacity dropped from ",
         device->capacity(), " to ", next, " bytes");
    obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                "recover/capacity-drop",
                                device->capacity(), next);
    device->setCapacity(next);
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
    TransferModel* link = trainer_.device().link;
    if (!link)
        return;
    while (const auto slow =
               fault::Injector::take(fault::FaultKind::DeviceSlow)) {
        link->degrade(slow->value, epoch, slow->durationEpochs);
        obs::FlightRecorder::record(obs::FrCategory::Fault,
                                    "fault/device-slow", epoch,
                                    int64_t(slow->value * 1000.0));
        warn("ResilientTrainer: host link degraded by ", slow->value,
             "x at epoch ", epoch,
             slow->durationEpochs > 0 ? " (bounded)" : " (permanent)");
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
    // already sees the world as it is now. A bounded link degradation
    // heals first, so a one-epoch slowdown covers exactly one epoch.
    while (const auto drop =
               fault::Injector::take(fault::FaultKind::CapacityDrop))
        applyCapacityDrop(drop->value);

    TransferModel* link = trainer_.device().link;
    if (link && link->healBefore(epoch)) {
        obs::FlightRecorder::record(obs::FrCategory::Fault,
                                    "fault/device-heal", epoch, 0);
        warn("ResilientTrainer: device-slow degradation healed at "
             "epoch ", epoch);
    }
    consumeDeviceSlow(epoch);

    if (const auto corrupt =
            fault::Injector::take(fault::FaultKind::CorruptFeatures))
        corruptFeatureRows(full, corrupt->value);
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
        planner_.setCapacity(deviceCapacity());
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
            RecoveryArbiter arbiter(*this, epoch,
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
        FeatureCache* cache = trainer_.device().cache;
        if (!give_up.empty() && cache && cache->reservedBytes() > 0) {
            // Last lever before skipping: caching is a luxury,
            // training tensors are not. Give the reservation back and
            // retry the SAME plan point — the freed bytes may make it
            // fit. Guarded by reservedBytes() > 0, so this fires at
            // most once per cache and cannot loop.
            const int64_t released = cache->reservedBytes();
            cache->releaseAll();
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
