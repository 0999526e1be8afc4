#include "robustness/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/betty.h"
#include "data/catalog.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "robustness/resilient_trainer.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace betty::robustness {

namespace {

/** Stream tag separating chaos draws from every other Rng consumer. */
constexpr uint64_t kChaosStream = 0xC4A05C4A05ULL;

/**
 * Quantized magnitude tables. Quantization keeps schedules readable
 * (specs print exact decimals) and guarantees format() -> parse()
 * round-trips reproduce the value bit-for-bit.
 */
constexpr double kDropFactors[] = {0.4, 0.5, 0.6, 0.75, 0.9};
constexpr double kAllocScales[] = {1.25, 1.5, 2.0, 3.0};
constexpr double kCorruptFractions[] = {0.01, 0.02, 0.05, 0.1};
constexpr double kSlowFactors[] = {1.5, 2.0, 4.0, 8.0};
constexpr double kFlakyProbs[] = {0.1, 0.2, 0.3, 0.5};
constexpr int64_t kRetryCounts[] = {1, 2, 3};
constexpr int64_t kSlowDurations[] = {0, 1, 2};

template <typename T, size_t N>
T
pick(Rng& rng, const T (&table)[N])
{
    return table[rng.uniformInt(uint64_t(N))];
}

SageConfig
sageConfigFor(const Dataset& dataset)
{
    SageConfig cfg;
    cfg.inputDim = dataset.featureDim();
    cfg.hiddenDim = 16;
    cfg.numClasses = dataset.numClasses;
    cfg.numLayers = 2;
    cfg.seed = 5;
    return cfg;
}

uint64_t
hashParameters(const GnnModel& model)
{
    uint64_t hash = 1469598103934665603ull;
    for (const auto& param : model.parameters())
        for (int64_t i = 0; i < param->value.numel(); ++i) {
            uint32_t bits;
            std::memcpy(&bits, &param->value.data()[i],
                        sizeof(bits));
            hash = (hash ^ bits) * 1099511628211ull;
        }
    return hash;
}

} // namespace

const char*
chaosTargetName(ChaosTarget target)
{
    return target == ChaosTarget::SingleDevice ? "single-device"
                                               : "multi-device";
}

bool
attributionOnly(const fault::FaultPlan& plan, ChaosTarget target)
{
    for (const fault::FaultEvent& event : plan.events) {
        switch (event.kind) {
          case fault::FaultKind::TransferFail:
          case fault::FaultKind::TransferFlaky:
          case fault::FaultKind::DeviceSlow:
            continue;
          case fault::FaultKind::DeviceDrop:
            // Placement never touches numerics on the multi-device
            // path; the single-device stack does not consume drops,
            // but a plan carrying one is not attribution-only there
            // by intent.
            if (target == ChaosTarget::MultiDevice)
                continue;
            return false;
          default:
            return false;
        }
    }
    return true;
}

ChaosSchedule
generateSchedule(uint64_t seed, const ChaosConfig& config)
{
    ChaosSchedule schedule;
    schedule.seed = seed;
    Rng rng = Rng::stream(seed, kChaosStream, 0);
    schedule.target = rng.uniformInt(uint64_t(2)) == 0
                          ? ChaosTarget::SingleDevice
                          : ChaosTarget::MultiDevice;

    const int32_t events =
        1 + int32_t(rng.uniformInt(
                uint64_t(std::max<int32_t>(1, config.maxEvents))));
    for (int32_t n = 0; n < events; ++n) {
        fault::FaultEvent event;
        event.epoch =
            rng.uniformInt(int64_t(1),
                           std::max<int64_t>(1, config.epochs));
        const int64_t last_mb =
            std::max<int64_t>(0, int64_t(config.singleK) - 1);
        if (schedule.target == ChaosTarget::SingleDevice) {
            switch (rng.uniformInt(uint64_t(7))) {
              case 0:
                // Consumed by the admission hook, so it must name a
                // micro-batch to ever fire.
                event.kind = fault::FaultKind::InjectOom;
                event.microBatch = rng.uniformInt(int64_t(0), last_mb);
                break;
              case 1:
                event.kind = fault::FaultKind::CapacityDrop;
                event.value = pick(rng, kDropFactors);
                event.microBatch =
                    rng.uniformInt(int64_t(-1), last_mb);
                break;
              case 2:
                event.kind = fault::FaultKind::AllocScale;
                event.value = pick(rng, kAllocScales);
                event.microBatch = rng.uniformInt(int64_t(0), last_mb);
                break;
              case 3:
                // Epoch-scoped: poisoning happens before planning.
                event.kind = fault::FaultKind::CorruptFeatures;
                event.value = pick(rng, kCorruptFractions);
                break;
              case 4:
                event.kind = fault::FaultKind::TransferFail;
                event.retries = pick(rng, kRetryCounts);
                event.microBatch =
                    rng.uniformInt(int64_t(-1), last_mb);
                break;
              case 5:
                event.kind = fault::FaultKind::TransferFlaky;
                event.value = pick(rng, kFlakyProbs);
                event.microBatch =
                    rng.uniformInt(int64_t(-1), last_mb);
                break;
              default:
                event.kind = fault::FaultKind::DeviceSlow;
                event.value = pick(rng, kSlowFactors);
                event.durationEpochs = pick(rng, kSlowDurations);
                break;
            }
        } else {
            const int64_t last_device =
                std::max<int64_t>(0, int64_t(config.numDevices) - 1);
            const int64_t last_multi_mb =
                std::max<int64_t>(0, int64_t(config.multiK) - 1);
            switch (rng.uniformInt(uint64_t(4))) {
              case 0:
                // value < 0 = "drop the highest-indexed live device".
                event.kind = fault::FaultKind::DeviceDrop;
                event.value = double(
                    rng.uniformInt(int64_t(-1), last_device));
                event.microBatch =
                    rng.uniformInt(int64_t(-1), last_multi_mb);
                break;
              case 1:
                event.kind = fault::FaultKind::DeviceSlow;
                event.value = pick(rng, kSlowFactors);
                event.durationEpochs = pick(rng, kSlowDurations);
                event.device =
                    rng.uniformInt(int64_t(-1), last_device);
                break;
              case 2:
                event.kind = fault::FaultKind::TransferFail;
                event.retries = pick(rng, kRetryCounts);
                event.microBatch =
                    rng.uniformInt(int64_t(-1), last_multi_mb);
                break;
              default:
                event.kind = fault::FaultKind::TransferFlaky;
                event.value = pick(rng, kFlakyProbs);
                event.microBatch =
                    rng.uniformInt(int64_t(-1), last_multi_mb);
                break;
            }
        }
        schedule.plan.events.push_back(event);
    }
    schedule.plan.seed = seed;
    schedule.spec = schedule.plan.format();
    return schedule;
}

ChaosHarness::ChaosHarness(ChaosConfig config)
    : config_(config), dataset_(loadCatalogDataset("cora_like", 0.2, 11))
{
    NeighborSampler sampler(dataset_.graph, {4, 6}, 12);
    std::vector<int64_t> seeds(
        dataset_.trainNodes.begin(),
        dataset_.trainNodes.begin() +
            std::min<size_t>(size_t(config_.trainSeeds),
                             dataset_.trainNodes.size()));
    full_ = sampler.sample(seeds);
    BettyPartitioner partitioner;
    micros_ = extractMicroBatches(
        full_, partitioner.partition(full_, config_.multiK));

    // Capacity sized so exactly singleK fits: every capacity drop
    // then forces a real abort/re-plan, and every pinned micro-batch
    // position exists.
    GraphSage probe_model(sageConfigFor(dataset_));
    MemoryAwarePlanner probe(probe_model.memorySpec(), 0);
    const PlanResult plan =
        probe.plan(full_, partitioner, config_.singleK);
    singleCapacity_ = plan.maxEstimatedPeak;

    singleBaseline_ = runSingle(nullptr);
    multiBaseline_ = runMulti(nullptr);
}

ChaosHarness::SingleTrace
ChaosHarness::runSingle(const fault::FaultPlan* plan)
{
    if (plan)
        fault::Injector::install(*plan);
    else
        fault::Injector::clear();

    // corrupt-features poisons rows in place (and the repair zeroes
    // them), so every run trains on a private dataset copy. Tensor's
    // copy shares storage — clone() for the deep copy, or the poison
    // would leak into the master dataset and every later run.
    Dataset ds = dataset_;
    ds.features = dataset_.features.clone();
    DeviceMemoryModel device(singleCapacity_);
    DeviceMemoryModel::Scope scope(device);
    GraphSage model(sageConfigFor(dataset_));
    Adam adam(model.parameters(), 0.01f);
    TransferModel transfer;
    Trainer trainer(ds, model, adam, &device, &transfer);
    BettyPartitioner partitioner;
    RecoveryPolicy policy;
    policy.maxK = config_.maxK;
    ResilientTrainer resilient(trainer, model.memorySpec(),
                               partitioner, policy);
    resilient.setFeatureSource(&ds.features);

    SingleTrace trace;
    for (int64_t epoch = 1; epoch <= config_.epochs; ++epoch) {
        const ResilientEpochResult result =
            resilient.trainEpoch(full_, epoch, config_.singleK);
        trace.losses.push_back(result.skipped ? 0.0
                                              : result.stats.loss);
        trace.skipped.push_back(result.skipped ? 1 : 0);
    }
    const RecoveryReport& report = resilient.report();
    trace.replans = report.replans;
    trace.oomRetries = report.oomRetries;
    trace.transferRetries = report.transferRetries;
    trace.batchesSkipped = report.batchesSkipped;
    trace.faultsInjected = fault::Injector::faultsInjected();
    trace.firedTransferFail = fault::Injector::faultsInjected(
        fault::FaultKind::TransferFail);
    trace.firedTransferFlaky = fault::Injector::faultsInjected(
        fault::FaultKind::TransferFlaky);
    trace.transferSeconds = transfer.lifetimeSeconds();
    trace.backoffSeconds = transfer.backoffSeconds();
    trace.paramHash = hashParameters(model);
    fault::Injector::clear();
    return trace;
}

ChaosHarness::MultiTrace
ChaosHarness::runMulti(const fault::FaultPlan* plan)
{
    if (plan)
        fault::Injector::install(*plan);
    else
        fault::Injector::clear();

    GraphSage model(sageConfigFor(dataset_));
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = config_.numDevices;
    MultiDeviceEngine engine(dataset_, model, adam, config);

    MultiTrace trace;
    for (int64_t epoch = 1; epoch <= config_.epochs; ++epoch) {
        const MultiDeviceStats stats =
            engine.trainEpoch(micros_, epoch);
        trace.losses.push_back(stats.loss);
        trace.liveDevices = stats.liveDevices;
        trace.deviceDrops += stats.deviceDrops;
        trace.deviceSlowFaults += stats.deviceSlowFaults;
        trace.stragglersDetected += stats.stragglersDetected;
        trace.stragglerResharded += stats.stragglerResharded;
    }
    trace.firedDeviceDrop = fault::Injector::faultsInjected(
        fault::FaultKind::DeviceDrop);
    trace.firedDeviceSlow = fault::Injector::faultsInjected(
        fault::FaultKind::DeviceSlow);
    trace.firedTransferFail = fault::Injector::faultsInjected(
        fault::FaultKind::TransferFail);
    trace.firedTransferFlaky = fault::Injector::faultsInjected(
        fault::FaultKind::TransferFlaky);
    trace.paramHash = hashParameters(model);
    fault::Injector::clear();
    return trace;
}

void
ChaosHarness::checkSingle(const ChaosSchedule& schedule,
                          std::vector<std::string>& failures)
{
    const SingleTrace first = runSingle(&schedule.plan);
    const SingleTrace second = runSingle(&schedule.plan);

    auto expect = [&failures](bool ok, const std::string& what) {
        if (!ok)
            failures.push_back(what);
    };

    // Determinism: a schedule is a pure function of its seed, so two
    // executions must agree bit for bit on everything observable.
    expect(first.losses == second.losses &&
               first.skipped == second.skipped &&
               first.paramHash == second.paramHash,
           "replaying the schedule diverged (losses/params)");
    expect(first.replans == second.replans &&
               first.oomRetries == second.oomRetries &&
               first.transferRetries == second.transferRetries &&
               first.batchesSkipped == second.batchesSkipped &&
               first.faultsInjected == second.faultsInjected,
           "replaying the schedule diverged (recovery counters)");
    expect(first.transferSeconds == second.transferSeconds &&
               first.backoffSeconds == second.backoffSeconds,
           "replaying the schedule diverged (simulated link time)");

    for (size_t i = 0; i < first.losses.size(); ++i)
        expect(first.skipped[i] != 0 ||
                   std::isfinite(first.losses[i]),
               "completed epoch " + std::to_string(i + 1) +
                   " has a non-finite loss");

    // Counter consistency.
    expect(first.transferRetries ==
               first.firedTransferFail + first.firedTransferFlaky,
           "recovery report's transfer retries disagree with the "
           "injector's fired transfer faults");
    expect(first.replans <= first.oomRetries,
           "more re-plans than aborted attempts");
    expect(first.batchesSkipped <= config_.epochs,
           "more skipped epochs than epochs run");
    expect(first.backoffSeconds <= first.transferSeconds,
           "retry backoff exceeds the link's total simulated time");

    if (attributionOnly(schedule.plan,
                        ChaosTarget::SingleDevice)) {
        expect(first.losses == singleBaseline_.losses &&
                   first.paramHash == singleBaseline_.paramHash,
               "attribution-only faults changed losses/parameters");
        expect(first.replans == 0 && first.batchesSkipped == 0,
               "attribution-only faults triggered recovery control "
               "flow");
    }
}

void
ChaosHarness::checkMulti(const ChaosSchedule& schedule,
                         std::vector<std::string>& failures)
{
    const MultiTrace first = runMulti(&schedule.plan);
    const MultiTrace second = runMulti(&schedule.plan);

    auto expect = [&failures](bool ok, const std::string& what) {
        if (!ok)
            failures.push_back(what);
    };

    expect(first.losses == second.losses &&
               first.paramHash == second.paramHash,
           "replaying the schedule diverged (losses/params)");
    expect(first.liveDevices == second.liveDevices &&
               first.deviceDrops == second.deviceDrops &&
               first.deviceSlowFaults == second.deviceSlowFaults &&
               first.stragglersDetected ==
                   second.stragglersDetected &&
               first.stragglerResharded == second.stragglerResharded,
           "replaying the schedule diverged (engine fault stats)");

    for (size_t i = 0; i < first.losses.size(); ++i)
        expect(std::isfinite(first.losses[i]),
               "epoch " + std::to_string(i + 1) +
                   " has a non-finite loss");

    // Every fault the engine consumes is attribution-only, so this
    // holds unconditionally: losses and parameters match the
    // fault-free baseline whatever the schedule did.
    expect(first.losses == multiBaseline_.losses &&
               first.paramHash == multiBaseline_.paramHash,
           "multi-device faults changed losses/parameters");

    expect(first.liveDevices >= 1, "the engine lost every device");
    expect(first.liveDevices ==
               config_.numDevices - int32_t(first.deviceDrops),
           "live-device count inconsistent with consumed drops");
    expect(first.deviceDrops <= first.firedDeviceDrop,
           "more devices killed than device-drop faults fired");
    expect(first.deviceSlowFaults == first.firedDeviceSlow,
           "device-slow stats disagree with the injector");
    expect(first.stragglerResharded == 0 ||
               first.stragglersDetected > 0,
           "micro-batches re-sharded without a straggler detection");
}

ChaosResult
ChaosHarness::run(uint64_t seed)
{
    return run(generateSchedule(seed, config_));
}

ChaosResult
ChaosHarness::run(const ChaosSchedule& schedule)
{
    ChaosResult result;
    result.seed = schedule.seed;
    result.target = schedule.target;
    result.spec = schedule.spec;

    std::vector<std::string> failures;
    if (schedule.target == ChaosTarget::SingleDevice)
        checkSingle(schedule, failures);
    else
        checkMulti(schedule, failures);

    if (!failures.empty()) {
        result.ok = false;
        std::string message =
            "chaos schedule violated invariants (seed=" +
            std::to_string(schedule.seed) + ", target=" +
            chaosTargetName(schedule.target) + "):\n";
        for (const std::string& failure : failures)
            message += "  - " + failure + "\n";
        message += "  replay: --faults \"" + schedule.spec +
                   "\" --fault-seed " +
                   std::to_string(schedule.seed);
        result.failure = message;
    }
    return result;
}

} // namespace betty::robustness
