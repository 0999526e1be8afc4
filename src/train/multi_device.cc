#include "train/multi_device.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace betty {

namespace {

/** EWMA smoothing of the straggler detector (1 = latest sample). */
constexpr double kStragglerEwmaAlpha = 0.5;

/** Samples a device needs before it can be flagged or serve as the
 * healthy reference. */
constexpr int32_t kMinStragglerSamples = 1;

/** The sharder's per-batch cost: feature bytes + structure bytes —
 * the dominant memory and transfer load of the batch. */
int64_t
shardCost(const MultiLayerBatch& batch, int64_t feature_dim)
{
    return int64_t(batch.inputNodes().size()) * feature_dim *
               int64_t(sizeof(float)) +
           batch.structureBytes();
}

} // namespace

ShardPlan
shardVertexCut(const std::vector<MultiLayerBatch>& micros,
               int32_t num_devices, int64_t feature_dim,
               double balance_slack)
{
    BETTY_ASSERT(num_devices >= 1, "need at least one device");
    BETTY_ASSERT(balance_slack >= 1.0, "balance slack must be >= 1");
    ShardPlan plan;
    plan.assignment.assign(micros.size(), -1);
    plan.deviceCostBytes.assign(size_t(num_devices), 0);
    plan.deviceUniqueInputs.assign(size_t(num_devices), 0);

    std::vector<int64_t> cost(micros.size(), 0);
    std::vector<size_t> order;
    order.reserve(micros.size());
    int64_t total_cost = 0;
    for (size_t i = 0; i < micros.size(); ++i) {
        if (micros[i].outputNodes().empty())
            continue;
        cost[i] = shardCost(micros[i], feature_dim);
        total_cost += cost[i];
        order.push_back(i);
    }
    // LPT order with the index as tie-breaker: a total order, so the
    // plan is a pure function of the batches — never of thread count
    // or iteration timing.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (cost[a] != cost[b])
            return cost[a] > cost[b];
        return a < b;
    });

    const double cap =
        balance_slack * double(total_cost) / double(num_devices);
    std::vector<std::unordered_set<int64_t>> inputs;
    inputs.resize(size_t(num_devices));
    std::unordered_set<int64_t> global;
    for (size_t i : order) {
        // Overlap-first among the devices still under the balance
        // cap: placing a batch beside the batches it shares input
        // vertices with is what keeps the halo (and with it the
        // duplicated feature transfers) small.
        int32_t best = -1;
        int64_t best_overlap = -1;
        for (int32_t d = 0; d < num_devices; ++d) {
            if (double(plan.deviceCostBytes[size_t(d)] + cost[i]) >
                cap)
                continue;
            int64_t overlap = 0;
            const auto& set = inputs[size_t(d)];
            for (int64_t node : micros[i].inputNodes())
                overlap += set.count(node) ? 1 : 0;
            if (overlap > best_overlap ||
                (overlap == best_overlap && best >= 0 &&
                 plan.deviceCostBytes[size_t(d)] <
                     plan.deviceCostBytes[size_t(best)]))
            {
                best = d;
                best_overlap = overlap;
            }
        }
        if (best < 0) {
            // Nothing fits under the cap (one huge batch): fall back
            // to the least-loaded device, which bounds the load at
            // total/devices + the largest single cost.
            for (int32_t d = 0; d < num_devices; ++d)
                if (best < 0 ||
                    plan.deviceCostBytes[size_t(d)] <
                        plan.deviceCostBytes[size_t(best)])
                    best = d;
        }
        plan.assignment[i] = best;
        plan.deviceCostBytes[size_t(best)] += cost[i];
        for (int64_t node : micros[i].inputNodes()) {
            inputs[size_t(best)].insert(node);
            global.insert(node);
        }
    }

    int64_t replicated = 0;
    for (int32_t d = 0; d < num_devices; ++d) {
        plan.deviceUniqueInputs[size_t(d)] =
            int64_t(inputs[size_t(d)].size());
        replicated += plan.deviceUniqueInputs[size_t(d)];
    }
    plan.globalUniqueInputs = int64_t(global.size());
    plan.duplicationFactor =
        plan.globalUniqueInputs > 0
            ? double(replicated) / double(plan.globalUniqueInputs)
            : 1.0;
    return plan;
}

double
shardDuplicationFactor(const std::vector<MultiLayerBatch>& micros,
                       const std::vector<int32_t>& assignment)
{
    BETTY_ASSERT(assignment.size() == micros.size(),
                 "assignment does not match the micro-batches");
    std::unordered_map<int32_t, std::unordered_set<int64_t>> inputs;
    std::unordered_set<int64_t> global;
    for (size_t i = 0; i < micros.size(); ++i) {
        if (assignment[i] < 0)
            continue;
        auto& set = inputs[assignment[i]];
        for (int64_t node : micros[i].inputNodes()) {
            set.insert(node);
            global.insert(node);
        }
    }
    if (global.empty())
        return 1.0;
    int64_t replicated = 0;
    for (const auto& entry : inputs)
        replicated += int64_t(entry.second.size());
    return double(replicated) / double(global.size());
}

std::vector<int32_t>
roundRobinAssignment(const std::vector<MultiLayerBatch>& micros,
                     int32_t num_devices)
{
    BETTY_ASSERT(num_devices >= 1, "need at least one device");
    std::vector<int32_t> assignment(micros.size(), -1);
    int32_t next = 0;
    for (size_t i = 0; i < micros.size(); ++i) {
        if (micros[i].outputNodes().empty())
            continue;
        assignment[i] = next;
        next = (next + 1) % num_devices;
    }
    return assignment;
}

MultiDeviceEngine::MultiDeviceEngine(const Dataset& dataset,
                                     GnnModel& model,
                                     Optimizer& optimizer,
                                     MultiDeviceConfig config)
    : dataset_(dataset), model_(model), optimizer_(optimizer),
      config_(std::move(config)), trainer_(dataset, model, optimizer),
      interconnect_(config_.interconnect)
{
    BETTY_ASSERT(config_.numDevices >= 1, "need at least one device");
    trainer_.setPipeline(config_.pipeline);
    trainer_.setArbiter(this);
    const int64_t row_bytes =
        dataset_.featureDim() * int64_t(sizeof(float));
    devices_.reserve(size_t(config_.numDevices));
    for (int32_t d = 0; d < config_.numDevices; ++d) {
        auto state =
            std::make_unique<DeviceState>(config_.deviceCapacityBytes);
        if (config_.cacheBytesPerDevice > 0)
            state->cache = std::make_unique<FeatureCache>(
                &state->memory, config_.cacheBytesPerDevice,
                row_bytes, config_.cachePolicy);
        devices_.push_back(std::move(state));
    }
}

int32_t
MultiDeviceEngine::liveDevices() const
{
    int32_t live = 0;
    for (const auto& device : devices_)
        live += device->dead ? 0 : 1;
    return live;
}

std::vector<int32_t>
MultiDeviceEngine::liveDeviceIds() const
{
    std::vector<int32_t> live;
    live.reserve(devices_.size());
    for (size_t d = 0; d < devices_.size(); ++d)
        if (!devices_[d]->dead)
            live.push_back(int32_t(d));
    return live;
}

void
MultiDeviceEngine::consumeDeviceDrops(size_t first_pending)
{
    int64_t requested = -1;
    while (fault::Injector::takeDeviceDrop(&requested)) {
        const std::vector<int32_t> live = liveDeviceIds();
        if (live.size() <= 1) {
            warnOnce("device-drop fault ignored: only one live "
                     "device remains");
            continue;
        }
        int32_t victim = -1;
        if (requested >= 0) {
            if (requested >= int64_t(devices_.size()) ||
                devices_[size_t(requested)]->dead) {
                warnOnce("device-drop fault names device ", requested,
                         " which is not a live device; ignored");
                continue;
            }
            victim = int32_t(requested);
        } else {
            victim = live.back();
        }
        DeviceState& lost = *devices_[size_t(victim)];
        lost.dead = true;
        if (lost.cache)
            lost.cache->releaseAll();
        ++step_.stats.deviceDrops;
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "multi/device-drop", victim,
                                    int64_t(first_pending));
        // A dead device leaves the ring; if it was the degraded lane
        // the collective speeds back up.
        refreshInterconnectSlowdown();

        // Re-shard the victim's pending micro-batches over the
        // survivors. Already-executed batches keep their attribution
        // — their gradients are valid contributions, charged where
        // they actually ran.
        reshardPending(first_pending, victim, liveDeviceIds(),
                       "multi/reshard");
    }
}

int64_t
MultiDeviceEngine::reshardPending(size_t first_pending, int32_t victim,
                                  const std::vector<int32_t>& targets,
                                  const char* reason)
{
    // Same overlap-first greedy as shardVertexCut, seeded with the
    // targets' current working sets (inputs of everything they own,
    // executed or pending).
    const std::vector<MultiLayerBatch>& micros = *step_.micros;
    std::vector<int32_t>& owner = step_.owner;
    const int64_t dim = dataset_.featureDim();
    std::unordered_map<int32_t, std::unordered_set<int64_t>> inputs;
    std::unordered_map<int32_t, int64_t> load;
    for (int32_t d : targets) {
        inputs[d];
        load[d] = 0;
    }
    for (size_t i = 0; i < micros.size(); ++i) {
        const int32_t d = owner[i];
        if (d < 0 || !inputs.count(d))
            continue;
        for (int64_t node : micros[i].inputNodes())
            inputs[d].insert(node);
        load[d] += shardCost(micros[i], dim);
    }
    int64_t moved = 0;
    for (size_t index = first_pending; index < micros.size(); ++index) {
        if (owner[index] != victim)
            continue;
        int32_t best = -1;
        int64_t best_overlap = -1;
        for (int32_t d : targets) {
            int64_t overlap = 0;
            const auto& set = inputs[d];
            for (int64_t node : micros[index].inputNodes())
                overlap += set.count(node) ? 1 : 0;
            if (overlap > best_overlap ||
                (overlap == best_overlap && best >= 0 &&
                 load[d] < load[best]))
            {
                best = d;
                best_overlap = overlap;
            }
        }
        owner[index] = best;
        ++moved;
        for (int64_t node : micros[index].inputNodes())
            inputs[best].insert(node);
        load[best] += shardCost(micros[index], dim);
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    reason, int64_t(index), best);
    }
    return moved;
}

void
MultiDeviceEngine::refreshInterconnectSlowdown()
{
    double worst = 1.0;
    for (const auto& device : devices_)
        if (!device->dead && device->degraded)
            worst = std::max(worst, device->slowFactor);
    interconnect_.setSlowdown(worst);
}

void
MultiDeviceEngine::healExpiredSlowdowns(int64_t epoch)
{
    bool changed = false;
    for (size_t d = 0; d < devices_.size(); ++d) {
        DeviceState& state = *devices_[d];
        if (!state.degraded || state.slowUntilEpoch < 0 ||
            epoch <= state.slowUntilEpoch)
            continue;
        state.degraded = false;
        state.slowFactor = 1.0;
        state.slowUntilEpoch = -1;
        state.link.setSlowdown(1.0);
        changed = true;
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "multi/device-heal", int64_t(d),
                                    epoch);
    }
    if (changed)
        refreshInterconnectSlowdown();
}

void
MultiDeviceEngine::consumeDeviceSlow()
{
    const int64_t epoch = step_.epoch;
    double factor = 1.0;
    int64_t requested = -1;
    int64_t duration = 0;
    while (fault::Injector::takeDeviceSlow(&factor, &requested,
                                           &duration)) {
        const std::vector<int32_t> live = liveDeviceIds();
        int32_t victim = -1;
        if (requested >= 0) {
            if (requested >= int64_t(devices_.size()) ||
                devices_[size_t(requested)]->dead) {
                // The event was consumed (and the injector charged
                // it), so it still counts toward the engine's fault
                // tally — the chaos tier cross-checks the two.
                warnOnce("device-slow fault names device ", requested,
                         " which is not a live device; ignored");
                ++step_.stats.deviceSlowFaults;
                obs::FlightRecorder::record(
                    obs::FrCategory::Recovery,
                    "multi/device-slow-ignored", requested, epoch);
                continue;
            }
            victim = int32_t(requested);
        } else {
            victim = live.back();
        }
        DeviceState& state = *devices_[size_t(victim)];
        state.degraded = true;
        state.slowFactor = std::max(state.slowFactor, factor);
        state.slowUntilEpoch =
            duration > 0 ? epoch + duration - 1 : -1;
        state.link.setSlowdown(state.slowFactor);
        refreshInterconnectSlowdown();
        ++step_.stats.deviceSlowFaults;
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "multi/device-slow", victim,
                                    int64_t(factor * 1000.0));
    }
}

MultiDeviceStats
MultiDeviceEngine::trainMicroBatches(
    const std::vector<MultiLayerBatch>& micro_batches)
{
    return run(micro_batches, /*fault_clock=*/false, /*epoch=*/0);
}

MultiDeviceStats
MultiDeviceEngine::trainEpoch(
    const std::vector<MultiLayerBatch>& micro_batches, int64_t epoch)
{
    fault::Injector::beginEpoch(epoch);
    // Slowdowns with a duration heal BEFORE this epoch's faults are
    // consumed — a duration=1 slowdown covers exactly one epoch.
    healExpiredSlowdowns(epoch);
    return run(micro_batches, /*fault_clock=*/true, epoch);
}

MultiDeviceStats
MultiDeviceEngine::run(const std::vector<MultiLayerBatch>& micros,
                       bool fault_clock, int64_t epoch)
{
    BETTY_TRACE_SPAN("multi/accumulation_step");
    const size_t num_devices = devices_.size();
    step_ = Step{};
    step_.micros = &micros;
    step_.owner.assign(micros.size(), -1);
    step_.faultClock = fault_clock;
    step_.epoch = epoch;
    MultiDeviceStats& stats = step_.stats;
    stats.batchesPerDevice.assign(num_devices, 0);
    stats.deviceSeconds.assign(num_devices, 0.0);
    stats.deviceComputeSeconds.assign(num_devices, 0.0);
    stats.deviceTransferSeconds.assign(num_devices, 0.0);
    stats.deviceTransferBytes.assign(num_devices, 0);
    stats.devicePeakBytes.assign(num_devices, 0);

    // Epoch-scoped device drops fire BEFORE sharding: the epoch
    // shards directly over the survivors, which is exactly "running
    // on N-1 devices from the start" for this epoch. Epoch-scoped
    // slowdowns also land here, before any transfer is priced.
    if (fault_clock) {
        consumeDeviceDrops(0);
        consumeDeviceSlow();
    }

    const std::vector<int32_t> live = liveDeviceIds();
    last_plan_ = shardVertexCut(micros, int32_t(live.size()),
                                dataset_.featureDim());
    for (size_t i = 0; i < micros.size(); ++i)
        if (last_plan_.assignment[i] >= 0)
            step_.owner[i] = live[size_t(last_plan_.assignment[i])];

    // Parameter gradients outlive the per-device memory models'
    // scopes; allocate them under the CALLER's observer (where the
    // parameters themselves live) so no storage ever reports a free
    // to the wrong device.
    for (const auto& p : model_.parameters())
        p->ensureGrad();

    std::vector<TrainDevice> set;
    set.reserve(num_devices);
    std::vector<FeatureCacheStats> cache_before(num_devices);
    for (size_t d = 0; d < num_devices; ++d) {
        DeviceState& state = *devices_[d];
        state.memory.resetPeak();
        state.link.reset();
        if (state.cache)
            cache_before[d] = state.cache->stats();
        set.push_back({&state.memory, &state.link, state.cache.get()});
    }

    // Straggler supervisor: judges SIMULATED link seconds —
    // deterministic, unlike wall-clock compute — and is only armed in
    // fault-injected epochs: in fault-free runs the engine must be
    // invisible (no attribution drift for the report gates).
    step_.supervise = fault_clock && config_.stragglerFactor > 0.0 &&
                      fault::Injector::active();
    step_.ewma.assign(num_devices, 0.0);
    step_.ewmaSamples.assign(num_devices, 0);
    step_.flagged.assign(num_devices, 0);

    // The shared loop computes every micro-batch on this thread in
    // canonical order and calls admit/review around each; between the
    // two, this scope charges the micro-batch's tensors to its device
    // (and leaving run() closes it whichever way the loop exits).
    std::optional<DeviceMemoryModel::Scope> device_scope;
    step_.deviceScope = &device_scope;
    const EpochStats accumulated =
        trainer_.accumulateMicroBatches(micros, set, step_.owner);
    stats.loss = accumulated.loss;
    stats.accuracy = accumulated.accuracy;
    stats.inputNodesProcessed = accumulated.inputNodesProcessed;
    stats.totalNodesProcessed = accumulated.totalNodesProcessed;

    // Deterministic ring all-reduce of the accumulated gradients
    // across the live devices, then one optimizer step. The cost is
    // purely analytic — no numeric reordering — which is what keeps
    // N-device parameters bit-identical to N=1.
    const std::vector<int32_t> live_after = liveDeviceIds();
    stats.liveDevices = int32_t(live_after.size());
    for (const auto& device : devices_)
        if (!device->dead && device->degraded)
            ++stats.degradedDevices;
    if (live_after.size() > 1) {
        int64_t grad_bytes = 0;
        for (const auto& p : model_.parameters())
            grad_bytes += p->value.bytes();
        BETTY_TRACE_SPAN_CAT("multi/allreduce", "transfer");
        stats.allreduceSeconds = interconnect_.chargeAllReduce(
            grad_bytes, int32_t(live_after.size()));
        obs::FlightRecorder::record(obs::FrCategory::Mark,
                                    "multi/allreduce", grad_bytes,
                                    int64_t(live_after.size()));
    }
    {
        BETTY_TRACE_SPAN_CAT("train/step", "compute");
        Timer timer;
        optimizer_.step();
        stats.allreduceSeconds += timer.seconds();
    }

    double max_busy = 0.0;
    for (size_t d = 0; d < num_devices; ++d) {
        DeviceState& state = *devices_[d];
        stats.deviceComputeSeconds[d] = set[d].computeSeconds;
        stats.deviceTransferSeconds[d] = state.link.seconds();
        stats.deviceTransferBytes[d] = state.link.totalBytes();
        stats.deviceSeconds[d] =
            stats.deviceComputeSeconds[d] + state.link.seconds();
        stats.devicePeakBytes[d] = state.memory.peakBytes();
        stats.maxDevicePeakBytes = std::max(stats.maxDevicePeakBytes,
                                            state.memory.peakBytes());
        stats.oom = stats.oom || state.memory.oomOccurred();
        max_busy = std::max(max_busy, stats.deviceSeconds[d]);
        if (state.cache) {
            const FeatureCacheStats now = state.cache->stats();
            stats.cacheHits += now.hits - cache_before[d].hits;
            stats.cacheMisses += now.misses - cache_before[d].misses;
            stats.cacheSavedBytes +=
                now.bytesSaved - cache_before[d].bytesSaved;
        }
        state.link.reset();
    }
    stats.duplicationFactor =
        shardDuplicationFactor(micros, step_.owner);
    stats.epochSeconds = max_busy + stats.allreduceSeconds;

    if (obs::Metrics::enabled()) {
        obs::Metrics::gauge("multi.devices")
            .set(int64_t(stats.liveDevices));
        obs::Metrics::gauge("multi.duplication_factor_x1000")
            .set(int64_t(stats.duplicationFactor * 1000.0));
        obs::Metrics::gauge("multi.allreduce_microseconds")
            .set(int64_t(stats.allreduceSeconds * 1e6));
        if (stats.deviceDrops > 0) {
            static obs::Counter& drop_counter =
                obs::Metrics::counter("multi.device_drops");
            drop_counter.add(stats.deviceDrops);
        }
        obs::Metrics::gauge("multi.degraded")
            .set(int64_t(stats.degradedDevices));
        if (stats.deviceSlowFaults > 0) {
            static obs::Counter& slow_counter =
                obs::Metrics::counter("multi.device_slow_faults");
            slow_counter.add(stats.deviceSlowFaults);
        }
        if (stats.stragglersDetected > 0) {
            static obs::Counter& detected =
                obs::Metrics::counter("multi.stragglers_detected");
            detected.add(stats.stragglersDetected);
        }
        if (stats.stragglerResharded > 0) {
            static obs::Counter& resharded =
                obs::Metrics::counter("multi.straggler_reshards");
            resharded.add(stats.stragglerResharded);
        }
        for (size_t d = 0; d < num_devices; ++d) {
            const std::string prefix =
                "multi.device" + std::to_string(d);
            obs::Metrics::gauge(prefix + ".transfer_bytes")
                .set(stats.deviceTransferBytes[d]);
            obs::Metrics::gauge(prefix + ".peak_bytes")
                .set(stats.devicePeakBytes[d]);
        }
    }
    return std::move(stats);
}

bool
MultiDeviceEngine::admit(size_t index, const MultiLayerBatch&)
{
    if (step_.faultClock) {
        fault::Injector::beginMicroBatch(int64_t(index));
        // A mid-epoch drop re-shards this and all later pending
        // batches; a gather already under way for the dead device
        // stays valid (host staging), only the charges move.
        consumeDeviceDrops(index);
        consumeDeviceSlow();
    }
    DeviceState& state = *devices_[size_t(step_.owner[index])];
    step_.deviceScope->emplace(state.memory);
    step_.linkBefore = state.link.seconds();
    return true;
}

bool
MultiDeviceEngine::review(size_t index, const MultiLayerBatch&)
{
    step_.deviceScope->reset();
    const int32_t device = step_.owner[index];
    const size_t d = size_t(device);
    ++step_.stats.batchesPerDevice[d];
    if (!step_.supervise)
        return true;
    // Straggler supervisor: fold this micro-batch's simulated link
    // seconds (transfer + failed attempts + backoff) into the device's
    // EWMA and compare against the fastest healthy reference.
    // Detection uses observed timings only — never the ground-truth
    // `degraded` flag — so it also catches degradations nobody
    // scheduled.
    const double mb_link_seconds =
        devices_[d]->link.seconds() - step_.linkBefore;
    std::vector<double>& ewma = step_.ewma;
    std::vector<int32_t>& samples = step_.ewmaSamples;
    ++samples[d];
    ewma[d] = samples[d] == 1
                  ? mb_link_seconds
                  : kStragglerEwmaAlpha * mb_link_seconds +
                        (1.0 - kStragglerEwmaAlpha) * ewma[d];
    if (step_.flagged[d] || samples[d] < kMinStragglerSamples)
        return true;
    double fastest = -1.0;
    std::vector<int32_t> healthy;
    for (int32_t other : liveDeviceIds()) {
        if (other == device || step_.flagged[size_t(other)])
            continue;
        healthy.push_back(other);
        if (samples[size_t(other)] >= kMinStragglerSamples &&
            (fastest < 0.0 || ewma[size_t(other)] < fastest))
            fastest = ewma[size_t(other)];
    }
    if (fastest > 0.0 && ewma[d] > config_.stragglerFactor * fastest &&
        !healthy.empty())
    {
        BETTY_TRACE_SPAN_CAT("multi/straggler_reshard", "stall");
        step_.flagged[d] = 1;
        ++step_.stats.stragglersDetected;
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "multi/straggler", device,
                                    int64_t(index));
        // Graceful degradation: pending batches drain toward healthy
        // devices; the straggler keeps what it already ran and stays
        // in the ring.
        step_.stats.stragglerResharded +=
            reshardPending(index + 1, device, healthy,
                           "multi/straggler-reshard");
    }
    return true;
}

} // namespace betty
