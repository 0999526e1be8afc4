#include "train/multi_device.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

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

/** The initial plan's load cap, as a multiple of the mean load. */
constexpr double kBalanceSlack = 1.2;

/** A re-shard's load cap: none. */
constexpr double kNoCap = std::numeric_limits<double>::infinity();

/** The sharder's per-batch cost: feature bytes + structure bytes —
 * the dominant memory and transfer load of the batch. */
int64_t
shardCost(const MultiLayerBatch& batch, int64_t feature_dim)
{
    return int64_t(batch.inputNodes().size()) * feature_dim *
               int64_t(sizeof(float)) +
           batch.structureBytes();
}

/** One past the largest input node id of @p micros. */
int64_t
inputIdBound(const std::vector<MultiLayerBatch>& micros)
{
    int64_t bound = 0;
    for (const MultiLayerBatch& batch : micros)
        for (int64_t node : batch.inputNodes())
            bound = std::max(bound, node + 1);
    return bound;
}

/**
 * The one placement routine, behind the initial plan and every
 * re-shard. Puts micros[i] for each i of @p order, in that order, on
 * the candidate device whose working set it overlaps most in input
 * nodes; ties go to the least load (shardCost), then to the earlier
 * candidate, which is the lowest id since every caller lists them in
 * ascending order. Every device starts with the working set and load
 * of the micro-batches @p owner already gives it. Only candidates
 * whose load stays within @p cap are eligible; a micro-batch none can
 * take goes to the least-loaded candidate. @p sets holds one marker
 * array per device over node ids [0, @p num_ids), reused across
 * calls.
 */
void
place(const std::vector<MultiLayerBatch>& micros,
      const std::vector<size_t>& order,
      const std::vector<int32_t>& candidates, double cap,
      int64_t feature_dim, int64_t num_ids, std::vector<Markers>& sets,
      std::vector<int32_t>& owner)
{
    std::vector<int64_t> load(sets.size(), 0);
    for (Markers& set : sets)
        set.reset(num_ids);
    auto assign = [&](size_t i, int32_t d) {
        owner[i] = d;
        load[size_t(d)] += shardCost(micros[i], feature_dim);
        for (int64_t node : micros[i].inputNodes())
            sets[size_t(d)].mark(node, int64_t(i));
    };
    for (size_t i = 0; i < micros.size(); ++i)
        if (owner[i] >= 0)
            assign(i, owner[i]);

    for (size_t i : order) {
        // Overlap-first: placing a batch beside the batches it shares
        // input vertices with is what keeps the halo (and with it the
        // duplicated feature transfers) small.
        const int64_t cost = shardCost(micros[i], feature_dim);
        int32_t best = -1;
        int64_t best_overlap = -1;
        for (int32_t d : candidates) {
            if (double(load[size_t(d)] + cost) > cap)
                continue;
            int64_t overlap = 0;
            for (int64_t node : micros[i].inputNodes())
                overlap += sets[size_t(d)].seen(node) ? 1 : 0;
            if (overlap > best_overlap ||
                (overlap == best_overlap &&
                 load[size_t(d)] < load[size_t(best)]))
            {
                best = d;
                best_overlap = overlap;
            }
        }
        // Nothing fits under the cap (one huge batch): the least-loaded
        // candidate bounds the load at total/devices + the largest
        // single cost.
        if (best < 0)
            for (int32_t d : candidates)
                if (best < 0 || load[size_t(d)] < load[size_t(best)])
                    best = d;
        assign(i, best);
    }
}

/**
 * The initial plan: every active micro-batch in LPT order (cost
 * descending, index ascending — a total order, so the plan is a pure
 * function of the batches) placed on @p devices under a cap of
 * kBalanceSlack x the mean load. @p owner must hold no placement yet.
 */
void
planShards(const std::vector<MultiLayerBatch>& micros,
           const std::vector<int32_t>& devices, int64_t feature_dim,
           int64_t num_ids, std::vector<Markers>& sets,
           std::vector<int32_t>& owner)
{
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
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (cost[a] != cost[b])
            return cost[a] > cost[b];
        return a < b;
    });
    place(micros, order, devices,
          kBalanceSlack * double(total_cost) / double(devices.size()),
          feature_dim, num_ids, sets, owner);
}

/**
 * shardDuplicationFactor over caller-kept marker arrays: @p sets, one
 * per device, and @p any, across devices, over node ids
 * [0, @p num_ids).
 */
double
duplicationFactor(const std::vector<MultiLayerBatch>& micros,
                  const std::vector<int32_t>& assignment,
                  int64_t num_ids, std::vector<Markers>& sets,
                  Markers& any)
{
    BETTY_ASSERT(assignment.size() == micros.size(),
                 "assignment does not match the micro-batches");
    for (Markers& set : sets)
        set.reset(num_ids);
    any.reset(num_ids);
    int64_t replicated = 0;
    int64_t unique = 0;
    for (size_t i = 0; i < micros.size(); ++i) {
        const int32_t d = assignment[i];
        if (d < 0)
            continue;
        Markers& set = sets[size_t(d)];
        for (int64_t node : micros[i].inputNodes()) {
            if (set.seen(node))
                continue;
            set.mark(node, int64_t(i));
            ++replicated;
            if (!any.seen(node)) {
                any.mark(node, d);
                ++unique;
            }
        }
    }
    return unique > 0 ? double(replicated) / double(unique) : 1.0;
}

} // namespace

std::vector<int32_t>
shardVertexCut(const std::vector<MultiLayerBatch>& micros,
               int32_t num_devices, int64_t feature_dim)
{
    BETTY_ASSERT(num_devices >= 1, "need at least one device");
    std::vector<int32_t> devices(size_t(num_devices), 0);
    std::iota(devices.begin(), devices.end(), 0);
    std::vector<Markers> sets(devices.size());
    std::vector<int32_t> assignment(micros.size(), -1);
    planShards(micros, devices, feature_dim, inputIdBound(micros), sets,
               assignment);
    return assignment;
}

double
shardDuplicationFactor(const std::vector<MultiLayerBatch>& micros,
                       const std::vector<int32_t>& assignment)
{
    int32_t devices = 0;
    for (int32_t d : assignment)
        devices = std::max(devices, d + 1);
    std::vector<Markers> sets(static_cast<size_t>(devices));
    Markers any;
    return duplicationFactor(micros, assignment, inputIdBound(micros),
                             sets, any);
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
    trainer_.setArbiter(this);
    inputSets_.resize(size_t(config_.numDevices));
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
    while (const auto drop =
               fault::Injector::take(fault::FaultKind::DeviceDrop)) {
        const int64_t requested = int64_t(drop->value);
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
        // Re-shard the victim's pending micro-batches over the
        // survivors. Already-executed batches keep their attribution
        // — their gradients are valid contributions, charged where
        // they actually ran.
        reshard(first_pending, victim, liveDeviceIds(), "multi/reshard");
    }
}

int64_t
MultiDeviceEngine::reshard(size_t first_pending, int32_t victim,
                           const std::vector<int32_t>& targets,
                           const char* reason)
{
    std::vector<int32_t>& owner = step_.owner;
    std::vector<size_t> pending;
    for (size_t i = first_pending; i < owner.size(); ++i)
        if (owner[i] == victim)
            pending.push_back(i);
    place(*step_.micros, pending, targets, kNoCap, dataset_.featureDim(),
          dataset_.numNodes(), inputSets_, owner);
    for (size_t i : pending)
        obs::FlightRecorder::record(obs::FrCategory::Recovery, reason,
                                    int64_t(i), owner[i]);
    return int64_t(pending.size());
}

void
MultiDeviceEngine::healExpiredSlowdowns(int64_t epoch)
{
    for (size_t d = 0; d < devices_.size(); ++d)
        if (devices_[d]->link.healBefore(epoch))
            obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                        "multi/device-heal", int64_t(d),
                                        epoch);
}

void
MultiDeviceEngine::consumeDeviceSlow()
{
    const int64_t epoch = step_.epoch;
    while (const auto slow =
               fault::Injector::take(fault::FaultKind::DeviceSlow)) {
        const int64_t requested = slow->device;
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
        devices_[size_t(victim)]->link.degrade(
            slow->value, epoch, slow->durationEpochs);
        ++step_.stats.deviceSlowFaults;
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "multi/device-slow", victim,
                                    int64_t(slow->value * 1000.0));
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
    stats.deviceTransferSeconds.assign(num_devices, 0.0);
    stats.deviceTransferBytes.assign(num_devices, 0);

    // Epoch-scoped device drops fire BEFORE sharding: the epoch
    // shards directly over the survivors, which is exactly "running
    // on N-1 devices from the start" for this epoch. Epoch-scoped
    // slowdowns also land here, before any transfer is priced.
    if (fault_clock) {
        consumeDeviceDrops(0);
        consumeDeviceSlow();
    }

    planShards(micros, liveDeviceIds(), dataset_.featureDim(),
               dataset_.numNodes(), inputSets_, step_.owner);

    // Parameter gradients outlive the per-device memory models'
    // scopes; allocate them under the CALLER's observer (where the
    // parameters themselves live) so no storage ever reports a free
    // to the wrong device.
    for (const auto& p : model_.parameters())
        p->ensureGrad();

    std::vector<TrainDevice> set;
    set.reserve(num_devices);
    for (size_t d = 0; d < num_devices; ++d) {
        DeviceState& state = *devices_[d];
        state.memory.resetPeak();
        state.link.reset();
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

    // Deterministic ring all-reduce of the accumulated gradients
    // across the live devices, then one optimizer step. The cost is
    // purely analytic — no numeric reordering — which is what keeps
    // N-device parameters bit-identical to N=1.
    const std::vector<int32_t> live_after = liveDeviceIds();
    stats.liveDevices = int32_t(live_after.size());
    if (live_after.size() > 1) {
        int64_t grad_bytes = 0;
        for (const auto& p : model_.parameters())
            grad_bytes += p->value.bytes();
        // A ring is bounded by its slowest lane: the slowest live host
        // link at this moment prices the whole collective.
        double slowdown = 1.0;
        for (int32_t d : live_after)
            slowdown =
                std::max(slowdown, devices_[size_t(d)]->link.slowdown());
        BETTY_TRACE_SPAN_CAT("multi/allreduce", "transfer");
        stats.allreduceSeconds = interconnect_.chargeAllReduce(
            grad_bytes, int32_t(live_after.size()), slowdown);
        obs::FlightRecorder::record(obs::FrCategory::Mark,
                                    "multi/allreduce", grad_bytes,
                                    int64_t(live_after.size()));
    }
    double optimizer_seconds = 0.0;
    {
        BETTY_TRACE_SPAN_CAT("train/step", "compute");
        Timer timer;
        optimizer_.step();
        optimizer_seconds = timer.seconds();
    }

    double max_busy = 0.0;
    for (size_t d = 0; d < num_devices; ++d) {
        DeviceState& state = *devices_[d];
        stats.deviceTransferSeconds[d] = state.link.seconds();
        stats.deviceTransferBytes[d] = state.link.totalBytes();
        stats.deviceSeconds[d] =
            set[d].computeSeconds + state.link.seconds();
        stats.maxDevicePeakBytes = std::max(stats.maxDevicePeakBytes,
                                            state.memory.peakBytes());
        stats.oom = stats.oom || state.memory.oomOccurred();
        max_busy = std::max(max_busy, stats.deviceSeconds[d]);
        state.link.reset();
    }
    stats.duplicationFactor =
        duplicationFactor(micros, step_.owner, dataset_.numNodes(),
                          inputSets_, anyInput_);
    stats.epochSeconds =
        max_busy + (stats.allreduceSeconds + optimizer_seconds);

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
        int64_t degraded = 0;
        for (int32_t d : live_after)
            degraded += devices_[size_t(d)]->link.slowdown() > 1.0 ? 1 : 0;
        obs::Metrics::gauge("multi.degraded").set(degraded);
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
                .set(devices_[d]->memory.peakBytes());
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
    // Detection uses observed timings only — never the links'
    // configured slowdown — so it also catches degradations nobody
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
            reshard(index + 1, device, healthy, "multi/straggler-reshard");
    }
    return true;
}

} // namespace betty
