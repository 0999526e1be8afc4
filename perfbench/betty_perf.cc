/**
 * @file
 * The Betty training benchmark: a sample -> plan -> train step loop
 * on three fixed workloads, driven only through the library's public
 * API (see perfbench/README.md for the workloads and the metric map).
 *
 * Usage:
 *   betty_perf --workload NAME --seed N --seconds S --trace 0|1
 *              [--max-steps N]
 *
 * A step samples the next B seeds of a seeded permutation of the
 * training nodes (NeighborSampler::sample), sizes and partitions the
 * batch under the workload's fixed device budget (Betty::plan, the
 * paper's K -> K+1 memory-aware loop), and trains one gradient-
 * accumulation step over the micro-batches (Trainer::trainMicroBatches,
 * or MultiDeviceEngine::trainMicroBatches on the 4-device workload).
 *
 * --trace 0 runs the workload with obs::Trace and obs::Metrics off and
 * prints the end-to-end metrics. --trace 1 also builds a second
 * session of the same seed whose steps run with tracing and metrics
 * on, interleaved with the untraced ones, and prints the per-layer
 * metrics derived from the spans and counters the library already
 * emits plus the benchmark's own spans around the three calls. Both
 * modes end with one JSON object on the last line of standard output:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 * A run does a fixed number of steps: --seconds times the workload's
 * nominal step rate, but at least 100 so that 10 steps lie beyond the
 * p90. Every run of a seed therefore does the same work. --trace 1
 * splits those steps evenly between the untraced and traced sessions.
 * --max-steps caps the count (the smoke test uses this).
 */
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/betty.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/env_config.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

extern char** environ;

namespace {

using namespace betty;
using Clock = std::chrono::steady_clock;

constexpr int32_t kPoolLanes = 4;
/** Set-up repeats per untraced run: at least the minimum, more while
 * their total stays under the target, so short set-ups still report a
 * steady median. */
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 9;
constexpr double kSetupTargetSeconds = 1.5;
constexpr int kWarmupSteps = 2;
constexpr int64_t kMinSteps = 100;
constexpr double kMiB = 1024.0 * 1024.0;
/**
 * The simulated device holds this much more than the budget the
 * planner sizes micro-batches for. The estimator under-predicts the
 * measured peak by up to about 0.11% on these workloads, so without
 * headroom a micro-batch planned right at the budget would count as
 * an over-budget step; beyond 1% it still does.
 */
constexpr double kDeviceHeadroom = 1.01;

/** One benchmark workload: dataset, model shape, batch and budget. */
struct Workload
{
    const char* name;
    const char* dataset;
    int64_t layers;
    int64_t hidden;
    std::vector<int64_t> fanouts;
    int64_t batchSize;
    /** Planner budget per device, MiB. Fixed once; never derived
     * from the estimator at run time. */
    double budgetMib;
    int32_t devices;
    /** Per-device feature-cache reservation, MiB (0 = no cache). */
    double cacheMib;
    /** Steps per second of --seconds; sets the run's step count. */
    double stepsPerSecond;
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> table = {
        // The paper's operating point: K near 14 and the most input
        // redundancy, so the planner is about half of every step.
        {"products_tight", "products_like", 3, 64, {5, 5, 5}, 512, 7.0, 1,
         0.0, 3.4},
        // Compute-bound on the 1433-wide layer-1 GEMM and gathers at K
        // near 3: kernel changes show here, planner changes should not.
        {"cora_wide", "cora_like", 2, 64, {10, 10}, 128, 16.0, 1, 0.0,
         10.0},
        // The only workload on the multi-device engine, the feature
        // cache, the sharder and the ring all-reduce (K near 11).
        {"reddit_4dev_cache", "reddit_like", 2, 64, {10, 10}, 256, 14.5,
         4, 6.0, 6.7},
    };
    return table;
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    int64_t maxSteps = 0;
};

[[noreturn]] void
usage(const std::string& message)
{
    std::fprintf(stderr,
                 "betty_perf: %s\nusage: betty_perf --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--max-steps N]\n",
                 message.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        int64_t number = 0;
        double real = 0.0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!envcfg::parseInt(value, &number) || number < 0)
                usage("--seed must be a non-negative integer");
            args.seed = uint64_t(number);
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!envcfg::parseDouble(value, &real) || real <= 0.0)
                usage("--seconds must be a positive number");
            args.seconds = real;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            args.trace = value == "1" ? 1 : 0;
        } else if (flag == "--max-steps") {
            if (!envcfg::parseInt(value, &number) || number < 1)
                usage("--max-steps must be a positive integer");
            args.maxSteps = number;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
        args.trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    return args;
}

/** A workload is defined by its code alone: refuse BETTY_* knobs. */
void
refuseInheritedKnobs()
{
    for (char** entry = environ; entry && *entry; ++entry) {
        if (std::strncmp(*entry, "BETTY_", 6) == 0) {
            const char* eq = std::strchr(*entry, '=');
            const std::string name =
                eq ? std::string(*entry, size_t(eq - *entry))
                   : std::string(*entry);
            std::fprintf(stderr,
                         "betty_perf: refusing to run with %s set; the "
                         "benchmark's workloads take no BETTY_* "
                         "variables\n",
                         name.c_str());
            std::exit(2);
        }
    }
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Seeds of the run's independent random streams. */
uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    return Rng::streamKey(seed, 0xbe77, stream);
}

/** Everything a run builds before its first step. */
struct Session
{
    const Workload& workload;
    Dataset dataset;
    /** Single-device path: the simulated device. It is installed as
     * the allocation observer while the model and optimizer allocate
     * (so parameters and Adam state are charged) and during each step
     * of this session; tensors free to the device that charged them. */
    std::unique_ptr<DeviceMemoryModel> device;
    std::unique_ptr<GraphSage> model;
    std::unique_ptr<Adam> adam;
    TransferModel transfer;
    std::unique_ptr<Trainer> trainer;
    std::unique_ptr<MultiDeviceEngine> engine;
    std::unique_ptr<NeighborSampler> sampler;
    std::unique_ptr<Betty> betty;
    Rng seedRng;
    std::vector<int64_t> seedOrder;
    size_t cursor = 0;

    Session(const Workload& w, uint64_t seed)
        : workload(w), seedRng(streamSeed(seed, 2))
    {
        dataset = loadCatalogDataset(w.dataset, 1.0, streamSeed(seed, 1));
        const int64_t budget = int64_t(w.budgetMib * kMiB);
        const int64_t capacity = int64_t(double(budget) * kDeviceHeadroom);
        const int64_t cache = int64_t(w.cacheMib * kMiB);
        if (w.devices == 1)
            device = std::make_unique<DeviceMemoryModel>(capacity);
        std::optional<DeviceMemoryModel::Scope> scope;
        if (device)
            scope.emplace(*device);
        SageConfig config;
        config.inputDim = dataset.featureDim();
        config.hiddenDim = w.hidden;
        config.numClasses = dataset.numClasses;
        config.numLayers = w.layers;
        config.aggregator = AggregatorKind::Mean;
        config.seed = streamSeed(seed, 4);
        model = std::make_unique<GraphSage>(config);
        // Fast enough that the loss falls within a run, slow enough
        // that it never collapses to the near-zero gradients whose
        // denormal arithmetic makes later steps several times slower
        // than early ones (as it does at 0.01 on cora_wide).
        adam = std::make_unique<Adam>(model->parameters(), 1e-3f);
        if (w.devices == 1) {
            trainer = std::make_unique<Trainer>(dataset, *model, *adam,
                                                device.get(), &transfer);
        } else {
            // Fabric and cache policy are spelled out so a change of
            // library defaults cannot change the workload.
            MultiDeviceConfig multi;
            multi.numDevices = w.devices;
            multi.deviceCapacityBytes = capacity;
            multi.interconnect = InterconnectConfig::nvlink();
            multi.cacheBytesPerDevice = cache;
            multi.cachePolicy = CachePolicy::Lru;
            engine = std::make_unique<MultiDeviceEngine>(dataset, *model,
                                                         *adam, multi);
        }
        sampler = std::make_unique<NeighborSampler>(
            dataset.graph, w.fanouts, streamSeed(seed, 3));
        // The cache reservation is carved out of each device, so the
        // planner sizes micro-batches for what is left.
        BettyConfig betty_config;
        betty_config.deviceCapacityBytes = budget - cache;
        betty = std::make_unique<Betty>(model->memorySpec(),
                                        betty_config);
        seedOrder = dataset.trainNodes;
        seedRng.shuffle(seedOrder);
    }

    /** The next B seeds of the permutation, reshuffled per pass. */
    std::vector<int64_t>
    nextSeeds()
    {
        const size_t b = size_t(workload.batchSize);
        if (cursor + b > seedOrder.size()) {
            seedRng.shuffle(seedOrder);
            cursor = 0;
        }
        std::vector<int64_t> seeds(seedOrder.begin() + cursor,
                                   seedOrder.begin() + cursor + b);
        cursor += b;
        return seeds;
    }
};

/** What one step did and how long its parts took. */
struct StepRecord
{
    bool failed = false;
    int32_t k = 0;
    int32_t attempts = 0;
    double loss = 0.0;
    int64_t outputs = 0;
    /** First-layer inputs of the whole batch. */
    int64_t batchInputs = 0;
    /** First-layer inputs summed over the micro-batches. */
    int64_t microInputs = 0;
    int64_t h2dBytes = 0;
    double sampleS = 0.0;
    double planS = 0.0;
    double stepS = 0.0;
    /** Compute wall plus simulated link (or the engine's parallel
     * epoch model) — the train part of the modeled step. */
    double modeledTrainS = 0.0;
    double linkS = 0.0;
    int64_t devicePeakBytes = 0;
    int64_t estimatedPeakBytes = 0;
    double allreduceS = 0.0;
    double duplication = 0.0;
    double imbalance = 0.0;
};

/** Bytes the micro-batches move over the host link without a cache:
 * every input feature row plus the block structure. */
int64_t
uncachedH2dBytes(const std::vector<MultiLayerBatch>& micros,
                 int64_t feature_dim)
{
    int64_t bytes = 0;
    for (const auto& micro : micros) {
        if (micro.outputNodes().empty())
            continue;
        bytes += int64_t(micro.inputNodes().size()) * feature_dim *
                     int64_t(sizeof(float)) +
                 micro.structureBytes();
    }
    return bytes;
}

StepRecord
runStep(Session& s)
{
    std::optional<DeviceMemoryModel::Scope> scope;
    if (s.device)
        scope.emplace(*s.device);
    StepRecord r;
    const auto step_start = Clock::now();
    obs::TraceSpan step_span("bench/step");
    try {
        MultiLayerBatch full;
        {
            obs::TraceSpan span("bench/sample");
            const auto start = Clock::now();
            full = s.sampler->sample(s.nextSeeds());
            r.sampleS = secondsSince(start);
        }
        r.batchInputs = int64_t(full.inputNodes().size());
        r.outputs = int64_t(full.outputNodes().size());
        PlanResult plan;
        {
            obs::TraceSpan span("bench/plan");
            const auto start = Clock::now();
            plan = s.betty->plan(full);
            r.planS = secondsSince(start);
        }
        r.k = plan.k;
        r.attempts = plan.attempts;
        r.estimatedPeakBytes = plan.maxEstimatedPeak;
        for (const auto& micro : plan.microBatches)
            r.microInputs += int64_t(micro.inputNodes().size());
        if (!plan.fits) {
            r.failed = true;
        } else if (s.trainer) {
            obs::TraceSpan span("bench/train");
            const EpochStats stats =
                s.trainer->trainMicroBatches(plan.microBatches);
            r.loss = stats.loss;
            r.linkS = stats.transferSeconds;
            r.modeledTrainS = stats.computeSeconds + stats.transferSeconds;
            r.devicePeakBytes = stats.peakBytes;
            r.h2dBytes = uncachedH2dBytes(plan.microBatches,
                                          s.dataset.featureDim());
            r.failed = stats.oom;
        } else {
            obs::TraceSpan span("bench/train");
            const double allreduce_before =
                s.engine->interconnect().seconds();
            const MultiDeviceStats stats =
                s.engine->trainMicroBatches(plan.microBatches);
            r.loss = stats.loss;
            r.modeledTrainS = stats.epochSeconds;
            // Peak net of the cache reservation, which the planner
            // was told about up front.
            r.devicePeakBytes = stats.maxDevicePeakBytes -
                                int64_t(s.workload.cacheMib * kMiB);
            for (size_t d = 0; d < stats.deviceTransferBytes.size();
                 ++d) {
                r.h2dBytes += stats.deviceTransferBytes[d];
                r.linkS += stats.deviceTransferSeconds[d];
            }
            r.allreduceS =
                s.engine->interconnect().seconds() - allreduce_before;
            r.duplication = stats.duplicationFactor;
            double busy_max = 0.0;
            double busy_sum = 0.0;
            for (const double busy : stats.deviceSeconds) {
                busy_max = std::max(busy_max, busy);
                busy_sum += busy;
            }
            if (busy_sum > 0.0)
                r.imbalance = busy_max / (busy_sum / double(
                                             stats.deviceSeconds.size()));
            r.failed = stats.oom;
        }
        if (!std::isfinite(r.loss))
            r.failed = true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "betty_perf: step threw: %s\n", e.what());
        r.failed = true;
    }
    r.stepS = secondsSince(step_start);
    return r;
}

/** Span durations by name, summed over a traced run's steps. */
struct SpanTotals
{
    std::map<std::string, double> ms;
    int64_t dropped = 0;

    void
    add(const std::vector<obs::TraceEvent>& events)
    {
        for (const auto& event : events)
            ms[event.name] += double(event.durUs) / 1000.0;
    }

    double
    get(std::initializer_list<const char*> names) const
    {
        double total = 0.0;
        for (const char* name : names) {
            const auto it = ms.find(name);
            if (it != ms.end())
                total += it->second;
        }
        return total;
    }
};

/** Counter names the per-layer table reads. */
const std::vector<std::string>&
counterNames()
{
    static const std::vector<std::string> names = {
        "sampler.edges",          "partition.reg_edges",
        "transfer.bytes",         "device.alloc_count",
        "cache.hits",             "cache.misses",
        "cache.bytes_saved",      "cache.evictions",
        "kernel.gemm.flops",      "kernel.agg.edges",
        "kernel.gather.rows",     "kernel.arena.chunk_allocs",
        "interconnect.bytes",     "pool.tasks",
        "pool.steals",            "pool.stalls",
    };
    return names;
}

/** The steps, and when traced the spans and counters, of one run. */
struct RunResult
{
    std::vector<StepRecord> steps;
    SpanTotals spans;
    std::map<std::string, int64_t> counters;
};

/** An untraced run and, with --trace 1, its traced twin. */
struct Runs
{
    RunResult untraced;
    RunResult traced;
    std::vector<double> setupSeconds;
};

void
setObservability(bool on)
{
    obs::Trace::setEnabled(on);
    obs::Metrics::setEnabled(on);
}

/**
 * Set up @p w and run @p steps timed steps after a short warm-up.
 * With @p traced, a second session of the same seed takes each step
 * with tracing and metrics on, right after the untraced step (right
 * before it on odd steps), so drifts in machine speed hit both runs
 * alike and their step times differ by the cost of tracing.
 */
Runs
runWorkload(const Workload& w, uint64_t seed, int64_t steps, bool traced)
{
    Runs runs;
    std::unique_ptr<Session> plain;
    const size_t min_repeats = traced ? 1 : kMinSetupRepeats;
    const size_t max_repeats = traced ? 1 : kMaxSetupRepeats;
    double setup_total = 0.0;
    while (runs.setupSeconds.size() < min_repeats ||
           (runs.setupSeconds.size() < max_repeats &&
            setup_total < kSetupTargetSeconds)) {
        plain.reset();
        const auto start = Clock::now();
        plain = std::make_unique<Session>(w, seed);
        runs.setupSeconds.push_back(secondsSince(start));
        setup_total += runs.setupSeconds.back();
    }
    std::unique_ptr<Session> twin;
    if (traced) {
        obs::Trace::setRingCapacity(size_t(1) << 18);
        obs::Trace::nameCurrentLane("main");
        twin = std::make_unique<Session>(w, seed);
    }
    auto traced_step = [&] {
        setObservability(true);
        StepRecord record = runStep(*twin);
        setObservability(false);
        return record;
    };
    for (int i = 0; i < kWarmupSteps; ++i) {
        runStep(*plain);
        if (twin)
            traced_step();
    }
    if (twin) {
        obs::Trace::clear();
        obs::Metrics::reset();
    }
    for (int64_t i = 0; i < steps; ++i) {
        const bool traced_first = twin && i % 2 == 1;
        if (traced_first)
            runs.traced.steps.push_back(traced_step());
        runs.untraced.steps.push_back(runStep(*plain));
        if (twin && !traced_first)
            runs.traced.steps.push_back(traced_step());
        if (twin) {
            // Between steps no pool work is in flight, so the rings
            // can be drained; draining per step keeps them from
            // wrapping. clear() also zeroes the drop count.
            runs.traced.spans.add(obs::Trace::snapshot());
            runs.traced.spans.dropped += obs::Trace::droppedEvents();
            obs::Trace::clear();
        }
    }
    if (twin) {
        for (const auto& name : counterNames())
            runs.traced.counters[name] =
                obs::Metrics::counter(name).value();
    }
    return runs;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Linear interpolation between closest ranks.
    const double rank = q * double(values.size() - 1);
    const size_t lo = size_t(std::floor(rank));
    const size_t hi = std::min(values.size() - 1, lo + 1);
    return values[lo] + (rank - double(lo)) * (values[hi] - values[lo]);
}

std::vector<double>
stepMs(const RunResult& run)
{
    std::vector<double> ms;
    for (const auto& step : run.steps)
        ms.push_back(step.stepS * 1000.0);
    return ms;
}

/** A named metric value with its unit, printed in order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Correctness checks of a run, each printed with its outcome. */
struct Checks
{
    bool ok = true;

    void
    expect(bool condition, const std::string& what)
    {
        std::printf("check %-58s %s\n", what.c_str(),
                    condition ? "ok" : "FAILED");
        if (!condition)
            ok = false;
    }
};

/** Mean loss of the last tenth of steps below that of the first. */
void
checkLossFalls(const RunResult& run, Checks& checks)
{
    std::vector<double> losses;
    for (const auto& step : run.steps)
        if (!step.failed)
            losses.push_back(step.loss);
    const size_t tenth = std::max<size_t>(1, losses.size() / 10);
    bool falls = losses.size() >= 2;
    if (falls) {
        double first = 0.0;
        double last = 0.0;
        for (size_t i = 0; i < tenth; ++i) {
            first += losses[i];
            last += losses[losses.size() - 1 - i];
        }
        falls = last < first;
        std::printf("loss first tenth %.6f, last tenth %.6f (%zu steps "
                    "each)\n",
                    first / double(tenth), last / double(tenth), tenth);
    }
    checks.expect(falls, "loss: last tenth mean < first tenth mean");
}

int64_t
failedSteps(const RunResult& run)
{
    int64_t failed = 0;
    for (const auto& step : run.steps)
        failed += step.failed ? 1 : 0;
    return failed;
}

/** Order-sensitive digest of the run's deterministic work counts. */
uint64_t
workDigest(const RunResult& run)
{
    uint64_t digest = 0;
    for (const auto& step : run.steps) {
        digest = Rng::streamKey(digest, uint64_t(step.k),
                                uint64_t(step.microInputs));
        digest = Rng::streamKey(digest, uint64_t(step.batchInputs),
                                uint64_t(step.h2dBytes));
    }
    return digest;
}

template <typename F>
double
meanOver(const RunResult& run, F field)
{
    if (run.steps.empty())
        return 0.0;
    double total = 0.0;
    for (const auto& step : run.steps)
        total += field(step);
    return total / double(run.steps.size());
}

std::vector<Metric>
endToEndMetrics(const Runs& runs)
{
    const RunResult& run = runs.untraced;
    std::vector<double> modeled;
    double wall = 0.0;
    int64_t trained = 0;
    for (const auto& step : run.steps) {
        modeled.push_back(
            (step.sampleS + step.planS + step.modeledTrainS) * 1000.0);
        wall += step.stepS;
        if (!step.failed)
            trained += step.outputs;
    }
    const std::vector<double> ms = stepMs(run);
    return {
        {"setup_s", quantile(runs.setupSeconds, 0.5), "s"},
        {"train_nodes_per_s", double(trained) / wall, "nodes/s"},
        {"step_ms_p50", quantile(ms, 0.5), "ms"},
        {"step_ms_p90", quantile(ms, 0.9), "ms"},
        {"modeled_step_ms_p50", quantile(modeled, 0.5), "ms"},
        {"h2d_mib_per_step",
         meanOver(run, [](const StepRecord& s) {
             return double(s.h2dBytes);
         }) / kMiB,
         "MiB"},
    };
}

std::vector<Metric>
perLayerMetrics(const RunResult& untraced, const RunResult& traced)
{
    const double n = double(traced.steps.size());
    const SpanTotals& sp = traced.spans;
    auto counter = [&](const char* name) {
        const auto it = traced.counters.find(name);
        return it == traced.counters.end() ? 0.0 : double(it->second);
    };
    auto per_step = [&](double total) { return total / n; };
    auto mean = [&](auto field) { return meanOver(traced, field); };

    const double step_ms = sp.get({"bench/step"});
    const double sample_ms = sp.get({"bench/sample"});
    const double plan_ms = sp.get({"bench/plan"});
    const double train_ms = sp.get({"bench/train"});
    const double gemm_ms =
        sp.get({"kernel/gemm", "kernel/gemm_ta", "kernel/gemm_tb"});
    const double flops = counter("kernel.gemm.flops");
    const double hits = counter("cache.hits");
    const double lookups = hits + counter("cache.misses");
    int64_t batch_inputs = 0;
    int64_t micro_inputs = 0;
    int64_t peak = 0;
    for (const auto& step : traced.steps) {
        batch_inputs += step.batchInputs;
        micro_inputs += step.microInputs;
        peak = std::max(peak, step.devicePeakBytes);
    }
    const double untraced_p50 = quantile(stepMs(untraced), 0.5);
    const double traced_p50 = quantile(stepMs(traced), 0.5);
    return {
        {"sampling.ms_per_step", per_step(sample_ms), "ms"},
        {"sampling.edges_per_step", per_step(counter("sampler.edges")),
         "count"},
        {"sampling.input_nodes_per_step",
         mean([](const StepRecord& s) { return double(s.batchInputs); }),
         "count"},
        {"sampling.step_share", sample_ms / step_ms, "ratio"},
        {"core.plan_ms_per_step", per_step(plan_ms), "ms"},
        {"core.plan_attempts_per_step",
         mean([](const StepRecord& s) { return double(s.attempts); }),
         "count"},
        {"core.k_mean", mean([](const StepRecord& s) { return double(s.k); }),
         "count"},
        {"core.estimate_error",
         mean([](const StepRecord& s) {
             return s.estimatedPeakBytes > 0
                        ? double(s.devicePeakBytes) /
                                  double(s.estimatedPeakBytes) -
                              1.0
                        : 0.0;
         }),
         "ratio"},
        {"core.step_share", plan_ms / step_ms, "ratio"},
        {"partition.reg_build_ms_per_step",
         per_step(sp.get({"partition/reg_build"})), "ms"},
        {"partition.kway_ms_per_step",
         per_step(sp.get({"partition/kway", "partition/kway_warm"})),
         "ms"},
        {"partition.extract_ms_per_step",
         per_step(sp.get({"partition/extract_micro_batches"})), "ms"},
        {"partition.reg_edges_per_step",
         per_step(counter("partition.reg_edges")), "count"},
        {"partition.redundancy",
         batch_inputs > 0 ? double(micro_inputs) / double(batch_inputs)
                          : 0.0,
         "ratio"},
        {"memory.h2d_bytes_per_step", per_step(counter("transfer.bytes")),
         "bytes"},
        {"memory.link_ms_per_step",
         mean([](const StepRecord& s) { return s.linkS * 1000.0; }), "ms"},
        {"memory.device_alloc_count_per_step",
         per_step(counter("device.alloc_count")), "count"},
        {"memory.device_peak_bytes", double(peak), "bytes"},
        {"cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio"},
        {"cache.lookups_per_step", per_step(lookups), "count"},
        {"cache.bytes_saved_per_step",
         per_step(counter("cache.bytes_saved")), "bytes"},
        {"cache.evictions_per_step", per_step(counter("cache.evictions")),
         "count"},
        {"train.ms_per_step", per_step(train_ms), "ms"},
        {"train.forward_ms_per_step", per_step(sp.get({"train/forward"})),
         "ms"},
        {"train.backward_ms_per_step",
         per_step(sp.get({"train/backward"})), "ms"},
        {"train.optimizer_ms_per_step", per_step(sp.get({"train/step"})),
         "ms"},
        {"train.gather_ms_per_step",
         per_step(sp.get({"train/gather", "multi/gather"})), "ms"},
        {"train.upload_ms_per_step", per_step(sp.get({"train/upload"})),
         "ms"},
        {"train.pipeline_wait_ms_per_step",
         per_step(sp.get({"train/pipeline_wait"})), "ms"},
        {"train.step_share", train_ms / step_ms, "ratio"},
        {"kernels.gemm_ms_per_step", per_step(gemm_ms), "ms"},
        {"kernels.gemm_flops_per_step", per_step(flops), "count"},
        {"kernels.gemm_gflops", gemm_ms > 0.0 ? flops / gemm_ms / 1e6 : 0.0,
         "GFLOP/s"},
        {"kernels.aggregate_ms_per_step",
         per_step(sp.get({"kernel/gather_aggregate",
                          "kernel/gather_aggregate_bwd"})),
         "ms"},
        {"kernels.agg_edges_per_step", per_step(counter("kernel.agg.edges")),
         "count"},
        {"kernels.gather_rows_per_step",
         per_step(counter("kernel.gather.rows")), "count"},
        {"kernels.arena_chunk_allocs_per_step",
         per_step(counter("kernel.arena.chunk_allocs")), "count"},
        {"kernels.arena_reserved_mib",
         double(obs::Metrics::gauge("kernel.arena.reserved_bytes").value()) /
             kMiB,
         "MiB"},
        {"multi.allreduce_ms_per_step",
         mean([](const StepRecord& s) { return s.allreduceS * 1000.0; }),
         "ms"},
        {"multi.interconnect_bytes_per_step",
         per_step(counter("interconnect.bytes")), "bytes"},
        {"multi.duplication_factor",
         mean([](const StepRecord& s) { return s.duplication; }), "ratio"},
        {"multi.dispatch_wait_ms_per_step",
         per_step(sp.get({"multi/dispatch_wait"})), "ms"},
        {"multi.device_imbalance",
         mean([](const StepRecord& s) { return s.imbalance; }), "ratio"},
        {"pool.tasks_per_step", per_step(counter("pool.tasks")), "count"},
        {"pool.steals_per_step", per_step(counter("pool.steals")), "count"},
        {"pool.stalls_per_step", per_step(counter("pool.stalls")), "count"},
        {"obs.trace_overhead", traced_p50 / untraced_p50 - 1.0, "ratio"},
        {"obs.step_self_share",
         1.0 - (sample_ms + plan_ms + train_ms) / step_ms, "ratio"},
    };
}

/** The traced run must do exactly the untraced run's work. */
void
checkSameWork(const RunResult& untraced, const RunResult& traced,
              Checks& checks)
{
    bool same = untraced.steps.size() == traced.steps.size();
    for (size_t i = 0; same && i < traced.steps.size(); ++i) {
        const StepRecord& a = untraced.steps[i];
        const StepRecord& b = traced.steps[i];
        same = a.k == b.k && a.batchInputs == b.batchInputs &&
               a.microInputs == b.microInputs && a.h2dBytes == b.h2dBytes &&
               a.loss == b.loss;
    }
    checks.expect(same, "traced run: same per-step K, inputs and loss");
    int64_t h2d = 0;
    for (const auto& step : traced.steps)
        h2d += step.h2dBytes;
    checks.expect(traced.counters.at("transfer.bytes") == h2d,
                  "traced run: transfer.bytes counter = step h2d bytes");
    checks.expect(traced.spans.dropped == 0,
                  "traced run: no trace events dropped");
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric>& metrics)
{
    for (const auto& m : metrics)
        std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
printFingerprint(const Workload& w, const Args& args, int64_t steps)
{
    std::printf("fingerprint {\"nproc\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"pool_lanes\": %d, "
                "\"kernel_backend\": \"%s\", \"workload\": \"%s\", "
                "\"budget_mib\": %g, \"devices\": %d, \"cache_mib\": %g, "
                "\"seed\": %llu, \"steps\": %lld, \"warmup_steps\": %d}\n",
                sysconf(_SC_NPROCESSORS_ONLN), BETTY_PERF_COMPILER,
                BETTY_PERF_BUILD_TYPE, ThreadPool::globalThreads(),
                kernels::backendName(kernels::activeBackend()), w.name,
                w.budgetMib, w.devices, w.cacheMib,
                (unsigned long long)args.seed, (long long)steps,
                kWarmupSteps);
}

} // namespace

int
main(int argc, char** argv)
{
    refuseInheritedKnobs();
    const Args args = parseArgs(argc, argv);
    if (std::strcmp(BETTY_PERF_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "betty_perf: built as '%s'; timings are only taken "
                     "from a Release build\n",
                     BETTY_PERF_BUILD_TYPE);
        return 2;
    }
    const Workload* workload = nullptr;
    for (const auto& w : workloads())
        if (args.workload == w.name)
            workload = &w;
    if (!workload)
        usage("unknown workload '" + args.workload + "'");

    setLogLevel(LogLevel::Warn);
    ThreadPool::setGlobalThreads(kPoolLanes);
    int64_t steps = std::max<int64_t>(
        kMinSteps, std::llround(args.seconds * workload->stepsPerSecond));
    if (args.maxSteps > 0)
        steps = std::min(steps, args.maxSteps);
    printFingerprint(*workload, args, steps);

    Checks checks;
    const int64_t run_steps = args.trace ? (steps + 1) / 2 : steps;
    const Runs runs =
        runWorkload(*workload, args.seed, run_steps, args.trace == 1);
    checkLossFalls(runs.untraced, checks);
    std::printf("work digest %016llx\n",
                (unsigned long long)workDigest(runs.untraced));
    int64_t attempted = int64_t(runs.untraced.steps.size());
    int64_t failed = failedSteps(runs.untraced);
    std::vector<Metric> metrics;
    if (args.trace) {
        attempted += int64_t(runs.traced.steps.size());
        failed += failedSteps(runs.traced);
        checkSameWork(runs.untraced, runs.traced, checks);
        metrics = perLayerMetrics(runs.untraced, runs.traced);
    } else {
        metrics = endToEndMetrics(runs);
    }
    printResult(checks.ok, attempted, failed, metrics);
    return 0;
}
