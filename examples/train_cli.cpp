/**
 * @file
 * Scenario: a complete command-line training application on the
 * public API — what a downstream user would actually run.
 *
 * Usage:
 *   train_cli [--dataset NAME] [--scale F] [--model sage|gat]
 *               [--aggregator mean|sum|pool|lstm] [--layers N]
 *               [--hidden N] [--fanout a,b,...] [--epochs N]
 *               [--lr F] [--budget-mib N] [--devices N]
 *               [--interconnect nvlink|pcie]
 *               [--partitioner betty|metis|random|range] [--warm]
 *               [--threads N] [--kernels auto|scalar|avx2]
 *               [--cache-gib F] [--cache-policy lru|lru-pinned]
 *               [--data-cache FILE] [--trace-out=FILE]
 *               [--critpath-out=FILE] [--trace-ring N]
 *               [--metrics-out=FILE] [--memprof-out=FILE]
 *               [--faults SPEC] [--fault-seed N]
 *               [--checkpoint-out FILE] [--checkpoint-every N]
 *               [--resume FILE] [--flight-recorder-out FILE]
 *
 * --flight-recorder-out FILE dumps the always-on flight recorder
 * (obs/perf/flight_recorder.h) — the last N structured events: epoch
 * markers, injected faults, every recovery decision, cache
 * evictions, checkpoints — as JSON at the end of the run, and
 * registers FILE as the automatic post-mortem destination so a
 * fatal() mid-run still leaves the event trail behind.
 *
 * Numeric flags are parsed strictly (util/env_config.h): partial or
 * non-numeric values are startup errors, not silent zeros.
 *
 * Fault tolerance (docs/ROBUSTNESS.md): single-device training runs
 * under the ResilientTrainer — if the device capacity shrinks
 * mid-epoch (or a fault is injected via --faults / the BETTY_FAULTS
 * variable, grammar in util/fault.h), the epoch's gradients are
 * rolled back, the batch is re-planned at K+1, and training retries;
 * when recovery is exhausted the epoch is skipped with a report
 * instead of crashing. --checkpoint-out
 * writes a resumable checkpoint every --checkpoint-every epochs
 * (and after the last); --resume restores one and continues
 * bit-identically to an uninterrupted run.
 *
 * --cache-gib F reserves F GiB of the device as a feature cache
 * (docs/CACHING.md): input rows already resident are not re-charged
 * to the transfer model, so duplicated/hot nodes cross the simulated
 * PCIe link once instead of once per micro-batch. Numerics are
 * bit-identical with and without the cache; only transfer
 * bytes/seconds change. --cache-policy picks pure LRU or, with one
 * device, LRU with a pinned hot set of top-out-degree nodes (charged
 * to the link once, when pinned). The reservation is real:
 * the planner and the OOM recovery loop treat it as unavailable to
 * training tensors, and recovery releases it before skipping work.
 *
 * --threads N sizes the global ThreadPool used by batch preparation
 * (parallel REG construction, parallel neighbor sampling) and by the
 * trainer's transfer-compute pipelining. Every result is bit-
 * identical for any N (docs/PARALLELISM.md); N=1 (the default, or
 * BETTY_THREADS) is fully serial.
 *
 * --kernels auto|scalar|avx2 (or BETTY_KERNELS) picks the compute
 * backend for the aggregation/GEMM hot paths (docs/KERNELS.md):
 * "auto", the default, vectorizes when the CPU and build have AVX2;
 * "scalar" is the reference; "avx2" is the vectorized path (falls
 * back to scalar with one warning if the CPU or build lacks AVX2).
 * Every kernel is bit-identical across backends.
 *
 * Every epoch resamples the full batch, (re)partitions it under the
 * memory budget, trains with gradient accumulation and prints loss /
 * accuracy / memory / time. With --devices > 1 (or BETTY_DEVICES) the
 * MultiDeviceEngine shards the micro-batches across N simulated
 * accelerators by a vertex-cut assignment (docs/MULTI_DEVICE.md);
 * losses and parameters stay bit-identical to the single-device run,
 * only the simulated time/memory/transfer attribution changes.
 * --interconnect picks the all-reduce fabric preset, and a
 * `device-drop@epochN` fault re-shards the victim's pending work over
 * the survivors mid-epoch. The end-of-run per-epoch stats are
 * rendered with the shared TablePrinter formatter.
 *
 * --trace-out=FILE enables span collection and writes a Chrome
 * trace_event JSON (open in chrome://tracing or ui.perfetto.dev);
 * --critpath-out=FILE additionally (or instead) runs the critical-
 * path analysis (obs/critpath/) over the recorded spans at the end
 * of the run and writes CRITPATH_report.json — per-category
 * attribution of the epoch critical path, the same artifact
 * `betty_report critpath <trace>` produces offline. --trace-ring N
 * overrides the per-thread trace ring capacity (BETTY_TRACE_RING);
 * if the run still drops events, a warning names both knobs.
 * --metrics-out=FILE enables the metric registry and writes its JSON
 * snapshot, including per-micro-batch estimator residuals.
 * --memprof-out=FILE enables metrics and writes a structured run
 * report: dataset/config echo, per-epoch stats, the per-micro-batch
 * Table 3 category breakdown with estimator residuals, and the
 * sampled per-category memory timeline (betty_report prints/diffs
 * it). With all flags absent the collectors stay disabled (one
 * branch per site).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cache/feature_cache.h"
#include "core/betty.h"
#include "data/catalog.h"
#include "data/io.h"
#include "kernels/dispatch.h"
#include "memory/transfer_model.h"
#include "obs/critpath/critical_path.h"
#include "obs/critpath/critpath_report.h"
#include "obs/critpath/span_graph.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "robustness/checkpoint.h"
#include "robustness/resilient_trainer.h"
#include "sampling/neighbor_sampler.h"
#include "obs/perf/flight_recorder.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/env_config.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace betty;

struct Args
{
    std::string dataset = "arxiv_like";
    double scale = 0.2;
    std::string model = "sage";
    std::string aggregator = "mean";
    int64_t layers = 2;
    int64_t hidden = 32;
    std::vector<int64_t> fanouts = {5, 10};
    int epochs = 10;
    float lr = 0.01f;
    double budget_mib = 16.0;
    /** Simulated accelerators (flag > BETTY_DEVICES > 1; resolved in
     * parseArgs). */
    int32_t devices = 1;
    /** All-reduce fabric preset for --devices > 1 (memory/
     * interconnect.h vocabulary). */
    std::string interconnect = "nvlink";
    std::string partitioner = "betty";
    bool warm = false;
    /** Global ThreadPool lanes (0 = leave default/BETTY_THREADS). */
    int32_t threads = 0;
    /** Compute-kernel backend; empty leaves the choice to
     * kernels/dispatch.h (BETTY_KERNELS, else auto). */
    std::string kernels;
    /** Feature-cache reservation in GiB (0 = no cache). The cache
     * stays opt-in here: BETTY_CACHE_GIB scales the bench sweeps,
     * not a user's training run. */
    double cache_gib = 0.0;
    /** Feature-cache replacement policy ("lru" or, with one device,
     * "lru-pinned"). */
    std::string cache_policy = "lru";
    /** Cache file for the generated dataset (gen_data.sh analog):
     * loaded if it exists, otherwise written after generation. */
    std::string data_cache;
    /** Chrome trace JSON destination ("" = tracing disabled). */
    std::string trace_out;
    /** CRITPATH_report.json destination ("" = no analysis; enables
     * tracing like --trace-out does). */
    std::string critpath_out;
    /** Per-thread trace ring capacity override (raw flag text; "" =
     * BETTY_TRACE_RING or the built-in default). */
    std::string trace_ring;
    /** Metrics JSON destination ("" = metrics disabled). */
    std::string metrics_out;
    /** Run-report JSON destination ("" = no report; enables metrics). */
    std::string memprof_out;
    /** Fault-injection spec (util/fault.h grammar; "" = BETTY_FAULTS
     * or no faults). */
    std::string faults;
    /** Seed for the fault plan's stochastic choices. */
    uint64_t fault_seed = 0;
    /** Checkpoint destination ("" = no checkpoints). */
    std::string checkpoint_out;
    /** Write a checkpoint every N completed epochs. */
    int checkpoint_every = 1;
    /** Checkpoint to restore before training ("" = fresh start). */
    std::string resume;
    /** Flight-recorder dump destination ("" = no dump file; the
     * ring still records either way). */
    std::string flight_recorder_out;
};

int64_t
intFlag(const std::string& flag, const char* text)
{
    int64_t value = 0;
    if (!envcfg::parseInt(text, &value))
        fatal("malformed ", flag, "='", text,
              "': expected an integer");
    return value;
}

double
doubleFlag(const std::string& flag, const char* text)
{
    double value = 0.0;
    if (!envcfg::parseDouble(text, &value))
        fatal("malformed ", flag, "='", text,
              "': expected a finite number");
    return value;
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    std::string devices_text; // raw --devices value; resolved below
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        // Accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline_value = false;
        if (const size_t eq = flag.find('=');
            eq != std::string::npos) {
            inline_value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            has_inline_value = true;
        }
        auto next = [&]() -> const char* {
            if (has_inline_value)
                return inline_value.c_str();
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--dataset") {
            args.dataset = next();
        } else if (flag == "--scale") {
            args.scale = doubleFlag(flag, next());
        } else if (flag == "--model") {
            args.model = next();
        } else if (flag == "--aggregator") {
            args.aggregator = next();
        } else if (flag == "--layers") {
            args.layers = intFlag(flag, next());
        } else if (flag == "--hidden") {
            args.hidden = intFlag(flag, next());
        } else if (flag == "--fanout") {
            const char* text = next();
            if (!envcfg::parseIntList(text, &args.fanouts))
                fatal("malformed --fanout='", text,
                      "': expected comma-separated integers");
        } else if (flag == "--epochs") {
            args.epochs = int(intFlag(flag, next()));
        } else if (flag == "--lr") {
            args.lr = float(doubleFlag(flag, next()));
        } else if (flag == "--budget-mib") {
            args.budget_mib = doubleFlag(flag, next());
        } else if (flag == "--devices") {
            devices_text = next();
        } else if (flag == "--interconnect") {
            args.interconnect = next();
        } else if (flag == "--partitioner") {
            args.partitioner = next();
        } else if (flag == "--warm") {
            args.warm = true;
        } else if (flag == "--threads") {
            args.threads = int32_t(intFlag(flag, next()));
        } else if (flag == "--kernels") {
            args.kernels = next();
        } else if (flag == "--cache-gib") {
            args.cache_gib = doubleFlag(flag, next());
            if (args.cache_gib < 0.0)
                fatal("--cache-gib must be non-negative");
        } else if (flag == "--cache-policy") {
            args.cache_policy = next();
        } else if (flag == "--data-cache") {
            args.data_cache = next();
        } else if (flag == "--trace-out") {
            args.trace_out = next();
        } else if (flag == "--critpath-out") {
            args.critpath_out = next();
        } else if (flag == "--trace-ring") {
            args.trace_ring = next();
        } else if (flag == "--metrics-out") {
            args.metrics_out = next();
        } else if (flag == "--memprof-out") {
            args.memprof_out = next();
        } else if (flag == "--faults") {
            args.faults = next();
        } else if (flag == "--fault-seed") {
            args.fault_seed = uint64_t(intFlag(flag, next()));
        } else if (flag == "--checkpoint-out") {
            args.checkpoint_out = next();
        } else if (flag == "--checkpoint-every") {
            args.checkpoint_every = int(intFlag(flag, next()));
            if (args.checkpoint_every < 1)
                fatal("--checkpoint-every must be at least 1");
        } else if (flag == "--resume") {
            args.resume = next();
        } else if (flag == "--flight-recorder-out") {
            args.flight_recorder_out = next();
        } else if (flag == "--help") {
            std::printf("see the file comment for usage\n");
            std::exit(0);
        } else {
            fatal("unknown flag '", flag, "'");
        }
    }
    if (int64_t(args.fanouts.size()) != args.layers)
        fatal("--fanout must list exactly --layers values");
    // flag > BETTY_DEVICES > 1 (shared with the benches).
    const int64_t devices = envcfg::resolveInt(
        devices_text, "--devices", "BETTY_DEVICES", 1);
    if (devices < 1)
        fatal("--devices must be at least 1");
    args.devices = int32_t(devices);
    // Only the single-device trainer pins; the engine's per-device
    // caches would run pure LRU under a pinned policy's name.
    if (args.cache_policy == "lru-pinned" && args.devices > 1)
        fatal("--cache-policy lru-pinned needs --devices 1");
    return args;
}

AggregatorKind
parseAggregator(const std::string& name)
{
    if (name == "mean")
        return AggregatorKind::Mean;
    if (name == "sum")
        return AggregatorKind::Sum;
    if (name == "pool")
        return AggregatorKind::Pool;
    if (name == "lstm")
        return AggregatorKind::Lstm;
    fatal("unknown aggregator '", name, "'");
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    // Register the post-mortem destination first so even setup
    // failures leave an event trail behind.
    if (!args.flight_recorder_out.empty())
        obs::FlightRecorder::setFatalDumpPath(
            args.flight_recorder_out);
    if (args.threads > 0)
        ThreadPool::setGlobalThreads(args.threads);
    // Kernel backend: only --kernels overrides it here, with the
    // same strict vocabulary; otherwise kernels/dispatch.h reads
    // BETTY_KERNELS and defaults to auto.
    if (!args.kernels.empty()) {
        kernels::KernelMode mode;
        if (!kernels::parseKernelMode(args.kernels, &mode))
            fatal("malformed --kernels='", args.kernels,
                  "': expected scalar, avx2, or auto");
        kernels::setKernelMode(mode);
    }
    // Ring capacity must be set before the first event is recorded;
    // flag > BETTY_TRACE_RING > default, strict parse.
    const int64_t trace_ring =
        envcfg::resolveInt(args.trace_ring, "--trace-ring",
                           "BETTY_TRACE_RING", 1 << 16);
    if (trace_ring < 1)
        fatal("--trace-ring must be at least 1");
    obs::Trace::setRingCapacity(size_t(trace_ring));
    if (!args.trace_out.empty() || !args.critpath_out.empty()) {
        obs::Trace::setEnabled(true);
        obs::Trace::nameCurrentLane("main");
    }
    // The run report is fed by the metric collectors (memory
    // profiler, residuals, transfer counters), so --memprof-out
    // implies metrics collection.
    if (!args.metrics_out.empty() || !args.memprof_out.empty())
        obs::Metrics::setEnabled(true);

    obs::setRunMeta("binary", "train_cli");
    obs::setRunMeta("dataset", args.dataset);
    obs::setRunMeta("model", args.model + "/" + args.aggregator);

    // Fault injection: --faults wins, BETTY_FAULTS is the fallback.
    std::string fault_spec = args.faults;
    if (fault_spec.empty())
        if (const char* env = std::getenv("BETTY_FAULTS"))
            fault_spec = env;
    if (!fault_spec.empty()) {
        fault::FaultPlan fault_plan;
        std::string error;
        if (!fault::FaultPlan::parse(fault_spec, fault_plan, &error))
            fatal("--faults: ", error);
        fault_plan.seed = args.fault_seed;
        fault::Injector::install(std::move(fault_plan));
        inform("fault injection active: ", fault_spec);
        if (args.devices > 1)
            inform("multi-device run: device-drop faults re-shard "
                   "over the survivors; other fault kinds recover "
                   "only the single-device trainer");
    }

    Dataset ds;
    if (!args.data_cache.empty() && loadDataset(ds, args.data_cache)) {
        std::printf("loaded dataset cache '%s'\n",
                    args.data_cache.c_str());
    } else {
        ds = loadCatalogDataset(args.dataset, args.scale);
        if (!args.data_cache.empty()) {
            if (saveDataset(ds, args.data_cache))
                std::printf("wrote dataset cache '%s'\n",
                            args.data_cache.c_str());
            else
                warn("could not write dataset cache '",
                     args.data_cache, "'");
        }
    }
    std::printf("%s: %lld nodes, %lld edges, %lld train seeds\n",
                ds.name.c_str(), (long long)ds.numNodes(),
                (long long)ds.numEdges(),
                (long long)ds.trainNodes.size());

    const int64_t budget = int64_t(args.budget_mib * (1 << 20));
    DeviceMemoryModel device(args.devices == 1 ? budget : 0);
    DeviceMemoryModel::Scope scope(device);

    std::unique_ptr<GnnModel> model;
    if (args.model == "sage") {
        SageConfig cfg;
        cfg.inputDim = ds.featureDim();
        cfg.hiddenDim = args.hidden;
        cfg.numClasses = ds.numClasses;
        cfg.numLayers = args.layers;
        cfg.aggregator = parseAggregator(args.aggregator);
        model = std::make_unique<GraphSage>(cfg);
    } else if (args.model == "gat") {
        GatConfig cfg;
        cfg.inputDim = ds.featureDim();
        cfg.hiddenDim = args.hidden;
        cfg.numClasses = ds.numClasses;
        cfg.numLayers = args.layers;
        model = std::make_unique<Gat>(cfg);
    } else if (args.model == "gcn" || args.model == "gin") {
        StackConfig cfg;
        cfg.inputDim = ds.featureDim();
        cfg.hiddenDim = args.hidden;
        cfg.numClasses = ds.numClasses;
        cfg.numLayers = args.layers;
        if (args.model == "gcn")
            model = std::make_unique<Gcn>(cfg);
        else
            model = std::make_unique<Gin>(cfg);
    } else {
        fatal("unknown model '", args.model, "'");
    }
    std::printf("model: %s/%s, %lld layers, hidden %lld, %lld "
                "parameters\n",
                args.model.c_str(), args.aggregator.c_str(),
                (long long)args.layers, (long long)args.hidden,
                (long long)model->parameterCount());

    Adam adam(model->parameters(), args.lr);

    int start_epoch = 1;
    int32_t last_k = 1;
    if (!args.resume.empty()) {
        TrainCheckpoint checkpoint;
        IoStatus status = loadCheckpoint(checkpoint, args.resume);
        if (!status.ok())
            fatal("--resume: ", status.message);
        status = restoreCheckpoint(checkpoint, *model, adam);
        if (!status.ok())
            fatal("--resume: ", status.message);
        start_epoch = int(checkpoint.epochsCompleted) + 1;
        last_k = int32_t(checkpoint.lastK);
        obs::FlightRecorder::record(obs::FrCategory::Checkpoint,
                                    "checkpoint/restore",
                                    start_epoch, last_k);
        inform("resumed '", args.resume, "': ",
               checkpoint.epochsCompleted,
               " epoch(s) already done, continuing at epoch ",
               start_epoch, " with K=", last_k);
    }

    BettyOptions popts;
    popts.warmStart = args.warm;
    BettyPartitioner betty_part(popts);
    RangePartitioner range_part;
    RandomPartitioner random_part;
    MetisBaselinePartitioner metis_part(ds.graph);
    OutputPartitioner* partitioner = nullptr;
    if (args.partitioner == "betty")
        partitioner = &betty_part;
    else if (args.partitioner == "range")
        partitioner = &range_part;
    else if (args.partitioner == "random")
        partitioner = &random_part;
    else if (args.partitioner == "metis")
        partitioner = &metis_part;
    else
        fatal("unknown partitioner '", args.partitioner, "'");

    MemoryAwarePlanner planner(model->memorySpec(), budget);
    TransferModel transfer;
    Trainer trainer(ds, *model, adam, &device, &transfer);

    // Feature cache: a reservation carved out of the device budget
    // that keeps hot/duplicated input rows from re-crossing the link
    // every micro-batch. With --devices > 1 the reservation is made
    // per device inside the MultiDeviceEngine instead (each device
    // has its own memory model and host link).
    CachePolicy cache_policy = CachePolicy::Lru;
    if (!parseCachePolicy(args.cache_policy, &cache_policy))
        fatal("unknown --cache-policy '", args.cache_policy, "'");
    std::unique_ptr<FeatureCache> cache;
    if (args.cache_gib > 0.0) {
        if (args.devices > 1) {
            inform("feature cache: ",
                   TablePrinter::num(args.cache_gib, 3),
                   " GiB reserved per device (policy ",
                   cachePolicyName(cache_policy), ")");
        } else {
            cache = std::make_unique<FeatureCache>(
                &device, gib(args.cache_gib),
                ds.featureDim() * int64_t(sizeof(float)),
                cache_policy);
            if (cache_policy == CachePolicy::LruPinned) {
                // Pin the highest-out-degree nodes: they feed the
                // most destinations, so they recur in the most
                // micro-batches. Deterministic order: degree
                // descending, node id ascending.
                std::vector<int64_t> hot(size_t(ds.numNodes()));
                for (int64_t n = 0; n < ds.numNodes(); ++n)
                    hot[size_t(n)] = n;
                std::stable_sort(
                    hot.begin(), hot.end(),
                    [&](int64_t a, int64_t b) {
                        return ds.graph.outDegree(a) >
                               ds.graph.outDegree(b);
                    });
                // Pin at most half the capacity so the LRU side keeps
                // room for the current micro-batch's working set.
                const int64_t pin_rows = cache->capacityRows() / 2;
                hot.resize(size_t(
                    std::min<int64_t>(pin_rows, ds.numNodes())));
                // The pinned rows cross the link once, now.
                transfer.transfer(cache->pin(hot) * cache->rowBytes());
            }
            trainer.setFeatureCache(cache.get());
            inform("feature cache: ", cache->capacityRows(),
                   " rows (", TablePrinter::num(args.cache_gib, 3),
                   " GiB, policy ", cachePolicyName(cache_policy),
                   ", ", cache->pinnedRows(), " pinned)");
        }
    }

    ResilientTrainer resilient(trainer, model->memorySpec(),
                               *partitioner);
    resilient.setFeatureSource(&ds.features);
    MultiDeviceConfig multi_config;
    multi_config.numDevices = args.devices;
    multi_config.deviceCapacityBytes = budget;
    if (!InterconnectConfig::parse(args.interconnect,
                                   &multi_config.interconnect))
        fatal("unknown --interconnect '", args.interconnect,
              "' (expected nvlink or pcie)");
    multi_config.cacheBytesPerDevice =
        args.devices > 1 ? gib(args.cache_gib) : 0;
    multi_config.cachePolicy = cache_policy;
    std::unique_ptr<MultiDeviceEngine> multi_engine;
    if (args.devices > 1)
        multi_engine = std::make_unique<MultiDeviceEngine>(
            ds, *model, adam, multi_config);

    NeighborSampler test_sampler(ds.graph, args.fanouts, 999);
    const auto test_batch = test_sampler.sample(ds.testNodes);

    // End-of-run reporting goes through the shared TablePrinter
    // formatter; during training only a terse progress line prints.
    TablePrinter summary(args.devices == 1
                             ? "training summary (per epoch)"
                             : "multi-device training summary "
                               "(per epoch)");
    summary.setHeader({"epoch", "K", "loss", "acc", "test",
                       "peak MiB", "seconds", "oom", "oomN"});

    obs::RunReport report;
    report.setBinary("train_cli");
    report.setDataset(ds.name, ds.numNodes(), ds.numEdges(),
                      ds.numClasses, ds.featureDim());
    report.setConfig("dataset", args.dataset);
    report.setConfig("scale", std::to_string(args.scale));
    report.setConfig("model", args.model);
    report.setConfig("aggregator", args.aggregator);
    report.setConfig("layers", std::to_string(args.layers));
    report.setConfig("hidden", std::to_string(args.hidden));
    report.setConfig("epochs", std::to_string(args.epochs));
    report.setConfig("budget_mib", std::to_string(args.budget_mib));
    report.setConfig("devices", std::to_string(args.devices));
    if (args.devices > 1)
        report.setConfig("interconnect",
                         multi_config.interconnect.name);
    report.setConfig("partitioner", args.partitioner);
    report.setConfig("threads",
                     std::to_string(ThreadPool::globalThreads()));
    report.setConfig("cache_gib", std::to_string(args.cache_gib));
    report.setConfig("cache_policy",
                     cache ? cachePolicyName(cache->policy())
                           : "none");
    if (!fault_spec.empty())
        report.setConfig("faults", fault_spec);

    for (int epoch = start_epoch; epoch <= args.epochs; ++epoch) {
        BETTY_TRACE_SPAN("epoch");
        MultiLayerBatch full;
        {
            BETTY_TRACE_SPAN("epoch/sample");
            NeighborSampler sampler(ds.graph, args.fanouts,
                                    uint64_t(epoch));
            full = sampler.sample(ds.trainNodes);
        }

        if (args.devices == 1) {
            // Planning — and any mid-epoch re-planning — happens
            // inside the resilient runtime; a budget nothing fits
            // skips the epoch with a report instead of crashing.
            const ResilientEpochResult result =
                resilient.trainEpoch(full, epoch, last_k);
            if (result.skipped) {
                summary.addRow({std::to_string(epoch),
                                std::to_string(result.plan.k), "-",
                                "-", "-", "-", "-", "skip", "-"});
                continue;
            }
            const EpochStats& stats = result.stats;
            last_k = result.plan.k; // warm the K search across epochs
            const double test = trainer.evaluate(test_batch);
            obs::RunReportEpoch epoch_row;
            epoch_row.epoch = epoch;
            epoch_row.k = result.plan.k;
            epoch_row.loss = stats.loss;
            epoch_row.accuracy = stats.accuracy;
            epoch_row.testAccuracy = test;
            epoch_row.peakBytes = stats.peakBytes;
            epoch_row.computeSeconds = stats.computeSeconds;
            epoch_row.transferSeconds = stats.transferSeconds;
            epoch_row.oom = stats.oom;
            report.addEpoch(epoch_row);
            inform("epoch ", epoch, "/", args.epochs,
                   "  K=", result.plan.k, "  loss ",
                   TablePrinter::num(stats.loss, 4), "  acc ",
                   TablePrinter::num(stats.accuracy, 3),
                   result.replans
                       ? "  (re-planned x" +
                             std::to_string(result.replans) + ")"
                       : "",
                   stats.oom ? "  OOM!" : "");
            summary.addRow({std::to_string(epoch),
                            std::to_string(result.plan.k),
                            TablePrinter::num(stats.loss, 4),
                            TablePrinter::num(stats.accuracy, 3),
                            TablePrinter::num(test, 3),
                            TablePrinter::num(
                                double(stats.peakBytes) / (1 << 20),
                                1),
                            TablePrinter::num(stats.computeSeconds,
                                              2),
                            stats.oom ? "yes" : "no",
                            std::to_string(stats.oomEvents)});
        } else {
            PlanResult plan;
            {
                BETTY_TRACE_SPAN("epoch/plan");
                plan = planner.plan(full, *partitioner, last_k);
            }
            if (!plan.fits)
                fatal("budget too small even at one output per batch");
            last_k = plan.k; // warm the K search across epochs too
            const auto stats =
                multi_engine->trainEpoch(plan.microBatches, epoch);
            const double test = trainer.evaluate(test_batch);
            obs::RunReportEpoch epoch_row;
            epoch_row.epoch = epoch;
            epoch_row.k = plan.k;
            epoch_row.loss = stats.loss;
            epoch_row.accuracy = stats.accuracy;
            epoch_row.testAccuracy = test;
            epoch_row.peakBytes = stats.maxDevicePeakBytes;
            epoch_row.computeSeconds = stats.epochSeconds;
            double transfer_seconds = 0.0;
            for (const double s : stats.deviceTransferSeconds)
                transfer_seconds = std::max(transfer_seconds, s);
            epoch_row.transferSeconds = transfer_seconds;
            epoch_row.oom = stats.oom;
            report.addEpoch(epoch_row);
            inform("epoch ", epoch, "/", args.epochs, "  K=", plan.k,
                   "  loss ", TablePrinter::num(stats.loss, 4),
                   "  acc ", TablePrinter::num(stats.accuracy, 3),
                   "  on ", stats.liveDevices, "/", args.devices,
                   " devices  dup ",
                   TablePrinter::num(stats.duplicationFactor, 2),
                   "x",
                   stats.deviceDrops
                       ? "  (device-drop x" +
                             std::to_string(stats.deviceDrops) + ")"
                       : "",
                   stats.oom ? "  OOM!" : "");
            summary.addRow(
                {std::to_string(epoch), std::to_string(plan.k),
                 TablePrinter::num(stats.loss, 4),
                 TablePrinter::num(stats.accuracy, 3),
                 TablePrinter::num(test, 3),
                 TablePrinter::num(
                     double(stats.maxDevicePeakBytes) / (1 << 20),
                     1),
                 TablePrinter::num(stats.epochSeconds, 2),
                 stats.oom ? "yes" : "no", "-"});
        }

        if (!args.checkpoint_out.empty() &&
            (epoch % args.checkpoint_every == 0 ||
             epoch == args.epochs)) {
            const TrainCheckpoint checkpoint = captureCheckpoint(
                *model, adam, epoch, last_k, uint64_t(epoch), 0);
            const IoStatus status =
                saveCheckpoint(checkpoint, args.checkpoint_out);
            if (status.ok()) {
                obs::FlightRecorder::record(
                    obs::FrCategory::Checkpoint, "checkpoint/write",
                    epoch, last_k);
                inform("wrote checkpoint '", args.checkpoint_out,
                       "' (after epoch ", epoch, ")");
            } else {
                warn("could not write checkpoint: ", status.message);
            }
        }
    }
    summary.print();

    if (!args.trace_out.empty()) {
        if (obs::writeJsonFile(args.trace_out,
                               obs::Trace::chromeTraceJson()))
            inform("wrote trace '", args.trace_out,
                   "' (open in chrome://tracing or ui.perfetto.dev)");
        else
            warn("could not write trace '", args.trace_out, "'");
    }
    if (obs::Trace::enabled() && obs::Trace::droppedEvents() > 0)
        warn("trace dropped ", obs::Trace::droppedEvents(),
             " event(s) to the per-thread ring (capacity ",
             trace_ring, "); raise BETTY_TRACE_RING or "
             "--trace-ring for a lossless trace");
    if (!args.critpath_out.empty()) {
        namespace critpath = obs::critpath;
        critpath::SpanGraph graph = critpath::buildFromLiveTrace();
        critpath::CritpathError error;
        critpath::SegmentGraph segments;
        if (!critpath::validateSpanGraph(&graph, &error) ||
            !critpath::buildSegmentGraph(graph, &segments, &error)) {
            warn("critpath analysis failed (",
                 critpath::critpathErrorKindName(error.kind), "): ",
                 error.message);
        } else {
            const critpath::CriticalPathResult result =
                critpath::analyzeCriticalPath(graph, segments);
            if (obs::writeJsonFile(
                    args.critpath_out,
                    critpath::critpathReportJson(graph, result, {})))
                inform("wrote critpath report '", args.critpath_out,
                       "' (", result.steps.size(),
                       " steps, coverage ",
                       TablePrinter::num(result.coverage, 4),
                       "; inspect with betty_report critpath)");
            else
                warn("could not write critpath report '",
                     args.critpath_out, "'");
        }
    }
    if (!args.metrics_out.empty()) {
        if (obs::writeJsonFile(args.metrics_out,
                               obs::Metrics::snapshotJson()))
            inform("wrote metrics '", args.metrics_out, "'");
        else
            warn("could not write metrics '", args.metrics_out, "'");
    }
    if (!args.memprof_out.empty()) {
        report.setTimeline(device.timeline());
        report.setEdgeCut(
            obs::Metrics::gauge("partition.edge_cut").value());
        report.setTransferBytes(
            obs::Metrics::counter("transfer.bytes").value());
        report.setOomEvents(
            obs::Metrics::counter("device.oom_events").value());
        obs::RunReportCache cache_section;
        if (cache) {
            const FeatureCacheStats cache_stats = cache->stats();
            cache_section.enabled = true;
            cache_section.policy = cachePolicyName(cache->policy());
            cache_section.capacityBytes = gib(args.cache_gib);
            cache_section.reservedBytes = cache->reservedBytes();
            cache_section.hits = cache_stats.hits;
            cache_section.misses = cache_stats.misses;
            cache_section.bytesSaved = cache_stats.bytesSaved;
            cache_section.evictions = cache_stats.evictions;
            cache_section.releases = cache_stats.releases;
            cache_section.releasedBytes = cache_stats.releasedBytes;
        }
        report.setCache(cache_section);
        const RecoveryReport& recovered = resilient.report();
        obs::RunReportRecovery recovery;
        recovery.replans = recovered.replans;
        recovery.oomRetries = recovered.oomRetries;
        recovery.transferRetries = recovered.transferRetries;
        recovery.batchesSkipped = recovered.batchesSkipped;
        recovery.corruptRowsRepaired = recovered.corruptRowsRepaired;
        recovery.faultsInjected = recovered.faultsInjected;
        recovery.retryFailures =
            obs::Metrics::counter("retry.failures").value();
        recovery.retryBackoffUs =
            obs::Metrics::counter("retry.backoff_us").value();
        recovery.retryExhausted =
            obs::Metrics::counter("retry.exhausted").value();
        recovery.faultsActive = fault::Injector::active();
        report.setRecovery(recovery);
        if (obs::writeJsonFile(args.memprof_out, report.toJson()))
            inform("wrote run report '", args.memprof_out,
                   "' (inspect with betty_report)");
        else
            warn("could not write run report '", args.memprof_out,
                 "'");
    }
    if (!args.flight_recorder_out.empty()) {
        if (obs::writeJsonFile(args.flight_recorder_out,
                               obs::FlightRecorder::dumpJson()))
            inform("wrote flight recorder '",
                   args.flight_recorder_out, "' (",
                   obs::FlightRecorder::recordedEvents(),
                   " events, ",
                   obs::FlightRecorder::droppedEvents(),
                   " dropped)");
        else
            warn("could not write flight recorder '",
                 args.flight_recorder_out, "'");
    }
    return 0;
}
