/**
 * @file
 * Extension bench (paper future work §7): multi-accelerator scaling
 * of Betty micro-batch training.
 *
 * The same K=32 Betty plan is trained on 1, 2, 4 and 8 simulated
 * devices through the MultiDeviceEngine (vertex-cut sharding + ring
 * all-reduce), each device count one warmup plus three timed
 * repeats. The end-of-run table reports simulated parallel step time
 * (max device busy + all-reduce), speedup over one device, the
 * vertex-cut duplication factor against the round-robin baseline,
 * per-device peak memory, and the loss — identical across rows,
 * because sharding never touches the numerics. --json=FILE records
 * each row's key figures and host wall seconds (bench_common.h).
 *
 * Shape targets: >= 3x simulated step-time speedup from 1 -> 8
 * devices at K=32, with a vertex-cut duplication factor no worse
 * than round-robin.
 *
 *   bench_multi_gpu [--threads=N] [--json=FILE] [--trace-out=FILE]
 *                   [--metrics-out=FILE]
 */
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "train/multi_device.h"

namespace {

using namespace betty;
using namespace betty::benchutil;

constexpr int kWarmup = 1;
constexpr int kRepeats = 3;

SageConfig
sweepModelConfig(const Dataset& ds)
{
    SageConfig cfg;
    cfg.inputDim = ds.featureDim();
    cfg.hiddenDim = 32;
    cfg.numClasses = ds.numClasses;
    cfg.numLayers = 2;
    cfg.seed = 5;
    return cfg;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs("bench_multi_gpu", &argc, argv);
    if (argc > 1)
        fatal("unknown flag '", argv[1], "'");

    std::printf("Multi-accelerator scaling of Betty micro-batch "
                "training, 2-layer SAGE + Mean, products_like\n");
    const Dataset ds = loadBenchDataset("products_like", 0.3);
    NeighborSampler sampler(ds.graph, {5, 10}, 7);
    std::vector<int64_t> seeds(
        ds.trainNodes.begin(),
        ds.trainNodes.begin() +
            std::min<size_t>(ds.trainNodes.size(), 2048));
    const auto full = sampler.sample(seeds);

    BettyPartitioner part;
    const int32_t k = 32;
    const std::vector<MultiLayerBatch> micros =
        extractMicroBatches(full, part.partition(full, k));
    std::printf("plan: %d micro-batches over %lld output nodes\n", k,
                (long long)full.outputNodes().size());

    // Last repeat's stats and mean wall seconds per device count.
    std::map<int32_t, MultiDeviceStats> stats_by_devices;
    std::map<int32_t, double> round_robin_dup;
    for (const int32_t devices : {1, 2, 4, 8}) {
        round_robin_dup[devices] = shardDuplicationFactor(
            micros, roundRobinAssignment(micros, devices));
        std::printf("bench_multi_gpu: %d device(s) (%d warmup + %d "
                    "repeats)\n",
                    devices, kWarmup, kRepeats);
        std::fflush(stdout);
        double wall_s = 0.0;
        for (int repeat = 0; repeat < kWarmup + kRepeats; ++repeat) {
            GraphSage model(sweepModelConfig(ds));
            Adam adam(model.parameters(), 0.01f);
            MultiDeviceConfig engine_config;
            engine_config.numDevices = devices;
            MultiDeviceEngine engine(ds, model, adam, engine_config);
            Timer wall;
            stats_by_devices[devices] = engine.trainMicroBatches(micros);
            if (repeat >= kWarmup)
                wall_s += wall.seconds();
        }
        const MultiDeviceStats& stats = stats_by_devices[devices];
        const std::string row = "n" + std::to_string(devices);
        obs.result(row + ".wall_s", wall_s / kRepeats);
        obs.result(row + ".step_s", stats.epochSeconds);
        obs.result(row + ".allreduce_s", stats.allreduceSeconds);
        obs.result(row + ".dup", stats.duplicationFactor);
        obs.result(row + ".rr_dup", round_robin_dup[devices]);
        obs.result(row + ".loss", stats.loss);
    }

    TablePrinter table("scaling with simulated devices");
    table.setHeader({"devices", "step_s", "allreduce_s", "speedup",
                     "dup", "rr_dup", "max_dev_peak_MiB",
                     "batches/device", "loss"});
    const double baseline = stats_by_devices[1].epochSeconds;
    for (const int32_t devices : {1, 2, 4, 8}) {
        const MultiDeviceStats& stats = stats_by_devices[devices];
        std::string split;
        for (int32_t count : stats.batchesPerDevice)
            split += (split.empty() ? "" : "/") +
                     std::to_string(count);
        table.addRow(
            {std::to_string(devices),
             TablePrinter::num(stats.epochSeconds, 3),
             TablePrinter::num(stats.allreduceSeconds, 4),
             TablePrinter::num(baseline / stats.epochSeconds, 2) +
                 "x",
             TablePrinter::num(stats.duplicationFactor, 2) + "x",
             TablePrinter::num(round_robin_dup[devices], 2) +
                 "x",
             TablePrinter::num(toMiB(stats.maxDevicePeakBytes), 1),
             split, TablePrinter::num(stats.loss, 4)});
    }
    table.print();

    std::printf("\nShape targets: >= 3x speedup at 8 devices while "
                "each holds >= 2 batches, then the allreduce and the "
                "largest micro-batch bound it; dup <= rr_dup (the "
                "vertex-cut sharder never duplicates more halo than "
                "round-robin); loss identical in every row (sharding "
                "changes nothing numerically).\n");
    return 0;
}
