/**
 * @file
 * Figure 14: epoch training time + simulated data-movement time vs
 * the number of batches, for all four partitioners.
 *
 * 3-layer GraphSAGE + Mean on products_like (the paper's
 * configuration with fanout (25,35,40), scaled to (10,15,20)). Redundant input
 * nodes cost both compute and transfer, so redundancy-unaware
 * partitioners grow more expensive with K.
 */
#include <cstdio>

#include "bench_common.h"

int
main(int argc, char** argv)
{
    using namespace betty;
    using namespace betty::benchutil;
    ObsSession obs("bench_training_time", &argc, argv);

    std::printf("Figure 14: train + transfer time vs #batches, "
                "3-layer SAGE + Mean, products_like\n");
    const auto ds = loadBenchDataset("products_like", 1.0);
    NeighborSampler sampler(ds.graph, {10, 15, 20}, 7);
    std::vector<int64_t> seeds(
        ds.trainNodes.begin(),
        ds.trainNodes.begin() +
            std::min<size_t>(ds.trainNodes.size(), 512));
    const auto full = sampler.sample(seeds);

    SageConfig cfg;
    cfg.inputDim = ds.featureDim();
    cfg.hiddenDim = 32;
    cfg.numClasses = ds.numClasses;
    cfg.numLayers = 3;
    cfg.seed = 3;

    TablePrinter table(
        "epoch time (s): compute + simulated transfer");
    table.setHeader({"K", "partitioner", "compute_s", "transfer_s",
                     "total_s", "input_nodes"});
    for (int32_t k : {1, 2, 4, 8, 16, 32}) {
        for (const auto& pname : partitionerNames()) {
            if (k == 1 && pname != "betty")
                continue; // K=1 is identical for everyone
            auto part = makePartitioner(pname, ds.graph);
            const auto micros =
                extractMicroBatches(full, part->partition(full, k));

            GraphSage model(cfg);
            Adam adam(model.parameters(), 0.01f);
            TransferModel transfer;
            Trainer trainer(ds, model, adam, nullptr, &transfer);
            // Fastest of three repetitions: noise-robust on one core.
            EpochStats stats = trainer.trainMicroBatches(micros);
            for (int rep = 0; rep < 2; ++rep) {
                auto again = trainer.trainMicroBatches(micros);
                if (again.computeSeconds < stats.computeSeconds)
                    stats = again;
            }
            table.addRow(
                {std::to_string(k), pname,
                 TablePrinter::num(stats.computeSeconds, 3),
                 TablePrinter::num(stats.transferSeconds, 4),
                 TablePrinter::num(stats.computeSeconds +
                                       stats.transferSeconds,
                                   3),
                 TablePrinter::count(stats.inputNodesProcessed)});
            obs.result(pname + ".k" + std::to_string(k) +
                           ".total_s",
                       stats.computeSeconds +
                           stats.transferSeconds);
        }
    }
    table.print();

    // Transfer-compute pipelining: epoch wall-clock vs thread count
    // (betty partitioning at K = 16; identical losses/stats at every
    // thread count — see tests/test_pipeline.cc).
    {
        auto part = makePartitioner("betty", ds.graph);
        const auto micros =
            extractMicroBatches(full, part->partition(full, 16));
        TablePrinter table("pipelined epoch wall-clock vs threads "
                           "(K = 16, best of 3)");
        table.setHeader({"threads", "wall_s", "compute_s",
                         "transfer_s", "speedup"});
        double serial_wall = 0.0;
        for (int32_t threads : {1, 2, 4}) {
            ThreadPool::setGlobalThreads(threads);
            GraphSage model(cfg);
            Adam adam(model.parameters(), 0.01f);
            TransferModel transfer;
            Trainer trainer(ds, model, adam, nullptr, &transfer);
            double best_wall = 1e300;
            EpochStats stats;
            for (int rep = 0; rep < 3; ++rep) {
                Timer wall;
                const auto run = trainer.trainMicroBatches(micros);
                if (wall.seconds() < best_wall) {
                    best_wall = wall.seconds();
                    stats = run;
                }
            }
            if (threads == 1)
                serial_wall = best_wall;
            obs.result("pipeline.threads" +
                           std::to_string(threads) + ".wall_s",
                       best_wall);
            table.addRow({std::to_string(threads),
                          TablePrinter::num(best_wall, 3),
                          TablePrinter::num(stats.computeSeconds, 3),
                          TablePrinter::num(stats.transferSeconds, 4),
                          TablePrinter::num(serial_wall / best_wall,
                                            2) +
                              "x"});
        }
        ThreadPool::setGlobalThreads(1);
        table.print();
    }

    // Transfer-seconds saved as a function of cache size and K: the
    // same trained epochs with a FeatureCache between the gather and
    // the TransferModel (betty partitioning, 2 epochs so the second
    // epoch hits rows the first inserted). Numerics are bit-identical
    // to the uncached rows above; only bytes moved change.
    {
        const int64_t row_bytes =
            ds.featureDim() * int64_t(sizeof(float));
        TablePrinter table("transfer seconds vs cache size "
                           "(betty partitioner, 2 epochs)");
        table.setHeader({"K", "cache_gib", "transfer_s", "saved_mib",
                         "hit_rate_%"});
        for (int32_t k : {4, 16}) {
            auto part = makePartitioner("betty", ds.graph);
            const auto micros =
                extractMicroBatches(full, part->partition(full, k));
            for (double cache_gib : {0.0, 0.01, 0.05}) {
                GraphSage model(cfg);
                Adam adam(model.parameters(), 0.01f);
                TransferModel transfer;
                DeviceMemoryModel device(deviceCapacityBytes());
                Trainer trainer(ds, model, adam, &device, &transfer);
                std::unique_ptr<FeatureCache> cache;
                if (cache_gib > 0.0) {
                    cache = std::make_unique<FeatureCache>(
                        &device, gib(cache_gib), row_bytes);
                    trainer.setFeatureCache(cache.get());
                }
                double transfer_s = 0.0;
                for (int epoch = 0; epoch < 2; ++epoch)
                    transfer_s +=
                        trainer.trainMicroBatches(micros)
                            .transferSeconds;
                const FeatureCacheStats stats =
                    cache ? cache->stats() : FeatureCacheStats{};
                const int64_t rows = stats.hits + stats.misses;
                table.addRow(
                    {std::to_string(k), TablePrinter::num(cache_gib, 3),
                     TablePrinter::num(transfer_s, 4),
                     TablePrinter::num(toMiB(stats.bytesSaved), 2),
                     TablePrinter::num(
                         rows ? 100.0 * double(stats.hits) /
                                    double(rows)
                              : 0.0,
                         1)});
            }
        }
        table.print();
    }

    std::printf("\nShape targets: time grows with K for every "
                "partitioner (redundancy + lower efficiency); betty "
                "is the fastest column at every K (paper: 20.6-22.9%% "
                "better compute efficiency). With >= 2 cores the "
                "pipelined sweep overlaps the feature gather with "
                "compute, shrinking wall-clock at identical stats. "
                "In the cache sweep transfer_s falls as cache_gib "
                "grows (never rises: LRU stack inclusion), with the "
                "epoch-2 re-reads fully absorbed once the working set "
                "fits.\n");
    return 0;
}
