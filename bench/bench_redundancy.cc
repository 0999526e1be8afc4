/**
 * @file
 * Figure 16: input-node redundancy vs the number of batches, for all
 * four partitioners (3-layer SAGE configuration of the paper).
 *
 * Redundancy = sum over micro-batches of first-layer input nodes
 * minus the full batch's input nodes: every extra count is a feature
 * vector loaded, transferred and aggregated more than once.
 */
#include <cstdio>

#include "bench_common.h"

int
main(int argc, char** argv)
{
    using namespace betty;
    using namespace betty::benchutil;
    ObsSession obs("bench_redundancy", &argc, argv);

    std::printf("Figure 16: input-node redundancy vs #batches, "
                "3-layer SAGE, products_like\n");
    const auto ds = loadBenchDataset("products_like", 1.0);
    NeighborSampler sampler(ds.graph, {10, 15, 20}, 7);
    std::vector<int64_t> seeds(
        ds.trainNodes.begin(),
        ds.trainNodes.begin() +
            std::min<size_t>(ds.trainNodes.size(), 512));
    const auto full = sampler.sample(seeds);
    std::printf("full batch: %lld input nodes, %lld edges\n",
                (long long)full.inputNodes().size(),
                (long long)full.totalEdges());

    TablePrinter table("redundant input nodes");
    table.setHeader({"K", "range", "random", "metis", "betty",
                     "betty_saving_%"});
    for (int32_t k : {2, 4, 8, 16, 32, 64}) {
        std::vector<std::string> row = {std::to_string(k)};
        int64_t betty_red = 0, best_other = -1;
        for (const auto& pname : partitionerNames()) {
            auto part = makePartitioner(pname, ds.graph);
            const int64_t red = inputNodeRedundancy(
                full,
                extractMicroBatches(full, part->partition(full, k)));
            row.push_back(TablePrinter::count(red));
            if (pname == "betty")
                betty_red = red;
            else if (best_other < 0 || red < best_other)
                best_other = red;
            obs.result(pname + ".k" + std::to_string(k) +
                           ".redundant_nodes",
                       double(red));
        }
        row.push_back(TablePrinter::num(
            100.0 * (1.0 - double(betty_red) / double(best_other)),
            1));
        table.addRow(row);
    }
    table.print();

    // What the residual redundancy costs in transfer bytes, and how
    // much a device-resident feature cache (docs/CACHING.md) claws
    // back: feed each micro-batch's input rows through a FeatureCache
    // for two epochs and count only the missed rows as transferred.
    // Pure accounting — cached and uncached training are bit-identical
    // in numerics (tests/test_feature_cache_equivalence.cc).
    {
        const int64_t row_bytes =
            ds.featureDim() * int64_t(sizeof(float));
        const int64_t cache_bytes = cacheCapacityBytes();
        const int epochs = 2;
        std::printf("\nfeature cache: %.3f GiB (%lld rows) on a "
                    "%.2f GiB device, policy %s\n",
                    toGiB(cache_bytes),
                    (long long)(cache_bytes / row_bytes),
                    toGiB(deviceCapacityBytes()),
                    cachePolicyName(CachePolicy::Lru));
        TablePrinter table("transfer bytes with a feature cache "
                           "(betty partitioner, 2 epochs)");
        table.setHeader({"K", "uncached_mib", "cached_mib",
                         "saved_mib", "saved_%"});
        for (int32_t k : {2, 4, 8, 16, 32, 64}) {
            auto part = makePartitioner("betty", ds.graph);
            const auto micros =
                extractMicroBatches(full, part->partition(full, k));
            DeviceMemoryModel device(deviceCapacityBytes());
            FeatureCache cache(&device, cache_bytes, row_bytes);
            int64_t uncached = 0, cached = 0;
            for (int epoch = 0; epoch < epochs; ++epoch)
                for (const auto& micro : micros) {
                    const auto result =
                        cache.access(micro.inputNodes());
                    uncached += int64_t(micro.inputNodes().size()) *
                                row_bytes;
                    cached += result.misses * row_bytes;
                }
            table.addRow(
                {std::to_string(k), TablePrinter::num(toMiB(uncached), 2),
                 TablePrinter::num(toMiB(cached), 2),
                 TablePrinter::num(toMiB(uncached - cached), 2),
                 TablePrinter::num(
                     100.0 * (1.0 - double(cached) / double(uncached)),
                     1)});
        }
        table.print();
    }

    std::printf("\nShape targets: betty has the smallest redundancy "
                "in every row, with the advantage growing with K "
                "(paper: up to 49.2%% fewer redundant nodes, 28.4%% "
                "on average). With the default 0.05 GiB cache on the "
                "0.25 GiB device, saved_%% is >= 20 at every K: the "
                "second epoch re-reads rows the first inserted, and "
                "within an epoch the cache absorbs cross-micro-batch "
                "duplicates.\n");
    return 0;
}
