/**
 * @file
 * Figures 2 and 10: the GNN memory capacity wall, and Betty breaking
 * it.
 *
 * Four sweeps on the products-like dataset mirror Figure 2's panels:
 * (a) aggregator type, (b) number of SAGE layers, (c) hidden size,
 * (d) fanout with the LSTM aggregator. For each configuration we
 * report the estimated full-batch peak, whether it exceeds the
 * simulated device capacity (the paper's OOM), and — the Figure 10
 * half — the number of micro-batches Betty's memory-aware planner
 * chooses to make the run fit.
 */
#include <cstdio>

#include "bench_common.h"

namespace betty {
namespace {

using benchutil::toGiB;

struct Row
{
    std::string label;
    SageConfig config;
    std::vector<int64_t> fanouts;
};

void
runPanel(const std::string& title, const Dataset& ds,
         const std::vector<Row>& rows, int64_t capacity)
{
    TablePrinter table(title);
    table.setHeader({"config", "est_full_GiB", "full_batch",
                     "betty_K", "betty_maxGiB"});
    for (const Row& row : rows) {
        NeighborSampler sampler(ds.graph, row.fanouts, 7);
        // A 4096-seed batch: sparse enough that the receptive field
        // multiplies per layer instead of saturating the graph.
        std::vector<int64_t> seeds(
            ds.trainNodes.begin(),
            ds.trainNodes.begin() +
                std::min<size_t>(ds.trainNodes.size(), 4096));
        const auto full = sampler.sample(seeds);
        GraphSage model(row.config);
        const auto spec = model.memorySpec();
        const auto est = estimateBatchMemory(full, spec);

        BettyConfig config;
        config.deviceCapacityBytes = capacity;
        Betty betty(spec, config);
        const auto plan = betty.plan(full);

        table.addRow({row.label, TablePrinter::num(toGiB(est.peak), 3),
                      est.peak > capacity ? "OOM" : "fits",
                      plan.fits ? std::to_string(plan.k) : "none",
                      TablePrinter::num(toGiB(plan.maxEstimatedPeak),
                                        3)});
    }
    table.print();
}

} // namespace
} // namespace betty

int
main()
{
    using namespace betty;
    using namespace betty::benchutil;

    const int64_t capacity = deviceCapacityBytes();
    std::printf("Figures 2 + 10: memory wall on products_like; "
                "simulated device = %.2f GiB\n",
                toGiB(capacity));
    const auto ds = loadBenchDataset("products_like", 0.3);
    std::printf("dataset: %lld nodes, %lld edges, %lld train seeds\n",
                (long long)ds.numNodes(), (long long)ds.numEdges(),
                (long long)ds.trainNodes.size());

    auto base = [&](AggregatorKind agg, int64_t layers,
                    int64_t hidden) {
        SageConfig cfg;
        cfg.inputDim = ds.featureDim();
        cfg.hiddenDim = hidden;
        cfg.numClasses = ds.numClasses;
        cfg.numLayers = layers;
        cfg.aggregator = agg;
        return cfg;
    };

    // (a) Aggregators, 2 layers, fanout (10, 25) scaled to (5, 12).
    {
        std::vector<Row> rows;
        for (auto agg : {AggregatorKind::Mean, AggregatorKind::Sum,
                         AggregatorKind::Pool, AggregatorKind::Lstm})
            rows.push_back({aggregatorName(agg), base(agg, 2, 64),
                            {5, 12}});
        runPanel("(a) aggregator sweep (2-layer SAGE, hidden 64)", ds,
                 rows, capacity);
    }

    // (b) Depth 1-5, Mean, fanouts (10,25,30,40) scaled to
    // (5,12,15,20) plus a 5th layer.
    {
        const std::vector<int64_t> all_fanouts = {5, 12, 15, 20, 20};
        std::vector<Row> rows;
        for (int64_t layers = 1; layers <= 5; ++layers) {
            std::vector<int64_t> fanouts(
                all_fanouts.begin(), all_fanouts.begin() + layers);
            rows.push_back({std::to_string(layers) + "-layer",
                            base(AggregatorKind::Mean, layers, 64),
                            fanouts});
        }
        runPanel("(b) depth sweep (Mean, hidden 64)", ds, rows,
                 capacity);
    }

    // (c) Hidden size sweep, Mean, 4 layers.
    {
        std::vector<Row> rows;
        for (int64_t hidden : {32, 64, 128, 256, 512})
            rows.push_back({"hidden " + std::to_string(hidden),
                            base(AggregatorKind::Mean, 4, hidden),
                            {5, 12, 15, 20}});
        runPanel("(c) hidden-size sweep (Mean, 4 layers)", ds, rows,
                 capacity);
    }

    // (d) Fanout sweep, 1-layer LSTM (the paper's 10 -> 800 becomes
    // 5 -> 100; the graph caps the effective degree).
    {
        std::vector<Row> rows;
        for (int64_t fanout : {5, 10, 25, 100})
            rows.push_back({"fanout " + std::to_string(fanout),
                            base(AggregatorKind::Lstm, 1, 64),
                            {fanout}});
        runPanel("(d) fanout sweep (1-layer LSTM)", ds, rows, capacity);
    }

    std::printf("\nShape targets: LSTM >> pool/sum/mean in (a); "
                "near-exponential growth with depth in (b); growth "
                "with hidden in (c) and fanout in (d); Betty finds a "
                "finite K for every OOM row (Figure 10).\n");
    return 0;
}
