#include "partition/kway_partitioner.h"

#include <algorithm>

#include "obs/trace.h"
#include "partition/coarsen.h"
#include "partition/initial.h"
#include "partition/refine.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {

namespace {

/** One multilevel V-cycle: coarsen, initial partition, refine back. */
std::vector<int32_t>
multilevelCycle(const WeightedGraph& graph, const KwayOptions& opts,
                Rng& rng)
{
    const int64_t coarsen_target =
        std::max<int64_t>(opts.k * opts.coarsenToPerPart, 64);

    // Coarsening: keep matching until the graph is small or matching
    // stops shrinking it (>95% survival means mostly singletons).
    std::vector<CoarseLevel> levels;
    const WeightedGraph* current = &graph;
    {
        BETTY_TRACE_SPAN_CAT("partition/coarsen", "partition");
        while (current->numNodes() > coarsen_target) {
            const auto matching = heavyEdgeMatching(*current, rng);
            CoarseLevel level = coarsen(*current, matching);
            if (level.graph.numNodes() >
                int64_t(double(current->numNodes()) * 0.95)) {
                break;
            }
            levels.push_back(std::move(level));
            current = &levels.back().graph;
        }
    }

    // Initial partition on the coarsest graph, then refine it there.
    std::vector<int32_t> parts;
    {
        BETTY_TRACE_SPAN_CAT("partition/initial", "partition");
        parts = greedyGrowPartition(*current, opts.k, rng);
        rebalance(*current, parts, opts.k, opts.imbalance, rng);
        refineKway(*current, parts, opts.k, opts.imbalance,
                   opts.refinePasses, rng);
    }

    // Uncoarsening: project through the levels, refining each time.
    BETTY_TRACE_SPAN_CAT("partition/refine", "partition");
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        const WeightedGraph& finer =
            (std::next(it) == levels.rend()) ? graph
                                             : std::next(it)->graph;
        std::vector<int32_t> fine_parts(size_t(finer.numNodes()));
        for (int64_t v = 0; v < finer.numNodes(); ++v)
            fine_parts[size_t(v)] =
                parts[size_t(it->fineToCoarse[size_t(v)])];
        parts = std::move(fine_parts);
        rebalance(finer, parts, opts.k, opts.imbalance, rng);
        refineKway(finer, parts, opts.k, opts.imbalance,
                   opts.refinePasses, rng);
    }

    return parts;
}

} // namespace

std::vector<int32_t>
kwayPartition(const WeightedGraph& graph, const KwayOptions& opts)
{
    BETTY_ASSERT(opts.k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/kway", "partition");
    const int64_t n = graph.numNodes();
    if (opts.k == 1 || n == 0)
        return std::vector<int32_t>(size_t(n), 0);

    // Several independent V-cycles; keep the lowest cut (METIS runs
    // multiple initial partitions for the same reason). One restart
    // per pool slot: each seeds its own Rng from its index and writes
    // its own slot, and the first lowest cut wins, so the result is
    // the serial loop's at any lane count.
    const int32_t runs = std::max<int32_t>(1, opts.restarts);
    std::vector<std::vector<int32_t>> parts(static_cast<size_t>(runs));
    std::vector<int64_t> cuts(static_cast<size_t>(runs));
    ThreadPool::global().parallelFor(
        0, runs, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t run = lo; run < hi; ++run) {
                Rng rng(opts.seed + uint64_t(run) * 0x9e3779b9ULL);
                parts[size_t(run)] = multilevelCycle(graph, opts, rng);
                cuts[size_t(run)] = graph.cutCost(parts[size_t(run)]);
            }
        });
    const auto best = std::min_element(cuts.begin(), cuts.end());
    return std::move(parts[size_t(best - cuts.begin())]);
}

std::vector<int32_t>
kwayPartitionWarm(const WeightedGraph& graph, const KwayOptions& opts,
                  std::vector<int32_t> initial)
{
    BETTY_ASSERT(opts.k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/kway_warm", "partition");
    BETTY_ASSERT(int64_t(initial.size()) == graph.numNodes(),
                 "initial assignment size mismatch");
    if (opts.k == 1 || graph.numNodes() == 0)
        return std::vector<int32_t>(size_t(graph.numNodes()), 0);
    for (int32_t p : initial)
        BETTY_ASSERT(p >= 0 && p < opts.k,
                     "initial part id out of range");

    Rng rng(opts.seed);
    rebalance(graph, initial, opts.k, opts.imbalance, rng);
    refineKway(graph, initial, opts.k, opts.imbalance,
               opts.refinePasses, rng);
    return initial;
}

double
partitionImbalance(const WeightedGraph& graph,
                   const std::vector<int32_t>& parts, int32_t k)
{
    BETTY_ASSERT(k >= 1, "k must be >= 1");
    std::vector<int64_t> weights(size_t(k), 0);
    for (int64_t v = 0; v < graph.numNodes(); ++v)
        weights[size_t(parts[size_t(v)])] += graph.vertexWeight(v);
    const int64_t target = (graph.totalVertexWeight() + k - 1) / k;
    if (target == 0)
        return 1.0;
    const int64_t heaviest =
        *std::max_element(weights.begin(), weights.end());
    return double(heaviest) / double(target);
}

} // namespace betty
