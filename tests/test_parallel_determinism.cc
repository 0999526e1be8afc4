/**
 * @file
 * Determinism contract of the parallel batch-preparation engine:
 * sampled MultiLayerBatch blocks, REG edge lists, and Betty partition
 * assignments must be bit-identical for any global ThreadPool size
 * (1, 2, 8) and across repeated runs, on a power-law graph and a
 * bipartite-heavy hub graph that exercises the REG hubPairCap path.
 *
 * Each artifact is reduced to an FNV-1a hash; the expected values are
 * a committed golden corpus (tests/golden/, BETTY_GOLDEN_DIR), so any
 * platform- or schedule-dependent drift — not just thread-count
 * divergence within one process — fails loudly. Regenerate the corpus
 * with BETTY_UPDATE_GOLDEN=1 after an intentional output change.
 */
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/synthetic.h"
#include "graph/csr_graph.h"
#include "partition/partitioner.h"
#include "partition/reg.h"
#include "sampling/neighbor_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "golden.h"

namespace betty {
namespace {

using testutil::checkAgainstGolden;

// -------------------------------------------------------------------
// FNV-1a over int64 streams.

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
fnvMix(uint64_t& hash, int64_t value)
{
    auto bits = uint64_t(value);
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffu;
        hash *= kFnvPrime;
    }
}

template <typename Range>
void
fnvMixRange(uint64_t& hash, const Range& range)
{
    fnvMix(hash, int64_t(range.size()));
    for (const auto value : range)
        fnvMix(hash, int64_t(value));
}

uint64_t
hashBatch(const MultiLayerBatch& batch)
{
    uint64_t hash = kFnvOffset;
    fnvMix(hash, batch.numLayers());
    for (const auto& block : batch.blocks) {
        fnvMix(hash, block.numDst());
        fnvMixRange(hash, block.srcNodes());
        fnvMixRange(hash, block.edgeOffsets());
        fnvMixRange(hash, block.edgeSources());
    }
    return hash;
}

uint64_t
hashReg(const WeightedGraph& reg)
{
    uint64_t hash = kFnvOffset;
    fnvMix(hash, reg.numNodes());
    fnvMix(hash, reg.numEdges());
    for (int64_t v = 0; v < reg.numNodes(); ++v) {
        fnvMix(hash, reg.vertexWeight(v));
        fnvMixRange(hash, reg.neighbors(v));
        fnvMixRange(hash, reg.edgeWeights(v));
    }
    return hash;
}

uint64_t
hashGroups(const std::vector<std::vector<int64_t>>& groups)
{
    uint64_t hash = kFnvOffset;
    fnvMix(hash, int64_t(groups.size()));
    for (const auto& group : groups)
        fnvMixRange(hash, group);
    return hash;
}

// -------------------------------------------------------------------
// Fixture graphs.

/** Heavy-tailed synthetic graph (products_like-style hubs). */
CsrGraph
powerLawGraph()
{
    SyntheticSpec spec;
    spec.name = "determinism_power_law";
    spec.numNodes = 1500;
    spec.avgDegree = 9.0;
    spec.powerLawAlpha = 2.1; // heavy tail: strong hubs
    spec.featureDim = 4;      // features unused here; keep it cheap
    return makeSyntheticDataset(spec, 91).graph;
}

/**
 * Bipartite-heavy graph: a small hub layer feeding a wide destination
 * layer, so the output block's sources have huge fan-out and REG
 * construction takes the hubPairCap sampling path.
 */
CsrGraph
bipartiteHeavyGraph()
{
    constexpr int64_t kHubs = 48;
    constexpr int64_t kDsts = 600;
    std::vector<Edge> edges;
    Rng rng(1234);
    for (int64_t d = 0; d < kDsts; ++d) {
        const int64_t dst = kHubs + d;
        const int64_t fan = 6 + int64_t(rng.next() % 10);
        for (int64_t e = 0; e < fan; ++e) {
            const int64_t hub = int64_t(rng.next() % uint64_t(kHubs));
            edges.push_back({hub, dst});
            edges.push_back({dst, hub}); // keep hubs reachable too
        }
    }
    return CsrGraph(kHubs + kDsts, edges);
}

std::vector<int64_t>
seedNodes(const CsrGraph& graph, int64_t count, int64_t first)
{
    std::vector<int64_t> seeds;
    for (int64_t v = first; v < graph.numNodes() &&
                            int64_t(seeds.size()) < count;
         ++v)
        seeds.push_back(v);
    return seeds;
}

// -------------------------------------------------------------------
// One full preparation pipeline run, reduced to hashes.

struct PrepHashes
{
    uint64_t batch = 0;
    uint64_t reg = 0;
    uint64_t groups = 0;
};

PrepHashes
runPreparation(const CsrGraph& graph,
               const std::vector<int64_t>& seeds)
{
    NeighborSampler sampler(graph, {4, 6}, 7);
    const auto batch = sampler.sample(seeds);
    RegOptions opts;
    opts.hubPairCap = 64; // low cap: force the hub guard path
    const auto reg = buildReg(batch.blocks.back(), opts);
    BettyPartitioner partitioner;
    const auto groups = partitioner.partition(batch, 8);
    PrepHashes hashes;
    hashes.batch = hashBatch(batch);
    hashes.reg = hashReg(reg);
    hashes.groups = hashGroups(groups);
    return hashes;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<const char*>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }

    CsrGraph
    makeGraph() const
    {
        return std::string(GetParam()) == "power_law"
                   ? powerLawGraph()
                   : bipartiteHeavyGraph();
    }
};

TEST_P(ParallelDeterminism, BitIdenticalAcrossThreadCountsAndRuns)
{
    const CsrGraph graph = makeGraph();
    const auto seeds = seedNodes(graph, 384, graph.numNodes() / 3);

    ThreadPool::setGlobalThreads(1);
    const PrepHashes serial = runPreparation(graph, seeds);

    for (const int32_t threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        for (int run = 0; run < 2; ++run) {
            const PrepHashes parallel = runPreparation(graph, seeds);
            EXPECT_EQ(parallel.batch, serial.batch)
                << "sampled blocks diverged at threads=" << threads
                << " run=" << run;
            EXPECT_EQ(parallel.reg, serial.reg)
                << "REG diverged at threads=" << threads
                << " run=" << run;
            EXPECT_EQ(parallel.groups, serial.groups)
                << "partition assignment diverged at threads="
                << threads << " run=" << run;
        }
    }

    checkAgainstGolden(GetParam(),
                       {{"batch", serial.batch},
                        {"reg", serial.reg},
                        {"groups", serial.groups}});
}

INSTANTIATE_TEST_SUITE_P(Graphs, ParallelDeterminism,
                         ::testing::Values("power_law",
                                           "bipartite_heavy"));

/** Element-wise REG comparison (sharper diagnostics than the hash):
 * the parallel per-block merge must be unobservable in the adjacency
 * arrays themselves, not just in a digest. */
TEST(ParallelDeterminism, RegAdjacencyElementwiseIdentical)
{
    const CsrGraph graph = bipartiteHeavyGraph();
    NeighborSampler sampler(graph, {4, 6}, 7);
    const auto batch =
        sampler.sample(seedNodes(graph, 256, graph.numNodes() / 3));

    ThreadPool::setGlobalThreads(1);
    const auto serial = buildReg(batch.blocks.back());
    ThreadPool::setGlobalThreads(8);
    const auto parallel = buildReg(batch.blocks.back());
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(serial.numNodes(), parallel.numNodes());
    ASSERT_EQ(serial.numEdges(), parallel.numEdges());
    for (int64_t v = 0; v < serial.numNodes(); ++v) {
        EXPECT_EQ(serial.vertexWeight(v), parallel.vertexWeight(v));
        const auto s_nbrs = serial.neighbors(v);
        const auto p_nbrs = parallel.neighbors(v);
        const auto s_weights = serial.edgeWeights(v);
        const auto p_weights = parallel.edgeWeights(v);
        ASSERT_EQ(s_nbrs.size(), p_nbrs.size()) << "vertex " << v;
        for (size_t i = 0; i < s_nbrs.size(); ++i) {
            EXPECT_EQ(s_nbrs[i], p_nbrs[i])
                << "vertex " << v << " neighbor " << i;
            EXPECT_EQ(s_weights[i], p_weights[i])
                << "vertex " << v << " weight " << i;
        }
    }
}

} // namespace
} // namespace betty
