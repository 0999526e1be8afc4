/**
 * @file
 * Tests for the multilevel K-way min-cut partitioner (our METIS
 * equivalent) and its phases.
 */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/csr_graph.h"
#include "partition/coarsen.h"
#include "partition/initial.h"
#include "partition/kway_partitioner.h"
#include "partition/refine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

/** Two dense 10-cliques joined by one weak edge. */
WeightedGraph
twoCliques()
{
    std::vector<WeightedEdge> edges;
    for (int64_t c = 0; c < 2; ++c)
        for (int64_t i = 0; i < 10; ++i)
            for (int64_t j = i + 1; j < 10; ++j)
                edges.push_back({c * 10 + i, c * 10 + j, 10});
    edges.push_back({0, 10, 1});
    return WeightedGraph(20, edges);
}

WeightedGraph
randomGraph(int64_t n, int64_t edges_per_node, uint64_t seed)
{
    Rng rng(seed);
    std::vector<WeightedEdge> edges;
    for (int64_t v = 0; v < n; ++v)
        for (int64_t e = 0; e < edges_per_node; ++e)
            edges.push_back({v, int64_t(rng.uniformInt(uint64_t(n))),
                             int64_t(1 + rng.uniformInt(5))});
    return WeightedGraph(n, edges);
}

TEST(HeavyEdgeMatching, ProducesValidMatching)
{
    const auto g = randomGraph(200, 4, 1);
    Rng rng(2);
    const auto match = heavyEdgeMatching(g, rng);
    for (int64_t v = 0; v < g.numNodes(); ++v) {
        const int64_t partner = match[size_t(v)];
        ASSERT_GE(partner, 0);
        ASSERT_LT(partner, g.numNodes());
        EXPECT_EQ(match[size_t(partner)], v) << "matching not mutual";
    }
}

TEST(HeavyEdgeMatching, MatchesMostVerticesOnDenseGraph)
{
    const auto g = twoCliques();
    Rng rng(3);
    const auto match = heavyEdgeMatching(g, rng);
    int64_t singletons = 0;
    for (int64_t v = 0; v < g.numNodes(); ++v)
        singletons += match[size_t(v)] == v;
    EXPECT_LE(singletons, 2);
}

TEST(Coarsen, PreservesTotalVertexWeight)
{
    const auto g = randomGraph(100, 3, 4);
    Rng rng(5);
    const auto level = coarsen(g, heavyEdgeMatching(g, rng));
    EXPECT_EQ(level.graph.totalVertexWeight(), g.totalVertexWeight());
    EXPECT_LT(level.graph.numNodes(), g.numNodes());
}

TEST(Coarsen, MappingCoversAllCoarseVertices)
{
    const auto g = randomGraph(100, 3, 6);
    Rng rng(7);
    const auto level = coarsen(g, heavyEdgeMatching(g, rng));
    std::set<int64_t> coarse_ids(level.fineToCoarse.begin(),
                                 level.fineToCoarse.end());
    EXPECT_EQ(int64_t(coarse_ids.size()), level.graph.numNodes());
}

TEST(Coarsen, CutIsPreservedUnderProjection)
{
    // Any coarse partition, projected to the fine graph, must have the
    // same cut (intra-pair edges never cross parts).
    const auto g = randomGraph(80, 4, 8);
    Rng rng(9);
    const auto matching = heavyEdgeMatching(g, rng);
    const auto level = coarsen(g, matching);
    std::vector<int32_t> coarse_parts(size_t(level.graph.numNodes()));
    for (size_t i = 0; i < coarse_parts.size(); ++i)
        coarse_parts[i] = int32_t(i % 2);
    std::vector<int32_t> fine_parts(size_t(g.numNodes()));
    for (int64_t v = 0; v < g.numNodes(); ++v)
        fine_parts[size_t(v)] =
            coarse_parts[size_t(level.fineToCoarse[size_t(v)])];
    EXPECT_EQ(g.cutCost(fine_parts),
              level.graph.cutCost(coarse_parts));
}

TEST(GreedyGrow, AssignsEveryVertex)
{
    const auto g = randomGraph(150, 3, 10);
    Rng rng(11);
    const auto parts = greedyGrowPartition(g, 4, rng);
    for (int32_t p : parts) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 4);
    }
}

TEST(GreedyGrow, RoughBalance)
{
    const auto g = randomGraph(200, 3, 12);
    Rng rng(13);
    const auto parts = greedyGrowPartition(g, 4, rng);
    std::vector<int64_t> sizes(4, 0);
    for (int32_t p : parts)
        ++sizes[size_t(p)];
    EXPECT_GE(*std::min_element(sizes.begin(), sizes.end()), 25);
}

TEST(Refine, NeverWorsensCut)
{
    const auto g = randomGraph(150, 4, 14);
    Rng part_rng(15);
    std::vector<int32_t> parts(size_t(g.numNodes()));
    for (auto& p : parts)
        p = int32_t(part_rng.uniformInt(3));
    const int64_t before = g.cutCost(parts);
    Rng rng(16);
    const int64_t gain = refineKway(g, parts, 3, 1.1, 8, rng);
    EXPECT_EQ(g.cutCost(parts), before - gain);
    EXPECT_GE(gain, 0);
}

TEST(Rebalance, RestoresBound)
{
    const auto g = randomGraph(100, 3, 17);
    // Pathological start: everything in part 0.
    std::vector<int32_t> parts(size_t(g.numNodes()), 0);
    Rng rng(18);
    rebalance(g, parts, 4, 1.1, rng);
    EXPECT_LE(partitionImbalance(g, parts, 4), 1.1 + 1e-9);
}

TEST(KwayPartition, SeparatesCliques)
{
    const auto g = twoCliques();
    KwayOptions opts;
    opts.k = 2;
    const auto parts = kwayPartition(g, opts);
    // Perfect answer: the weak edge is the only cut.
    EXPECT_EQ(g.cutCost(parts), 1);
}

TEST(KwayPartition, KOneIsTrivial)
{
    const auto g = randomGraph(50, 3, 19);
    KwayOptions opts;
    opts.k = 1;
    const auto parts = kwayPartition(g, opts);
    for (int32_t p : parts)
        EXPECT_EQ(p, 0);
}

TEST(KwayPartition, HandlesIsolatedVertices)
{
    const WeightedGraph g(10, {{0, 1, 1}});
    KwayOptions opts;
    opts.k = 3;
    const auto parts = kwayPartition(g, opts);
    EXPECT_EQ(int64_t(parts.size()), 10);
    EXPECT_LE(partitionImbalance(g, parts, 3), opts.imbalance + 1e-9);
}

TEST(KwayPartition, KLargerThanGraph)
{
    const WeightedGraph g(3, {{0, 1, 1}, {1, 2, 1}});
    KwayOptions opts;
    opts.k = 8;
    const auto parts = kwayPartition(g, opts);
    for (int32_t p : parts) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 8);
    }
}

TEST(KwayPartition, EmptyGraph)
{
    const WeightedGraph g(0, {});
    KwayOptions opts;
    opts.k = 4;
    EXPECT_TRUE(kwayPartition(g, opts).empty());
}

TEST(KwayPartition, BeatsRandomOnCommunityGraph)
{
    // A homophilous synthetic graph has community structure the
    // min-cut partitioner must exploit far better than random.
    SyntheticSpec spec;
    spec.numNodes = 600;
    spec.avgDegree = 10;
    spec.numClasses = 4;
    spec.homophily = 0.9;
    spec.featureDim = 4;
    const auto ds = makeSyntheticDataset(spec, 20);
    std::vector<WeightedEdge> wedges;
    for (const auto& e : ds.graph.edgeList())
        wedges.push_back({e.src, e.dst, 1});
    const WeightedGraph g(ds.numNodes(), wedges);

    KwayOptions opts;
    opts.k = 4;
    const auto parts = kwayPartition(g, opts);

    Rng rng(21);
    std::vector<int32_t> random_parts(size_t(g.numNodes()));
    for (auto& p : random_parts)
        p = int32_t(rng.uniformInt(4));

    EXPECT_LT(double(g.cutCost(parts)),
              0.6 * double(g.cutCost(random_parts)));
}

/** Restarts run one per pool slot: every lane count must return the
 * serial loop's parts — the first run with the lowest cut. */
class KwayLanes : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_F(KwayLanes, IdenticalPartsAtEveryLaneCount)
{
    SyntheticSpec spec;
    spec.numNodes = 800;
    spec.avgDegree = 8;
    spec.numClasses = 5;
    spec.homophily = 0.8;
    spec.featureDim = 4;
    const auto ds = makeSyntheticDataset(spec, 71);
    std::vector<WeightedEdge> community_edges;
    for (const auto& e : ds.graph.edgeList())
        community_edges.push_back({e.src, e.dst, 1});
    const std::vector<std::pair<std::string, WeightedGraph>> graphs = {
        {"two cliques", twoCliques()},
        {"random 300", randomGraph(300, 5, 22)},
        {"random 1000", randomGraph(1000, 3, 72)},
        {"community 800", WeightedGraph(ds.numNodes(), community_edges)},
    };

    for (const auto& [name, graph] : graphs) {
        for (const int32_t k : {2, 3, 7, 16}) {
            for (const int32_t restarts : {1, 3, 5}) {
                SCOPED_TRACE(name + " k=" + std::to_string(k) +
                             " restarts=" + std::to_string(restarts));
                KwayOptions opts;
                opts.k = k;
                opts.restarts = restarts;

                // The serial rule, one restart at a time.
                ThreadPool::setGlobalThreads(1);
                std::vector<int32_t> serial;
                int64_t serial_cut = 0;
                for (int32_t run = 0; run < restarts; ++run) {
                    KwayOptions one = opts;
                    one.restarts = 1;
                    one.seed = opts.seed + uint64_t(run) * 0x9e3779b9ULL;
                    auto parts = kwayPartition(graph, one);
                    const int64_t cut = graph.cutCost(parts);
                    if (run == 0 || cut < serial_cut) {
                        serial_cut = cut;
                        serial = std::move(parts);
                    }
                }

                for (const int32_t lanes : {1, 2, 3, 8}) {
                    ThreadPool::setGlobalThreads(lanes);
                    EXPECT_EQ(kwayPartition(graph, opts), serial)
                        << "lanes " << lanes;
                }
            }
        }
    }
}

/** Property sweep over k: validity, balance, and beating random. */
class KwaySweep : public ::testing::TestWithParam<int32_t>
{
};

TEST_P(KwaySweep, ValidBalancedAndCompetitive)
{
    const int32_t k = GetParam();
    const auto g = randomGraph(300, 5, 22);
    KwayOptions opts;
    opts.k = k;
    const auto parts = kwayPartition(g, opts);
    ASSERT_EQ(int64_t(parts.size()), g.numNodes());
    for (int32_t p : parts) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, k);
    }
    EXPECT_LE(partitionImbalance(g, parts, k), opts.imbalance + 1e-9);

    Rng rng(23);
    std::vector<int32_t> random_parts(size_t(g.numNodes()));
    for (auto& p : random_parts)
        p = int32_t(rng.uniformInt(uint64_t(k)));
    if (k > 1)
        EXPECT_LE(g.cutCost(parts), g.cutCost(random_parts));
}

INSTANTIATE_TEST_SUITE_P(Ks, KwaySweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32));

} // namespace
} // namespace betty
