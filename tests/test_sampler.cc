/**
 * @file
 * Tests for multi-layer neighbor sampling.
 */
#include <set>

#include <gtest/gtest.h>

#include "data/catalog.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

TEST(NeighborSampler, OneLayerFullTakesAllNeighbors)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {-1});
    const auto batch = sampler.sample({1});
    ASSERT_EQ(batch.numLayers(), 1);
    const Block& block = batch.blocks[0];
    EXPECT_EQ(block.numDst(), 1);
    EXPECT_EQ(block.inDegree(0), g.inDegree(1));
}

TEST(NeighborSampler, FanoutBoundsInDegree)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {2});
    const auto batch = sampler.sample({1, 8});
    for (int64_t d = 0; d < batch.blocks[0].numDst(); ++d)
        EXPECT_LE(batch.blocks[0].inDegree(d), 2);
}

TEST(NeighborSampler, SampledNeighborsAreRealNeighbors)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {3});
    const auto batch = sampler.sample({1, 6, 8});
    const Block& block = batch.blocks[0];
    for (int64_t d = 0; d < block.numDst(); ++d) {
        const int64_t dst_global = block.dstNodes()[size_t(d)];
        const auto real = g.inNeighbors(dst_global);
        const std::set<int64_t> real_set(real.begin(), real.end());
        for (int64_t s : block.inEdges(d)) {
            const int64_t src_global = block.srcNodes()[size_t(s)];
            EXPECT_TRUE(real_set.count(src_global))
                << src_global << " is not an in-neighbor of "
                << dst_global;
        }
    }
}

TEST(NeighborSampler, SampledNeighborsDistinct)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {3});
    const auto batch = sampler.sample({1});
    const Block& block = batch.blocks[0];
    std::set<int64_t> seen;
    for (int64_t s : block.inEdges(0))
        EXPECT_TRUE(seen.insert(s).second) << "duplicate neighbor";
}

TEST(NeighborSampler, TwoLayerChainInvariant)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {2, 2});
    const auto batch = sampler.sample({1, 8});
    ASSERT_EQ(batch.numLayers(), 2);
    const auto inner_dsts = batch.blocks[0].dstNodes();
    const auto& outer_srcs = batch.blocks[1].srcNodes();
    ASSERT_EQ(inner_dsts.size(), outer_srcs.size());
    for (size_t i = 0; i < outer_srcs.size(); ++i)
        EXPECT_EQ(inner_dsts[i], outer_srcs[i]);
}

TEST(NeighborSampler, OutputNodesAreTheSeeds)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {2, 2});
    const auto batch = sampler.sample({4, 7, 9});
    const auto outputs = batch.outputNodes();
    ASSERT_EQ(outputs.size(), 3u);
    EXPECT_EQ(outputs[0], 4);
    EXPECT_EQ(outputs[1], 7);
    EXPECT_EQ(outputs[2], 9);
}

TEST(NeighborSampler, DeterministicGivenSeed)
{
    const auto g = testutil::toyGraph();
    NeighborSampler a(g, {2, 2}, 42), b(g, {2, 2}, 42);
    const auto ba = a.sample({1, 5});
    const auto bb = b.sample({1, 5});
    EXPECT_EQ(ba.inputNodes(), bb.inputNodes());
    EXPECT_EQ(ba.totalEdges(), bb.totalEdges());
}

TEST(NeighborSampler, GrowthAcrossLayers)
{
    const auto ds = loadCatalogDataset("arxiv_like", 0.05);
    NeighborSampler sampler(ds.graph, {5, 10});
    std::vector<int64_t> seeds(ds.trainNodes.begin(),
                               ds.trainNodes.begin() + 50);
    const auto batch = sampler.sample(seeds);
    // The receptive field must grow inward.
    EXPECT_GT(batch.blocks[1].numSrc(), batch.blocks[1].numDst());
    EXPECT_GE(batch.blocks[0].numSrc(), batch.blocks[1].numSrc());
    EXPECT_EQ(batch.blocks[1].numDst(), 50);
}

TEST(NeighborSampler, FullSamplingMatchesGraphDegrees)
{
    const auto ds = loadCatalogDataset("cora_like", 0.05);
    NeighborSampler sampler(ds.graph, {-1});
    std::vector<int64_t> seeds = {0, 1, 2, 3};
    const auto batch = sampler.sample(seeds);
    for (int64_t d = 0; d < batch.blocks[0].numDst(); ++d) {
        const int64_t global = batch.blocks[0].dstNodes()[size_t(d)];
        EXPECT_EQ(batch.blocks[0].inDegree(d), ds.graph.inDegree(global));
    }
}

TEST(NeighborSamplerDeathTest, EmptySeedsPanics)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {2});
    EXPECT_DEATH(sampler.sample({}), "empty seed");
}

TEST(NeighborSamplerDeathTest, DuplicateSeedsPanic)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {2, 2});
    EXPECT_DEATH(sampler.sample({1, 8, 1}), "duplicate destination node");
}

/**
 * The flat-CSR sampler against the per-destination reference
 * (testutil::referenceSample): full fanout, destinations without
 * in-edges at the output and inner layers, a 3-layer products batch,
 * two calls each, on 1, 3 and 8 pool lanes.
 */
class NeighborSamplerReference : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_F(NeighborSamplerReference, MatchesPerDestinationBlocksAtEveryLaneCount)
{
    // toyGraph plus nodes 10-13 without in-edges; 10 and 11 feed it,
    // so they also appear as inner-layer destinations of degree 0.
    std::vector<Edge> edges = testutil::toyGraph().edgeList();
    edges.push_back({10, 1});
    edges.push_back({11, 8});
    const CsrGraph toy(14, edges);
    const auto products = loadCatalogDataset("products_like", 0.05, 42);
    std::vector<int64_t> product_seeds(products.trainNodes.begin(),
                                       products.trainNodes.begin() + 300);
    struct Case
    {
        std::string label;
        const CsrGraph* graph;
        std::vector<int64_t> fanouts;
        std::vector<int64_t> seeds;
    };
    const std::vector<Case> cases = {
        {"toy full", &toy, {-1, -1}, {1, 12, 8, 13}},
        {"toy mixed", &toy, {2, -1, 1}, {13, 6, 1}},
        {"products 3 layers", &products.graph, {5, 10, 15},
         product_seeds},
        {"products full outer", &products.graph, {4, -1},
         {product_seeds.begin(), product_seeds.begin() + 40}},
    };
    for (const int32_t lanes : {1, 3, 8}) {
        ThreadPool::setGlobalThreads(lanes);
        for (const Case& c : cases) {
            SCOPED_TRACE(c.label + " lanes=" + std::to_string(lanes));
            NeighborSampler sampler(*c.graph, c.fanouts, 51);
            for (uint64_t call = 0; call < 2; ++call) {
                testutil::expectSameBatches(
                    {sampler.sample(c.seeds)},
                    {testutil::referenceSample(*c.graph, c.fanouts, 51,
                                               call, c.seeds)});
            }
        }
    }
}

// -------------------------------------------------------------------
// Counter-based RNG stream contract: the k-th sample() call derives a
// call seed from (seed, k), and each (layer, dst) draws from its own
// stream Rng::stream(call_seed, layer, dst). A destination's sample
// is a pure function of (seed, call index, layer, dst) — never of
// which other seeds are in the batch or how the work is split across
// ThreadPool lanes — while repeated calls (epochs) draw fresh
// neighborhoods instead of replaying one fixed subgraph.

/** The sources sampled for one dst in one one-layer batch. */
std::vector<int64_t>
sampledSourcesOf(const MultiLayerBatch& batch, int64_t dst_global)
{
    const Block& block = batch.blocks[0];
    for (int64_t d = 0; d < block.numDst(); ++d) {
        if (block.dstNodes()[size_t(d)] != dst_global)
            continue;
        std::vector<int64_t> sources;
        for (int64_t s : block.inEdges(d))
            sources.push_back(block.srcNodes()[size_t(s)]);
        return sources;
    }
    ADD_FAILURE() << "dst " << dst_global << " not in batch";
    return {};
}

TEST(NeighborSamplerStreams, RepeatedCallsDrawFreshNeighborhoods)
{
    // Each call advances the sampler's call counter, so a second
    // epoch over the same seeds draws a fresh sampled subgraph (the
    // stochasticity neighbor sampling relies on) — while two samplers
    // with the same seed replay the same call sequence bit-for-bit.
    const auto ds = loadCatalogDataset("arxiv_like", 0.05);
    NeighborSampler a(ds.graph, {5, 10}, 42);
    NeighborSampler b(ds.graph, {5, 10}, 42);
    std::vector<int64_t> seeds(ds.trainNodes.begin(),
                               ds.trainNodes.begin() + 50);
    const auto a1 = a.sample(seeds);
    const auto a2 = a.sample(seeds);
    const auto b1 = b.sample(seeds);
    const auto b2 = b.sample(seeds);
    EXPECT_NE(a1.inputNodes(), a2.inputNodes())
        << "second epoch replayed the first call's sampled subgraph";
    EXPECT_EQ(a1.inputNodes(), b1.inputNodes());
    EXPECT_EQ(a1.blocks[0].edgeSources(), b1.blocks[0].edgeSources());
    EXPECT_EQ(a2.inputNodes(), b2.inputNodes());
    EXPECT_EQ(a2.blocks[0].edgeSources(), b2.blocks[0].edgeSources());
}

TEST(NeighborSamplerStreams, SampleIndependentOfBatchComposition)
{
    // Node 1's sampled neighborhood is the same whether it is sampled
    // alone, with company, or at a different position in the seed
    // list — within one call the stream key is (call_seed, layer,
    // dst), not the iteration index. Fresh samplers pin each call to
    // call index 0.
    const auto g = testutil::toyGraph();
    NeighborSampler s1(g, {2}, 42);
    NeighborSampler s2(g, {2}, 42);
    NeighborSampler s3(g, {2}, 42);
    const auto alone = sampledSourcesOf(s1.sample({1}), 1);
    const auto with_company =
        sampledSourcesOf(s2.sample({6, 1, 8}), 1);
    const auto at_the_back =
        sampledSourcesOf(s3.sample({8, 6, 1}), 1);
    EXPECT_EQ(alone, with_company);
    EXPECT_EQ(alone, at_the_back);
}

TEST(NeighborSamplerStreams, OnlyTheCallIndexCarriesAcrossCalls)
{
    // The only state a call leaves behind is the incremented call
    // counter: the k-th calls of two same-seed samplers agree even
    // when their earlier calls sampled entirely different seed sets.
    const auto g = testutil::toyGraph();
    NeighborSampler a(g, {2, 2}, 7);
    NeighborSampler b(g, {2, 2}, 7);
    a.sample({4, 9});
    a.sample({0});
    b.sample({2});
    b.sample({3, 6, 7});
    const auto third_a = a.sample({1, 5});
    const auto third_b = b.sample({1, 5});
    EXPECT_EQ(third_a.inputNodes(), third_b.inputNodes());
    EXPECT_EQ(third_a.blocks[0].edgeSources(),
              third_b.blocks[0].edgeSources());
}

TEST(NeighborSamplerStreams, LayersDrawFromDistinctStreams)
{
    // The same dst appearing in two layers must not replay the same
    // random draws: the layer index is part of the stream key.
    EXPECT_NE(Rng::streamKey(42, 0, 1), Rng::streamKey(42, 1, 1));
    EXPECT_NE(Rng::streamKey(42, 0, 1), Rng::streamKey(42, 0, 2));
    EXPECT_NE(Rng::streamKey(42, 0, 1), Rng::streamKey(43, 0, 1));
}

/** Property sweep: for any fanout, block degrees never exceed it and
 * every destination with in-neighbors keeps at least one. */
class SamplerFanout : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SamplerFanout, DegreeBoundHolds)
{
    const int64_t fanout = GetParam();
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {fanout, fanout});
    const auto batch = sampler.sample({1, 6, 8});
    for (const auto& block : batch.blocks) {
        for (int64_t d = 0; d < block.numDst(); ++d) {
            EXPECT_LE(block.inDegree(d), fanout);
            const int64_t global = block.dstNodes()[size_t(d)];
            if (g.inDegree(global) > 0)
                EXPECT_GE(block.inDegree(d), 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, SamplerFanout,
                         ::testing::Values(1, 2, 3, 5, 100));

} // namespace
} // namespace betty
