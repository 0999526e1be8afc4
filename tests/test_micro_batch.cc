/**
 * @file
 * Tests for micro-batch extraction — the bipartite-closure property
 * that underpins gradient equivalence.
 */
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "core/micro_batch.h"
#include "data/catalog.h"
#include "memory/estimator.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

TEST(MicroBatch, TinyBatchSplit)
{
    const auto full = testutil::tinyBatch();
    const auto micros = extractMicroBatches(full, {{0}, {1}});
    ASSERT_EQ(micros.size(), 2u);
    EXPECT_EQ(micros[0].outputNodes().size(), 1u);
    EXPECT_EQ(micros[0].outputNodes()[0], 0);
    EXPECT_EQ(micros[1].outputNodes()[0], 1);
    // dst 0's sampled neighbors in the outer layer were {2, 3}.
    EXPECT_EQ(micros[0].blocks[1].inDegree(0), 2);
}

TEST(MicroBatch, PreservesSampledEdgesPerDestination)
{
    const auto ds = loadCatalogDataset("cora_like", 0.2, 2);
    NeighborSampler sampler(ds.graph, {3, 5}, 4);
    std::vector<int64_t> seeds(ds.trainNodes.begin(),
                               ds.trainNodes.begin() + 60);
    const auto full = sampler.sample(seeds);

    RandomPartitioner part(5);
    const auto groups = part.partition(full, 4);
    const auto micros = extractMicroBatches(full, groups);

    // For every output node, the outer-layer in-neighbor multiset in
    // its micro-batch must equal the full batch's.
    std::map<int64_t, std::multiset<int64_t>> full_nbrs;
    const Block& fblock = full.blocks.back();
    for (int64_t d = 0; d < fblock.numDst(); ++d) {
        auto& set = full_nbrs[fblock.dstNodes()[size_t(d)]];
        for (int64_t s : fblock.inEdges(d))
            set.insert(fblock.srcNodes()[size_t(s)]);
    }
    for (const auto& micro : micros) {
        const Block& mblock = micro.blocks.back();
        for (int64_t d = 0; d < mblock.numDst(); ++d) {
            std::multiset<int64_t> got;
            for (int64_t s : mblock.inEdges(d))
                got.insert(mblock.srcNodes()[size_t(s)]);
            EXPECT_EQ(got,
                      full_nbrs.at(mblock.dstNodes()[size_t(d)]));
        }
    }
}

TEST(MicroBatch, OutputsDisjointAndCovering)
{
    const auto ds = loadCatalogDataset("arxiv_like", 0.03, 3);
    NeighborSampler sampler(ds.graph, {4, 4}, 5);
    std::vector<int64_t> seeds(ds.trainNodes.begin(),
                               ds.trainNodes.begin() + 100);
    const auto full = sampler.sample(seeds);
    RangePartitioner part;
    const auto micros =
        extractMicroBatches(full, part.partition(full, 5));

    std::set<int64_t> seen;
    for (const auto& micro : micros)
        for (int64_t v : micro.outputNodes())
            EXPECT_TRUE(seen.insert(v).second);
    EXPECT_EQ(seen.size(), full.outputNodes().size());
}

TEST(MicroBatch, LayerChainingInvariantHolds)
{
    const auto full = testutil::tinyBatch();
    const auto micros = extractMicroBatches(full, {{0}, {1}});
    for (const auto& micro : micros) {
        const auto inner_dsts = micro.blocks[0].dstNodes();
        const auto& outer_srcs = micro.blocks[1].srcNodes();
        ASSERT_EQ(inner_dsts.size(), outer_srcs.size());
        for (size_t i = 0; i < outer_srcs.size(); ++i)
            EXPECT_EQ(inner_dsts[i], outer_srcs[i]);
    }
}

TEST(MicroBatch, SharedNeighborsDuplicatedAcrossMicroBatches)
{
    // Outputs 0 and 1 share source 5: splitting them must duplicate 5.
    Block outer({0, 1}, {{5, 6}, {5, 7}});
    // outer sources: 0, 1, 5, 6, 7 -> five inner destinations.
    Block inner(outer.srcNodes(), {{8}, {8}, {9}, {9}, {8}});
    MultiLayerBatch full;
    full.blocks = {inner, outer};

    const auto micros = extractMicroBatches(full, {{0}, {1}});
    const auto& in0 = micros[0].blocks[1].srcNodes();
    const auto& in1 = micros[1].blocks[1].srcNodes();
    EXPECT_TRUE(std::count(in0.begin(), in0.end(), 5));
    EXPECT_TRUE(std::count(in1.begin(), in1.end(), 5));
    EXPECT_GT(inputNodeRedundancy(full, micros), 0);
}

TEST(MicroBatch, SingleGroupHasZeroRedundancy)
{
    const auto full = testutil::tinyBatch();
    const auto outputs = full.outputNodes();
    const auto micros = extractMicroBatches(
        full, {{outputs.begin(), outputs.end()}});
    EXPECT_EQ(inputNodeRedundancy(full, micros), 0);
    EXPECT_EQ(micros[0].totalEdges(), full.totalEdges());
}

TEST(MicroBatch, EmptyGroupYieldsEmptyBatch)
{
    const auto full = testutil::tinyBatch();
    const auto micros = extractMicroBatches(full, {{0, 1}, {}});
    ASSERT_EQ(micros.size(), 2u);
    EXPECT_EQ(micros[1].outputNodes().size(), 0u);
}

TEST(MicroBatch, EdgeTotalsPartitionFullBatchOutputLayer)
{
    const auto ds = loadCatalogDataset("pubmed_like", 0.05, 6);
    NeighborSampler sampler(ds.graph, {3, 3}, 7);
    std::vector<int64_t> seeds(ds.trainNodes.begin(),
                               ds.trainNodes.begin() + 80);
    const auto full = sampler.sample(seeds);
    RandomPartitioner part(8);
    const auto micros =
        extractMicroBatches(full, part.partition(full, 4));
    int64_t outer_edges = 0;
    for (const auto& micro : micros)
        outer_edges += micro.blocks.back().numEdges();
    EXPECT_EQ(outer_edges, full.blocks.back().numEdges());
}

TEST(MicroBatchDeathTest, UnknownOutputNodePanics)
{
    const auto full = testutil::tinyBatch();
    EXPECT_DEATH(extractMicroBatches(full, {{12345}}),
                 "not a destination");
    EXPECT_DEATH(microBatchShapes(full, {{12345}}), "not a destination");
}

TEST(MicroBatchDeathTest, DuplicateOutputNodePanics)
{
    const auto full = testutil::tinyBatch();
    EXPECT_DEATH(extractMicroBatches(full, {{0, 1, 0}}),
                 "duplicate destination node 0");
}

TEST(MicroBatchDeathTest, BrokenChainingInvariantPanics)
{
    // The inner block's destinations are the outer block's sources,
    // but not in their order: local indices no longer line up.
    Block outer({0, 1}, {{2, 3}, {3, 4}});
    Block inner({0, 1, 3, 2, 4}, {{5}, {5, 6}, {7}, {6}, {2, 7}});
    MultiLayerBatch full;
    full.blocks = {inner, outer};
    EXPECT_DEATH(extractMicroBatches(full, {{0}, {1}}),
                 "chaining invariant");
    EXPECT_DEATH(microBatchShapes(full, {{0}, {1}}), "chaining invariant");
}

/**
 * The local-index walk against the constructor-built reference:
 * sampled 2- and 3-layer batches (one with fewer outputs than the
 * largest K, so some groups are empty), range/random/Betty groups,
 * K in {1, 2, 3, 7, 16}, on 1, 3 and 8 pool lanes — blocks, counts,
 * and the count-based estimate under every aggregator.
 */
class MicroBatchWalk : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }

    struct Case
    {
        std::string label;
        const MultiLayerBatch* full;
        int64_t inputDim;
        std::vector<std::vector<int64_t>> groups;
        std::vector<MultiLayerBatch> reference;
    };

    static MultiLayerBatch
    sampled(const Dataset& ds, std::vector<int64_t> fanouts,
            size_t num_seeds, uint64_t seed)
    {
        NeighborSampler sampler(ds.graph, std::move(fanouts), seed);
        std::vector<int64_t> seeds(ds.trainNodes.begin(),
                                   ds.trainNodes.begin() +
                                       int64_t(num_seeds));
        return sampler.sample(seeds);
    }

    /** The count-based estimate must equal the estimate of the
     * reference micro-batch, for every aggregator. */
    static void
    expectSameEstimates(const Case& c,
                        const std::vector<std::vector<BlockShape>>& shapes)
    {
        for (const AggregatorKind agg :
             {AggregatorKind::Mean, AggregatorKind::Sum,
              AggregatorKind::Pool, AggregatorKind::Lstm,
              AggregatorKind::Attention, AggregatorKind::Gcn,
              AggregatorKind::Gin}) {
            GnnSpec spec;
            spec.inputDim = c.inputDim;
            spec.hiddenDim = 16;
            spec.numClasses = 7;
            spec.numLayers = c.full->numLayers();
            spec.aggregator = agg;
            spec.paramCountGnn = 4000;
            spec.paramCountAgg = 300;
            spec.lstmIntermediatesPerNode = 30;
            spec.attentionHeads = 2;
            for (size_t g = 0; g < shapes.size(); ++g)
                EXPECT_EQ(estimateMemory(shapes[g], spec),
                          estimateBatchMemory(c.reference[g], spec))
                    << aggregatorName(agg) << " group " << g;
        }
    }
};

TEST_F(MicroBatchWalk, MatchesTheConstructorReferenceAtEveryLaneCount)
{
    const auto cora = loadCatalogDataset("cora_like", 0.3, 41);
    const auto products = loadCatalogDataset("products_like", 0.05, 42);
    struct Input
    {
        std::string name;
        int64_t inputDim;
        MultiLayerBatch batch;
    };
    const std::vector<Input> inputs = {
        {"cora/2 layers", cora.featureDim(), sampled(cora, {4, 6}, 90, 43)},
        {"cora/10 outputs", cora.featureDim(),
         sampled(cora, {4, 6}, 10, 44)},
        {"products/3 layers", products.featureDim(),
         sampled(products, {5, 5, 5}, 64, 45)},
    };
    ASSERT_EQ(inputs[2].batch.numLayers(), 3);

    // Groups and references first: RandomPartitioner is stateful, so
    // every lane count must see the same groups.
    std::vector<Case> cases;
    bool saw_empty_group = false;
    for (const Input& input : inputs) {
        std::vector<std::unique_ptr<OutputPartitioner>> partitioners;
        partitioners.push_back(std::make_unique<RangePartitioner>());
        partitioners.push_back(std::make_unique<RandomPartitioner>(46));
        partitioners.push_back(std::make_unique<BettyPartitioner>());
        for (const auto& part : partitioners) {
            for (const int32_t k : {1, 2, 3, 7, 16}) {
                Case c;
                c.label = input.name + " " + part->name() + " K=" +
                          std::to_string(k);
                c.full = &input.batch;
                c.inputDim = input.inputDim;
                c.groups = part->partition(input.batch, k);
                c.reference =
                    testutil::referenceMicroBatches(input.batch, c.groups);
                for (const auto& group : c.groups)
                    saw_empty_group |= group.empty();
                cases.push_back(std::move(c));
            }
        }
    }
    ASSERT_TRUE(saw_empty_group);

    for (const int32_t lanes : {1, 3, 8}) {
        ThreadPool::setGlobalThreads(lanes);
        for (const Case& c : cases) {
            SCOPED_TRACE(c.label + " lanes=" + std::to_string(lanes));
            const auto micros = extractMicroBatches(*c.full, c.groups);
            testutil::expectSameBatches(micros, c.reference);
            const auto shapes = microBatchShapes(*c.full, c.groups);
            ASSERT_EQ(shapes.size(), c.reference.size());
            for (size_t g = 0; g < shapes.size(); ++g)
                EXPECT_EQ(shapes[g], c.reference[g].shape())
                    << "group " << g;
            if (lanes == 1)
                expectSameEstimates(c, shapes);
        }
    }
}

} // namespace
} // namespace betty
