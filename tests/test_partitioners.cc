/**
 * @file
 * Tests for the range/random/metis baseline partitioners and the
 * Betty (REG) partitioner's shared contract.
 */
#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"

namespace betty {
namespace {

struct Fixture
{
    Fixture()
        : dataset(loadCatalogDataset("arxiv_like", 0.05, 5)),
          sampler(dataset.graph, {5, 10}, 3)
    {
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 120);
        batch = sampler.sample(seeds);
    }

    Dataset dataset;
    NeighborSampler sampler;
    MultiLayerBatch batch;
};

Fixture&
fixture()
{
    static Fixture f;
    return f;
}

void
expectValidPartition(const std::vector<std::vector<int64_t>>& groups,
                     const MultiLayerBatch& batch, int32_t k)
{
    EXPECT_EQ(int32_t(groups.size()), k);
    std::set<int64_t> covered;
    for (const auto& group : groups)
        for (int64_t node : group)
            EXPECT_TRUE(covered.insert(node).second)
                << "node " << node << " in two groups";
    const auto outputs = batch.outputNodes();
    EXPECT_EQ(covered.size(), outputs.size());
    for (int64_t node : outputs)
        EXPECT_TRUE(covered.count(node));
}

TEST(RangePartitioner, ValidAndContiguous)
{
    auto& f = fixture();
    RangePartitioner part;
    const auto groups = part.partition(f.batch, 4);
    expectValidPartition(groups, f.batch, 4);
    // Each group sorted and below the next group's minimum.
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
        EXPECT_TRUE(std::is_sorted(groups[g].begin(), groups[g].end()));
        EXPECT_LT(groups[g].back(), groups[g + 1].front());
    }
}

TEST(RangePartitioner, EvenSizes)
{
    auto& f = fixture();
    RangePartitioner part;
    const auto groups = part.partition(f.batch, 7);
    size_t lo = groups[0].size(), hi = groups[0].size();
    for (const auto& g : groups) {
        lo = std::min(lo, g.size());
        hi = std::max(hi, g.size());
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(RandomPartitioner, ValidAndEven)
{
    auto& f = fixture();
    RandomPartitioner part(7);
    const auto groups = part.partition(f.batch, 5);
    expectValidPartition(groups, f.batch, 5);
    for (const auto& g : groups)
        EXPECT_NEAR(double(g.size()), 120.0 / 5.0, 1.0);
}

TEST(RandomPartitioner, DiffersFromRange)
{
    auto& f = fixture();
    RangePartitioner range;
    RandomPartitioner random(7);
    const auto a = range.partition(f.batch, 4);
    const auto b = random.partition(f.batch, 4);
    // Same sizes but (almost surely) different membership.
    EXPECT_NE(a[0], b[0]);
}

TEST(MetisBaseline, ValidPartition)
{
    auto& f = fixture();
    MetisBaselinePartitioner part(f.dataset.graph);
    const auto groups = part.partition(f.batch, 4);
    expectValidPartition(groups, f.batch, 4);
}

TEST(BettyPartitioner, ValidPartition)
{
    auto& f = fixture();
    BettyPartitioner part;
    const auto groups = part.partition(f.batch, 4);
    expectValidPartition(groups, f.batch, 4);
}

TEST(BettyPartitioner, KOneReturnsEverything)
{
    auto& f = fixture();
    BettyPartitioner part;
    const auto groups = part.partition(f.batch, 1);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].size(), f.batch.outputNodes().size());
}

TEST(BettyPartitioner, LowerRedundancyThanRandom)
{
    // The core claim of §4.3: REG partitioning duplicates fewer input
    // nodes than redundancy-unaware splits.
    auto& f = fixture();
    BettyPartitioner betty;
    RandomPartitioner random(11);
    const int32_t k = 8;
    const auto betty_micros =
        extractMicroBatches(f.batch, betty.partition(f.batch, k));
    const auto random_micros =
        extractMicroBatches(f.batch, random.partition(f.batch, k));
    EXPECT_LT(inputNodeRedundancy(f.batch, betty_micros),
              inputNodeRedundancy(f.batch, random_micros));
}

TEST(BettyPartitioner, KeptRegGivesTheSamePartsAsAFreshPartitioner)
{
    // One partitioner alternating between batches must split each one
    // exactly as a fresh partitioner does: its kept REG may only be
    // reused for an identical output block. The resample has the same
    // output nodes but different sampled edges.
    const Fixture& f = fixture();
    NeighborSampler sampler(f.dataset.graph, {5, 10}, 3);
    std::vector<int64_t> seeds(f.dataset.trainNodes.begin(),
                               f.dataset.trainNodes.begin() + 120);
    const auto same = sampler.sample(seeds);
    const auto resample = sampler.sample(seeds);
    ASSERT_EQ(same.blocks.back().edgeSources(),
              f.batch.blocks.back().edgeSources());
    ASSERT_NE(resample.blocks.back().edgeSources(),
              f.batch.blocks.back().edgeSources());
    std::vector<int64_t> other_seeds(f.dataset.trainNodes.begin() + 120,
                                     f.dataset.trainNodes.begin() + 200);
    const auto other = sampler.sample(other_seeds);

    BettyPartitioner shared;
    for (int round = 0; round < 2; ++round) {
        for (const MultiLayerBatch* batch :
             {&f.batch, &resample, &other, &same}) {
            for (const int32_t k : {2, 5}) {
                BettyPartitioner fresh;
                EXPECT_EQ(shared.partition(*batch, k),
                          fresh.partition(*batch, k))
                    << "round " << round << " k " << k;
            }
        }
    }
}

TEST(BettyPartitioner, BuildsTheRegOncePerBatch)
{
    auto& f = fixture();
    const bool metrics_were_on = obs::Metrics::enabled();
    obs::Metrics::setEnabled(true);
    const obs::Counter& builds =
        obs::Metrics::counter("partition.reg_builds");
    const int64_t before = builds.value();

    BettyPartitioner part;
    for (const int32_t k : {2, 3, 4, 5, 6, 3})
        part.partition(f.batch, k);
    EXPECT_EQ(builds.value() - before, 1);
    // Equal arrays in another object count as the same block.
    const MultiLayerBatch copy = f.batch;
    part.partition(copy, 4);
    EXPECT_EQ(builds.value() - before, 1);

    NeighborSampler sampler(f.dataset.graph, {5, 10}, 9);
    std::vector<int64_t> seeds(f.dataset.trainNodes.begin(),
                               f.dataset.trainNodes.begin() + 120);
    part.partition(sampler.sample(seeds), 4);
    EXPECT_EQ(builds.value() - before, 2);
    obs::Metrics::setEnabled(metrics_were_on);
}

TEST(Partitioners, Names)
{
    EXPECT_EQ(RangePartitioner().name(), "range");
    EXPECT_EQ(RandomPartitioner().name(), "random");
    EXPECT_EQ(MetisBaselinePartitioner(fixture().dataset.graph).name(),
              "metis");
    EXPECT_EQ(BettyPartitioner().name(), "betty");
}

TEST(GroupByPart, GroupsInOrder)
{
    const std::vector<int64_t> nodes = {10, 20, 30, 40};
    const std::vector<int32_t> parts = {1, 0, 1, 0};
    const auto groups = groupByPart(nodes, parts, 2);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0], (std::vector<int64_t>{20, 40}));
    EXPECT_EQ(groups[1], (std::vector<int64_t>{10, 30}));
}

/** Property sweep over K and partitioner: the contract holds. */
class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<int32_t, int32_t>>
{
};

TEST_P(PartitionerSweep, ContractHolds)
{
    auto& f = fixture();
    const auto [which, k] = GetParam();
    std::unique_ptr<OutputPartitioner> part;
    switch (which) {
      case 0:
        part = std::make_unique<RangePartitioner>();
        break;
      case 1:
        part = std::make_unique<RandomPartitioner>(3);
        break;
      case 2:
        part = std::make_unique<MetisBaselinePartitioner>(
            f.dataset.graph);
        break;
      default:
        part = std::make_unique<BettyPartitioner>();
        break;
    }
    expectValidPartition(part->partition(f.batch, k), f.batch, k);
}

INSTANTIATE_TEST_SUITE_P(
    All, PartitionerSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 2, 3, 8, 16)));

} // namespace
} // namespace betty
