/**
 * @file
 * Tests for the analytical memory estimator (§4.4.3 components).
 */
#include <gtest/gtest.h>

#include "data/catalog.h"
#include "memory/device_memory.h"
#include "memory/estimator.h"
#include "memory/transfer_model.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace betty {
namespace {

GnnSpec
specFor(AggregatorKind agg, int64_t layers = 2)
{
    GnnSpec spec;
    spec.inputDim = 32;
    spec.hiddenDim = 64;
    spec.numClasses = 8;
    spec.numLayers = layers;
    spec.aggregator = agg;
    spec.paramCountGnn = 10000;
    spec.paramCountAgg = agg == AggregatorKind::Mean ? 0 : 5000;
    spec.lstmIntermediatesPerNode = 30;
    return spec;
}

TEST(GnnSpec, LayerDims)
{
    const auto spec = specFor(AggregatorKind::Mean, 3);
    EXPECT_EQ(spec.layerInDim(0), 32);
    EXPECT_EQ(spec.layerOutDim(0), 64);
    EXPECT_EQ(spec.layerInDim(1), 64);
    EXPECT_EQ(spec.layerOutDim(2), 8);
}

TEST(Estimator, ComponentsPopulated)
{
    const auto batch = testutil::tinyBatch();
    const auto est =
        estimateBatchMemory(batch, specFor(AggregatorKind::Mean));
    EXPECT_GT(est.parameters, 0);
    EXPECT_GT(est.inputFeatures, 0);
    EXPECT_GT(est.labels, 0);
    EXPECT_GT(est.blocks, 0);
    EXPECT_GT(est.hidden, 0);
    EXPECT_GT(est.aggregator, 0);
    EXPECT_GT(est.gradients, 0);
    EXPECT_GT(est.optimizerStates, 0);
    EXPECT_GT(est.peak, est.parameters + est.inputFeatures);
}

TEST(Estimator, ExactComponentValues)
{
    const auto batch = testutil::tinyBatch();
    const auto spec = specFor(AggregatorKind::Mean);
    const auto est = estimateBatchMemory(batch, spec);
    // (1) params * 4 bytes
    EXPECT_EQ(est.parameters, 10000 * 4);
    // (2) input nodes x inputDim x 4
    EXPECT_EQ(est.inputFeatures,
              int64_t(batch.inputNodes().size()) * 32 * 4);
    // (3) output labels, 4 bytes each
    EXPECT_EQ(est.labels, int64_t(batch.outputNodes().size()) * 4);
    // (4) edges x (2 ids + weight)
    EXPECT_EQ(est.blocks, batch.totalEdges() * 20);
    // (7) gradients = all params
    EXPECT_EQ(est.gradients, 10000 * 4);
    // (8) Adam: two states per param
    EXPECT_EQ(est.optimizerStates, 2 * 10000 * 4);
}

TEST(Estimator, SgdHasNoOptimizerState)
{
    auto spec = specFor(AggregatorKind::Mean);
    spec.optimizer = OptimizerKind::Sgd;
    const auto est = estimateBatchMemory(testutil::tinyBatch(), spec);
    EXPECT_EQ(est.optimizerStates, 0);
}

TEST(Estimator, LstmDominatesMean)
{
    const auto batch = testutil::tinyBatch();
    const auto mean =
        estimateBatchMemory(batch, specFor(AggregatorKind::Mean));
    const auto lstm =
        estimateBatchMemory(batch, specFor(AggregatorKind::Lstm));
    // The paper's Figure 2(a): LSTM is the memory hog.
    EXPECT_GT(lstm.aggregator, 5 * mean.aggregator);
    EXPECT_GT(lstm.peak, mean.peak);
}

TEST(Estimator, PoolBetweenMeanAndLstm)
{
    const auto batch = testutil::tinyBatch();
    const auto mean =
        estimateBatchMemory(batch, specFor(AggregatorKind::Mean));
    const auto pool =
        estimateBatchMemory(batch, specFor(AggregatorKind::Pool));
    const auto lstm =
        estimateBatchMemory(batch, specFor(AggregatorKind::Lstm));
    EXPECT_GE(pool.aggregator, mean.aggregator);
    EXPECT_LT(pool.aggregator, lstm.aggregator);
}

TEST(Estimator, LstmScalesWithEq5Constant)
{
    const auto batch = testutil::tinyBatch();
    auto spec = specFor(AggregatorKind::Lstm);
    spec.lstmIntermediatesPerNode = 10;
    const auto low = estimateBatchMemory(batch, spec);
    spec.lstmIntermediatesPerNode = 20;
    const auto high = estimateBatchMemory(batch, spec);
    EXPECT_GT(high.aggregator, low.aggregator);
}

TEST(Estimator, MonotoneInBatchSize)
{
    const auto ds = loadCatalogDataset("arxiv_like", 0.05, 7);
    NeighborSampler sampler(ds.graph, {5, 10}, 8);
    std::vector<int64_t> small_seeds(ds.trainNodes.begin(),
                                     ds.trainNodes.begin() + 20);
    std::vector<int64_t> big_seeds(ds.trainNodes.begin(),
                                   ds.trainNodes.begin() + 200);
    const auto spec = specFor(AggregatorKind::Mean);
    const auto small =
        estimateBatchMemory(sampler.sample(small_seeds), spec);
    const auto big =
        estimateBatchMemory(sampler.sample(big_seeds), spec);
    EXPECT_LT(small.peak, big.peak);
}

/** Field-by-field sum of two estimates. */
MemoryEstimate
addEstimates(const MemoryEstimate& x, const MemoryEstimate& y)
{
    MemoryEstimate sum;
    sum.parameters = x.parameters + y.parameters;
    sum.inputFeatures = x.inputFeatures + y.inputFeatures;
    sum.labels = x.labels + y.labels;
    sum.blocks = x.blocks + y.blocks;
    sum.hidden = x.hidden + y.hidden;
    sum.aggregator = x.aggregator + y.aggregator;
    sum.gradients = x.gradients + y.gradients;
    sum.optimizerStates = x.optimizerStates + y.optimizerStates;
    sum.backwardBuffers = x.backwardBuffers + y.backwardBuffers;
    sum.peak = x.peak + y.peak;
    return sum;
}

/** True if every field of @p x is at most the same field of @p y. */
bool
fieldsAtMost(const MemoryEstimate& x, const MemoryEstimate& y)
{
    return x.parameters <= y.parameters &&
           x.inputFeatures <= y.inputFeatures && x.labels <= y.labels &&
           x.blocks <= y.blocks && x.hidden <= y.hidden &&
           x.aggregator <= y.aggregator && x.gradients <= y.gradients &&
           x.optimizerStates <= y.optimizerStates &&
           x.backwardBuffers <= y.backwardBuffers && x.peak <= y.peak;
}

TEST(Estimator, AffineWithNonNegativeCoefficients)
{
    // The planner's lower bound on K (core/betty.h) rests on this: the
    // estimate is est(0) plus a linear function of the per-layer counts
    // with non-negative coefficients, so
    // est(a + b) + est(0) == est(a) + est(b) and est(a) <= est(a + b).
    Rng rng(23);
    auto randomShape = [&](int64_t layers) {
        std::vector<BlockShape> shape(static_cast<size_t>(layers));
        for (BlockShape& block : shape) {
            block.numDst = rng.uniformInt(0, 500);
            block.numSrc = block.numDst + rng.uniformInt(0, 2000);
            block.numEdges = rng.uniformInt(0, 8000);
        }
        return shape;
    };
    for (const AggregatorKind agg :
         {AggregatorKind::Mean, AggregatorKind::Sum, AggregatorKind::Pool,
          AggregatorKind::Lstm, AggregatorKind::Attention,
          AggregatorKind::Gcn, AggregatorKind::Gin}) {
        for (int64_t layers = 1; layers <= 3; ++layers) {
            for (const int64_t heads : {1, 2, 4}) {
                if (heads > 1 && agg != AggregatorKind::Attention)
                    continue;
                GnnSpec spec = specFor(agg, layers);
                spec.attentionHeads = heads;
                const std::vector<BlockShape> zero(static_cast<size_t>(layers));
                const MemoryEstimate est0 = estimateMemory(zero, spec);
                for (int trial = 0; trial < 20; ++trial) {
                    SCOPED_TRACE(aggregatorName(agg) + " layers " +
                                 std::to_string(layers) + " heads " +
                                 std::to_string(heads) + " trial " +
                                 std::to_string(trial));
                    const auto a = randomShape(layers);
                    const auto b = randomShape(layers);
                    std::vector<BlockShape> sum(static_cast<size_t>(layers));
                    for (size_t l = 0; l < sum.size(); ++l)
                        sum[l] = {a[l].numDst + b[l].numDst,
                                  a[l].numSrc + b[l].numSrc,
                                  a[l].numEdges + b[l].numEdges};
                    const MemoryEstimate est_a = estimateMemory(a, spec);
                    const MemoryEstimate est_b = estimateMemory(b, spec);
                    const MemoryEstimate est_sum =
                        estimateMemory(sum, spec);
                    EXPECT_EQ(addEstimates(est_sum, est0),
                              addEstimates(est_a, est_b));
                    EXPECT_TRUE(fieldsAtMost(est_a, est_sum));
                }
            }
        }
    }
}

TEST(Estimator, PeakGiB)
{
    MemoryEstimate est;
    est.peak = gib(2.0);
    EXPECT_NEAR(est.peakGiB(), 2.0, 1e-9);
}

TEST(Estimator, AggregatorNames)
{
    EXPECT_EQ(aggregatorName(AggregatorKind::Mean), "mean");
    EXPECT_EQ(aggregatorName(AggregatorKind::Sum), "sum");
    EXPECT_EQ(aggregatorName(AggregatorKind::Pool), "pool");
    EXPECT_EQ(aggregatorName(AggregatorKind::Lstm), "lstm");
}

TEST(EstimatorDeathTest, LayerMismatchPanics)
{
    const auto batch = testutil::tinyBatch(); // 2 blocks
    EXPECT_DEATH(
        estimateBatchMemory(batch, specFor(AggregatorKind::Mean, 3)),
        "blocks");
}

TEST(DeviceMemory, OomFlagAndOvershoot)
{
    DeviceMemoryModel device(100);
    device.onAlloc(80);
    EXPECT_FALSE(device.oomOccurred());
    device.onAlloc(50);
    EXPECT_TRUE(device.oomOccurred());
    EXPECT_EQ(device.worstOvershoot(), 30);
    device.onFree(50);
    EXPECT_TRUE(device.oomOccurred()) << "OOM is sticky until reset";
    device.resetPeak();
    EXPECT_FALSE(device.oomOccurred());
    EXPECT_EQ(device.peakBytes(), 80);
}

TEST(DeviceMemory, UnlimitedCapacityNeverOoms)
{
    DeviceMemoryModel device(0);
    device.onAlloc(int64_t(1) << 40);
    EXPECT_FALSE(device.oomOccurred());
}

TEST(TransferModelTest, SecondsMatchFormula)
{
    TransferModel transfer(1e9, 1e-5);
    transfer.transfer(1000000); // 1 MB at 1 GB/s = 1 ms + 10 us
    EXPECT_NEAR(transfer.seconds(), 0.00101, 1e-6);
    EXPECT_EQ(transfer.totalBytes(), 1000000);
    EXPECT_EQ(transfer.numTransfers(), 1);
    transfer.reset();
    EXPECT_EQ(transfer.seconds(), 0.0);
}

} // namespace
} // namespace betty
