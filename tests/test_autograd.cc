/**
 * @file
 * Gradient correctness for every autograd op (central finite
 * differences), plus graph-mechanics tests (accumulation, reuse).
 */
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "tensor/autograd.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace betty {
namespace {

using ag::NodePtr;

/** Reduce any [n, c] node to a 1x1 scalar with fixed weightings so
 * gradients do not cancel by symmetry. */
NodePtr
scalarize(const NodePtr& x)
{
    const int64_t n = x->value.rows(), c = x->value.cols();
    Tensor left(1, n);
    for (int64_t i = 0; i < n; ++i)
        left.at(0, i) = 0.3f + 0.17f * float(i);
    Tensor right(c, 1);
    for (int64_t j = 0; j < c; ++j)
        right.at(j, 0) = 0.5f - 0.11f * float(j);
    return ag::matmul(ag::matmul(ag::constant(std::move(left)), x),
                      ag::constant(std::move(right)));
}

/**
 * Per-segment arithmetic mean over contiguous row ranges; empty
 * segments produce zeros. The unfused reference the fused
 * gatherSegmentReduce kernel is checked against.
 */
NodePtr
segmentMean(const NodePtr& x, std::vector<int64_t> offsets)
{
    const int64_t segments = int64_t(offsets.size()) - 1;
    const int64_t c = x->value.cols();
    auto node = std::make_shared<ag::Node>();
    node->value = Tensor::zeros(segments, c);
    if (!node->value.empty() && !x->value.empty())
        kernels::gatherAggregate(x->value.data(), x->value.rows(), c,
                                 nullptr, offsets.data(), segments,
                                 kernels::Reduce::Mean,
                                 node->value.data());
    node->inputs = {x};
    node->backwardFn = [off = std::move(offsets), c](ag::Node& self) {
        if (!self.inputs[0]->needsGrad() || self.grad.empty())
            return;
        Tensor& xg = self.inputs[0]->ensureGrad();
        if (xg.empty())
            return;
        kernels::gatherAggregateBackward(
            self.grad.data(), c, nullptr, off.data(),
            int64_t(off.size()) - 1, /*mean=*/true, xg.data());
    };
    return node;
}

NodePtr
param(int64_t rows, int64_t cols, uint64_t seed)
{
    Rng rng(seed);
    return ag::parameter(Tensor::uniform(rows, cols, rng, -1.0f, 1.0f));
}

TEST(Autograd, MatmulGradients)
{
    auto a = param(3, 4, 1);
    auto b = param(4, 2, 2);
    testutil::checkGradients(
        [&] { return scalarize(ag::matmul(a, b)); }, {a, b});
}

TEST(Autograd, AddGradients)
{
    auto a = param(2, 3, 3);
    auto b = param(2, 3, 4);
    testutil::checkGradients([&] { return scalarize(ag::add(a, b)); },
                             {a, b});
}

TEST(Autograd, AddBiasGradients)
{
    auto x = param(4, 3, 5);
    auto b = param(1, 3, 6);
    testutil::checkGradients(
        [&] { return scalarize(ag::addBias(x, b)); }, {x, b});
}

TEST(Autograd, ScaleGradients)
{
    auto x = param(2, 2, 7);
    testutil::checkGradients(
        [&] { return scalarize(ag::scale(x, -2.5f)); }, {x});
}

TEST(Autograd, MulElemGradients)
{
    auto a = param(3, 2, 8);
    auto b = param(3, 2, 9);
    testutil::checkGradients(
        [&] { return scalarize(ag::mulElem(a, b)); }, {a, b});
}

TEST(Autograd, SigmoidGradients)
{
    auto x = param(3, 3, 10);
    testutil::checkGradients(
        [&] { return scalarize(ag::sigmoid(x)); }, {x});
}

TEST(Autograd, TanhGradients)
{
    auto x = param(3, 3, 11);
    testutil::checkGradients([&] { return scalarize(ag::tanhOp(x)); },
                             {x});
}

TEST(Autograd, ReluForwardAndSubgradient)
{
    auto x = ag::parameter(Tensor::fromValues(1, 4, {-2, -0.5, 0.5, 2}));
    auto y = ag::relu(x);
    EXPECT_FLOAT_EQ(y->value.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y->value.at(0, 3), 2.0f);
    ag::backward(scalarize(y));
    EXPECT_FLOAT_EQ(x->grad.at(0, 0), 0.0f); // negative side: zero grad
    EXPECT_NE(x->grad.at(0, 3), 0.0f);
}

TEST(Autograd, LeakyReluGradients)
{
    auto x = param(3, 3, 12);
    testutil::checkGradients(
        [&] { return scalarize(ag::leakyRelu(x, 0.2f)); }, {x});
}

TEST(Autograd, ConcatColsGradients)
{
    auto a = param(3, 2, 13);
    auto b = param(3, 4, 14);
    testutil::checkGradients(
        [&] { return scalarize(ag::concatCols(a, b)); }, {a, b});
}

TEST(Autograd, ConcatRowsGradients)
{
    auto a = param(2, 3, 15);
    auto b = param(4, 3, 16);
    auto c = param(1, 3, 17);
    testutil::checkGradients(
        [&] { return scalarize(ag::concatRows({a, b, c})); },
        {a, b, c});
}

TEST(Autograd, SliceColsGradients)
{
    auto x = param(3, 6, 18);
    testutil::checkGradients(
        [&] { return scalarize(ag::sliceCols(x, 2, 3)); }, {x});
}

TEST(Autograd, GatherRowsGradientsWithDuplicates)
{
    auto x = param(4, 3, 19);
    // Row 1 gathered twice: its gradient must accumulate both paths.
    const std::vector<int64_t> idx = {1, 3, 1, 0};
    testutil::checkGradients(
        [&] { return scalarize(ag::gatherRows(x, idx)); }, {x});
}

TEST(Autograd, MulColBroadcastGradients)
{
    auto x = param(4, 3, 20);
    auto s = param(4, 1, 21);
    testutil::checkGradients(
        [&] { return scalarize(ag::mulColBroadcast(x, s)); }, {x, s});
}

TEST(Autograd, SegmentSumGradients)
{
    auto x = param(6, 2, 22);
    const std::vector<int64_t> offsets = {0, 2, 2, 5, 6};
    testutil::checkGradients(
        [&] { return scalarize(ag::segmentSum(x, offsets)); }, {x});
}

TEST(Autograd, SegmentMeanGradients)
{
    auto x = param(6, 2, 23);
    const std::vector<int64_t> offsets = {0, 3, 4, 6};
    testutil::checkGradients(
        [&] { return scalarize(segmentMean(x, offsets)); }, {x});
}

TEST(Autograd, SegmentMeanEmptySegmentIsZero)
{
    auto x = ag::constant(Tensor::full(2, 2, 5.0f));
    const auto y = segmentMean(x, {0, 0, 2});
    EXPECT_FLOAT_EQ(y->value.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y->value.at(1, 0), 5.0f);
}

TEST(Autograd, GatherSegmentReduceMatchesUnfused)
{
    // The fused kernel must equal gatherRows + segmentMean/Sum.
    auto x = param(5, 3, 40);
    const std::vector<int64_t> sources = {0, 2, 2, 4, 1};
    const std::vector<int64_t> offsets = {0, 2, 2, 5};
    for (bool mean : {true, false}) {
        const auto fused =
            ag::gatherSegmentReduce(x, sources, offsets, mean);
        const auto gathered = ag::gatherRows(x, sources);
        const auto unfused =
            mean ? segmentMean(gathered, offsets)
                 : ag::segmentSum(gathered, offsets);
        ASSERT_TRUE(fused->value.sameShape(unfused->value));
        for (int64_t i = 0; i < fused->value.numel(); ++i)
            EXPECT_NEAR(fused->value.data()[i],
                        unfused->value.data()[i], 1e-5);
    }
}

TEST(Autograd, GatherSegmentReduceGradients)
{
    auto x = param(5, 2, 41);
    const std::vector<int64_t> sources = {0, 2, 2, 4, 1, 0};
    const std::vector<int64_t> offsets = {0, 3, 4, 6};
    testutil::checkGradients(
        [&] {
            return scalarize(
                ag::gatherSegmentReduce(x, sources, offsets, true));
        },
        {x});
    testutil::checkGradients(
        [&] {
            return scalarize(
                ag::gatherSegmentReduce(x, sources, offsets, false));
        },
        {x});
}

TEST(Autograd, SegmentMaxForwardAndGradient)
{
    auto x = ag::parameter(
        Tensor::fromValues(4, 1, {1.0f, 3.0f, 2.0f, -1.0f}));
    const auto y = ag::segmentMax(x, {0, 2, 4});
    EXPECT_FLOAT_EQ(y->value.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(y->value.at(1, 0), 2.0f);
    ag::backward(scalarize(y));
    // Only the winners receive gradient.
    EXPECT_FLOAT_EQ(x->grad.at(0, 0), 0.0f);
    EXPECT_NE(x->grad.at(1, 0), 0.0f);
    EXPECT_NE(x->grad.at(2, 0), 0.0f);
    EXPECT_FLOAT_EQ(x->grad.at(3, 0), 0.0f);
}

TEST(Autograd, SegmentSoftmaxSumsToOnePerSegment)
{
    auto x = param(5, 1, 24);
    const std::vector<int64_t> offsets = {0, 2, 5};
    const auto y = ag::segmentSoftmax(x, offsets);
    EXPECT_NEAR(y->value.at(0, 0) + y->value.at(1, 0), 1.0, 1e-5);
    EXPECT_NEAR(y->value.at(2, 0) + y->value.at(3, 0) +
                y->value.at(4, 0),
                1.0, 1e-5);
}

TEST(Autograd, SegmentSoftmaxGradients)
{
    auto x = param(5, 2, 25);
    const std::vector<int64_t> offsets = {0, 3, 5};
    testutil::checkGradients(
        [&] { return scalarize(ag::segmentSoftmax(x, offsets)); }, {x});
}

TEST(Autograd, SoftmaxCrossEntropyMatchesManual)
{
    auto logits = ag::constant(
        Tensor::fromValues(2, 2, {2.0f, 0.0f, 0.0f, 2.0f}));
    const auto loss = ag::softmaxCrossEntropy(logits, {0, 1});
    // Both rows: -log(e^2 / (e^2 + 1)).
    const double expected = -std::log(std::exp(2.0) /
                                      (std::exp(2.0) + 1.0));
    EXPECT_NEAR(loss->value.at(0, 0), expected, 1e-5);
}

TEST(Autograd, SoftmaxCrossEntropyGradients)
{
    auto logits = param(4, 3, 26);
    const std::vector<int32_t> labels = {0, 2, 1, 2};
    testutil::checkGradients(
        [&] { return ag::softmaxCrossEntropy(logits, labels); },
        {logits}, 1e-2f, 3e-2f);
}

TEST(Autograd, GradientAccumulatesAcrossBackwards)
{
    auto x = ag::parameter(Tensor::full(1, 1, 2.0f));
    auto make = [&] { return ag::scale(x, 3.0f); };
    ag::backward(make());
    ag::backward(make());
    EXPECT_FLOAT_EQ(x->grad.at(0, 0), 6.0f); // 3 + 3
}

TEST(Autograd, DiamondGraphGradient)
{
    // y = x*x visits x through two paths: d/dx (x*x) = 2x.
    auto x = ag::parameter(Tensor::full(1, 1, 5.0f));
    ag::backward(ag::mulElem(x, x));
    EXPECT_FLOAT_EQ(x->grad.at(0, 0), 10.0f);
}

TEST(Autograd, ConstantsReceiveNoGradient)
{
    auto c = ag::constant(Tensor::full(1, 1, 1.0f));
    auto x = ag::parameter(Tensor::full(1, 1, 2.0f));
    ag::backward(ag::mulElem(c, x));
    EXPECT_TRUE(c->grad.empty());
    EXPECT_FLOAT_EQ(x->grad.at(0, 0), 1.0f);
}

TEST(Autograd, DeepChainDoesNotOverflowStack)
{
    // Iterative toposort must survive long LSTM-like chains.
    auto x = ag::parameter(Tensor::full(1, 1, 1.0f));
    NodePtr node = x;
    for (int i = 0; i < 20000; ++i)
        node = ag::scale(node, 1.0f);
    ag::backward(node);
    EXPECT_FLOAT_EQ(x->grad.at(0, 0), 1.0f);
}

TEST(AutogradDeathTest, BackwardRequiresScalarRoot)
{
    auto x = ag::parameter(Tensor::zeros(2, 2));
    EXPECT_DEATH(ag::backward(x), "scalar");
}

} // namespace
} // namespace betty
