/**
 * @file
 * Minimal reverse-mode automatic differentiation over Tensor.
 *
 * The GNN layers (SAGE with mean/sum/pool/LSTM aggregators, GAT) are
 * expressed as compositions of the ops declared here; backward() then
 * produces exact gradients, which is what makes micro-batch gradient
 * accumulation mathematically identical to full-batch training — the
 * core equivalence Betty relies on (paper §4.2).
 *
 * The graph is dynamic: every op allocates a Node holding its output
 * value and a closure that routes the output gradient to its inputs.
 * Dropping the root NodePtr after a step releases all intermediate
 * activations, which the simulated device memory model observes as
 * frees (mirroring "intermediate results are released after backward",
 * paper §4.2.3).
 */
#ifndef BETTY_TENSOR_AUTOGRAD_H
#define BETTY_TENSOR_AUTOGRAD_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace betty {
namespace ag {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/** One vertex of the dynamic computation graph. */
struct Node
{
    /** Forward value. */
    Tensor value;

    /** Accumulated gradient w.r.t. value; empty until first needed. */
    Tensor grad;

    /** Leaves with requiresGrad accumulate into grad across backwards. */
    bool requiresGrad = false;

    /** Upstream nodes; kept alive for the backward pass. */
    std::vector<NodePtr> inputs;

    /** Distributes this->grad to inputs' grads; null for leaves. */
    std::function<void(Node&)> backwardFn;

    /** Allocate-and-zero grad if it does not exist yet. */
    Tensor& ensureGrad();

    /** True if this node or anything upstream wants gradients. */
    bool needsGrad() const;
};

/** @name Leaf constructors */
/** @{ */

/** Wrap a value that does not require gradients (input features, etc). */
NodePtr constant(Tensor value);

/** Wrap a trainable parameter; its grad persists across backward calls. */
NodePtr parameter(Tensor value);

/** @} */

/** @name Differentiable operators */
/** @{ */

/** out = a x b. */
NodePtr matmul(const NodePtr& a, const NodePtr& b);

/** out = a + b, identical shapes. */
NodePtr add(const NodePtr& a, const NodePtr& b);

/** out = x + bias, bias is 1 x C broadcast over rows. */
NodePtr addBias(const NodePtr& x, const NodePtr& bias);

/** out = alpha * x. */
NodePtr scale(const NodePtr& x, float alpha);

/** out = a ⊙ b elementwise, identical shapes. */
NodePtr mulElem(const NodePtr& a, const NodePtr& b);

/** Rectified linear unit. */
NodePtr relu(const NodePtr& x);

/** Leaky ReLU with slope @p alpha for negative inputs (GAT uses 0.2). */
NodePtr leakyRelu(const NodePtr& x, float alpha);

/** Logistic sigmoid. */
NodePtr sigmoid(const NodePtr& x);

/** Hyperbolic tangent. */
NodePtr tanhOp(const NodePtr& x);

/** Column-wise concatenation [a | b]; equal row counts. */
NodePtr concatCols(const NodePtr& a, const NodePtr& b);

/** Row-wise concatenation (vertical stack); equal column counts. */
NodePtr concatRows(const std::vector<NodePtr>& parts);

/** out[i][j] = x[i][j] * s[i][0]: per-row scaling by a column vector
 * (used to weight GAT messages by edge attention). */
NodePtr mulColBroadcast(const NodePtr& x, const NodePtr& s);

/** Columns [start, start+len) of x. */
NodePtr sliceCols(const NodePtr& x, int64_t start, int64_t len);

/** Row gather: out[i] = x[indices[i]]; backward scatter-adds. */
NodePtr gatherRows(const NodePtr& x, std::vector<int64_t> indices);

/**
 * Segment reduction. Rows [offsets[s], offsets[s+1]) of x reduce to
 * output row s; offsets.size() == segments + 1, offsets.back() == rows.
 * Empty segments produce zero rows.
 */
NodePtr segmentSum(const NodePtr& x, std::vector<int64_t> offsets);

/**
 * Fused gather + segment reduction (DGL's fused message-passing
 * kernel, the paper's §2.2): out[s] = reduce over rows x[sources[e]]
 * for e in [offsets[s], offsets[s+1]), WITHOUT materializing the
 * [edges, cols] gather. mean=true averages, else sums; empty
 * segments produce zeros. This is why the Mean/Sum aggregators cost
 * O(N x d) memory instead of O(E x d).
 */
NodePtr gatherSegmentReduce(const NodePtr& x,
                            std::vector<int64_t> sources,
                            std::vector<int64_t> offsets, bool mean);

/** Per-segment column-wise max; empty segments produce zeros. */
NodePtr segmentMax(const NodePtr& x, std::vector<int64_t> offsets);

/**
 * Softmax over the rows inside each segment, per column — the edge
 * attention normalization used by GAT.
 */
NodePtr segmentSoftmax(const NodePtr& x, std::vector<int64_t> offsets);

/**
 * Mean softmax cross-entropy between logits [N, classes] and integer
 * labels (size N). Returns a 1x1 scalar node.
 */
NodePtr softmaxCrossEntropy(const NodePtr& logits,
                            std::vector<int32_t> labels);

/** @} */

/**
 * Run reverse-mode differentiation from a scalar @p root.
 * Seeds d(root)/d(root) = 1 and accumulates into every reachable
 * parameter's grad. May be called repeatedly (gradient accumulation).
 */
void backward(const NodePtr& root);

/** Number of correct argmax predictions of logits vs labels. */
int64_t countCorrect(const Tensor& logits,
                     const std::vector<int32_t>& labels);

} // namespace ag
} // namespace betty

#endif // BETTY_TENSOR_AUTOGRAD_H
