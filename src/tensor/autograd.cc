#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "obs/memprof.h"
#include "util/logging.h"

namespace betty {
namespace ag {

Tensor&
Node::ensureGrad()
{
    if (grad.empty() && value.numel() > 0) {
        // Every gradient buffer — parameter gradients and the
        // backward buffers of intermediates alike — is item (7).
        obs::MemCategoryScope mem_scope(obs::MemCategory::Gradients);
        if (requiresGrad) {
            // Parameter gradients accumulate across micro-batches and
            // feed the optimizer step — they must not live in the
            // per-micro-batch arena.
            kernels::ArenaSuspend off_arena;
            grad = Tensor::zeros(value.rows(), value.cols());
        } else {
            grad = Tensor::zeros(value.rows(), value.cols());
        }
    }
    return grad;
}

bool
Node::needsGrad() const
{
    if (requiresGrad)
        return true;
    for (const auto& in : inputs)
        if (in->needsGrad())
            return true;
    return false;
}

namespace {

/** Build an op node over its inputs; requiresGrad stays false for ops —
 * gradient need is derived transitively through needsGrad(). */
NodePtr
makeOp(Tensor value, std::vector<NodePtr> inputs,
       std::function<void(Node&)> backward_fn)
{
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->inputs = std::move(inputs);
    node->backwardFn = std::move(backward_fn);
    return node;
}

} // namespace

NodePtr
constant(Tensor value)
{
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    return node;
}

NodePtr
parameter(Tensor value)
{
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requiresGrad = true;
    return node;
}

NodePtr
matmul(const NodePtr& a, const NodePtr& b)
{
    Tensor out(a->value.rows(), b->value.cols());
    betty::matmul(a->value, b->value, out);
    return makeOp(std::move(out), {a, b}, [](Node& n) {
        const auto& a_in = n.inputs[0];
        const auto& b_in = n.inputs[1];
        if (a_in->needsGrad())
            matmulTransB(n.grad, b_in->value, a_in->ensureGrad(), true);
        if (b_in->needsGrad())
            matmulTransA(a_in->value, n.grad, b_in->ensureGrad(), true);
    });
}

NodePtr
add(const NodePtr& a, const NodePtr& b)
{
    BETTY_ASSERT(a->value.sameShape(b->value), "add shape mismatch");
    Tensor out = a->value.clone();
    out.addInPlace(b->value);
    return makeOp(std::move(out), {a, b}, [](Node& n) {
        for (auto& in : n.inputs)
            if (in->needsGrad())
                in->ensureGrad().addInPlace(n.grad);
    });
}

NodePtr
addBias(const NodePtr& x, const NodePtr& bias)
{
    BETTY_ASSERT(bias->value.rows() == 1 &&
                 bias->value.cols() == x->value.cols(),
                 "addBias: bias must be 1 x cols(x)");
    Tensor out = x->value.clone();
    const int64_t n = out.rows(), c = out.cols();
    const float* pb = bias->value.data();
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < c; ++j)
            po[i * c + j] += pb[j];
    return makeOp(std::move(out), {x, bias}, [](Node& node) {
        const auto& x_in = node.inputs[0];
        const auto& b_in = node.inputs[1];
        if (x_in->needsGrad())
            x_in->ensureGrad().addInPlace(node.grad);
        if (b_in->needsGrad()) {
            Tensor& bg = b_in->ensureGrad();
            const int64_t n = node.grad.rows(), c = node.grad.cols();
            const float* pg = node.grad.data();
            float* pbg = bg.data();
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < c; ++j)
                    pbg[j] += pg[i * c + j];
        }
    });
}

NodePtr
scale(const NodePtr& x, float alpha)
{
    Tensor out = x->value.clone();
    out.scaleInPlace(alpha);
    return makeOp(std::move(out), {x}, [alpha](Node& n) {
        if (n.inputs[0]->needsGrad())
            n.inputs[0]->ensureGrad().addScaledInPlace(n.grad, alpha);
    });
}

NodePtr
mulElem(const NodePtr& a, const NodePtr& b)
{
    BETTY_ASSERT(a->value.sameShape(b->value), "mulElem shape mismatch");
    Tensor out = a->value.clone();
    {
        float* po = out.data();
        const float* pb = b->value.data();
        for (int64_t i = 0; i < out.numel(); ++i)
            po[i] *= pb[i];
    }
    return makeOp(std::move(out), {a, b}, [](Node& n) {
        const auto& a_in = n.inputs[0];
        const auto& b_in = n.inputs[1];
        const float* pg = n.grad.data();
        if (a_in->needsGrad()) {
            float* pag = a_in->ensureGrad().data();
            const float* pbv = b_in->value.data();
            for (int64_t i = 0; i < n.grad.numel(); ++i)
                pag[i] += pg[i] * pbv[i];
        }
        if (b_in->needsGrad()) {
            float* pbg = b_in->ensureGrad().data();
            const float* pav = a_in->value.data();
            for (int64_t i = 0; i < n.grad.numel(); ++i)
                pbg[i] += pg[i] * pav[i];
        }
    });
}

namespace {

/** Shared shape for unary elementwise ops defined by f and df(y, x). */
template <typename Fwd, typename Bwd>
NodePtr
unaryOp(const NodePtr& x, Fwd fwd, Bwd bwd)
{
    Tensor out(x->value.rows(), x->value.cols());
    const float* pi = x->value.empty() ? nullptr : x->value.data();
    float* po = out.empty() ? nullptr : out.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        po[i] = fwd(pi[i]);
    return makeOp(std::move(out), {x}, [bwd](Node& n) {
        if (!n.inputs[0]->needsGrad())
            return;
        float* pg_in = n.inputs[0]->ensureGrad().data();
        const float* pg = n.grad.data();
        const float* px = n.inputs[0]->value.data();
        const float* py = n.value.data();
        for (int64_t i = 0; i < n.grad.numel(); ++i)
            pg_in[i] += pg[i] * bwd(py[i], px[i]);
    });
}

} // namespace

NodePtr
relu(const NodePtr& x)
{
    return unaryOp(
        x, [](float v) { return v > 0.0f ? v : 0.0f; },
        [](float, float xv) { return xv > 0.0f ? 1.0f : 0.0f; });
}

NodePtr
leakyRelu(const NodePtr& x, float alpha)
{
    return unaryOp(
        x, [alpha](float v) { return v > 0.0f ? v : alpha * v; },
        [alpha](float, float xv) { return xv > 0.0f ? 1.0f : alpha; });
}

NodePtr
sigmoid(const NodePtr& x)
{
    return unaryOp(
        x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
        [](float y, float) { return y * (1.0f - y); });
}

NodePtr
tanhOp(const NodePtr& x)
{
    return unaryOp(
        x, [](float v) { return std::tanh(v); },
        [](float y, float) { return 1.0f - y * y; });
}

NodePtr
concatCols(const NodePtr& a, const NodePtr& b)
{
    BETTY_ASSERT(a->value.rows() == b->value.rows(),
                 "concatCols row mismatch");
    const int64_t n = a->value.rows();
    const int64_t ca = a->value.cols(), cb = b->value.cols();
    Tensor out(n, ca + cb);
    for (int64_t i = 0; i < n; ++i) {
        std::copy_n(a->value.data() + i * ca, ca,
                    out.data() + i * (ca + cb));
        std::copy_n(b->value.data() + i * cb, cb,
                    out.data() + i * (ca + cb) + ca);
    }
    return makeOp(std::move(out), {a, b}, [ca, cb](Node& node) {
        const int64_t n = node.grad.rows();
        const float* pg = node.grad.data();
        if (node.inputs[0]->needsGrad()) {
            float* pa = node.inputs[0]->ensureGrad().data();
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < ca; ++j)
                    pa[i * ca + j] += pg[i * (ca + cb) + j];
        }
        if (node.inputs[1]->needsGrad()) {
            float* pb = node.inputs[1]->ensureGrad().data();
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < cb; ++j)
                    pb[i * cb + j] += pg[i * (ca + cb) + ca + j];
        }
    });
}

NodePtr
concatRows(const std::vector<NodePtr>& parts)
{
    BETTY_ASSERT(!parts.empty(), "concatRows needs at least one part");
    const int64_t c = parts.front()->value.cols();
    int64_t total_rows = 0;
    for (const auto& p : parts) {
        BETTY_ASSERT(p->value.cols() == c, "concatRows column mismatch");
        total_rows += p->value.rows();
    }
    Tensor out(total_rows, c);
    int64_t cursor = 0;
    for (const auto& p : parts) {
        const int64_t rows = p->value.rows();
        if (rows > 0)
            std::copy_n(p->value.data(), rows * c,
                        out.data() + cursor * c);
        cursor += rows;
    }
    return makeOp(std::move(out), parts, [c](Node& node) {
        int64_t cursor = 0;
        for (auto& in : node.inputs) {
            const int64_t rows = in->value.rows();
            if (in->needsGrad() && rows > 0) {
                float* pg_in = in->ensureGrad().data();
                const float* pg = node.grad.data() + cursor * c;
                for (int64_t i = 0; i < rows * c; ++i)
                    pg_in[i] += pg[i];
            }
            cursor += rows;
        }
    });
}

NodePtr
mulColBroadcast(const NodePtr& x, const NodePtr& s)
{
    BETTY_ASSERT(s->value.cols() == 1 &&
                 s->value.rows() == x->value.rows(),
                 "mulColBroadcast: s must be rows(x) x 1");
    const int64_t n = x->value.rows(), c = x->value.cols();
    Tensor out = x->value.clone();
    for (int64_t i = 0; i < n; ++i) {
        const float m = s->value.at(i, 0);
        for (int64_t j = 0; j < c; ++j)
            out.at(i, j) *= m;
    }
    return makeOp(std::move(out), {x, s}, [c](Node& node) {
        const auto& x_in = node.inputs[0];
        const auto& s_in = node.inputs[1];
        const int64_t n = node.grad.rows();
        if (x_in->needsGrad()) {
            Tensor& xg = x_in->ensureGrad();
            for (int64_t i = 0; i < n; ++i) {
                const float m = s_in->value.at(i, 0);
                for (int64_t j = 0; j < c; ++j)
                    xg.at(i, j) += node.grad.at(i, j) * m;
            }
        }
        if (s_in->needsGrad()) {
            Tensor& sg = s_in->ensureGrad();
            for (int64_t i = 0; i < n; ++i) {
                double acc = 0.0;
                for (int64_t j = 0; j < c; ++j)
                    acc += double(node.grad.at(i, j)) *
                           double(x_in->value.at(i, j));
                sg.at(i, 0) += float(acc);
            }
        }
    });
}

NodePtr
sliceCols(const NodePtr& x, int64_t start, int64_t len)
{
    BETTY_ASSERT(start >= 0 && start + len <= x->value.cols(),
                 "sliceCols out of range");
    const int64_t n = x->value.rows(), c = x->value.cols();
    Tensor out(n, len);
    for (int64_t i = 0; i < n; ++i)
        std::copy_n(x->value.data() + i * c + start, len,
                    out.data() + i * len);
    return makeOp(std::move(out), {x}, [start, len, c](Node& node) {
        if (!node.inputs[0]->needsGrad())
            return;
        float* pxg = node.inputs[0]->ensureGrad().data();
        const float* pg = node.grad.data();
        const int64_t n = node.grad.rows();
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < len; ++j)
                pxg[i * c + start + j] += pg[i * len + j];
    });
}

NodePtr
gatherRows(const NodePtr& x, std::vector<int64_t> indices)
{
    const int64_t c = x->value.cols();
    Tensor out(int64_t(indices.size()), c);
    if (!out.empty())
        kernels::gatherRows(x->value.data(), x->value.rows(), c,
                            indices.data(), int64_t(indices.size()),
                            out.data());
    return makeOp(std::move(out), {x},
                  [idx = std::move(indices), c](Node& node) {
        if (!node.inputs[0]->needsGrad() || node.grad.empty())
            return;
        Tensor& xg = node.inputs[0]->ensureGrad();
        if (xg.empty())
            return;
        kernels::scatterAddRows(node.grad.data(), c, idx.data(),
                                int64_t(idx.size()), xg.data());
    });
}

namespace {

void
checkOffsets(const std::vector<int64_t>& offsets, int64_t rows)
{
    BETTY_ASSERT(!offsets.empty() && offsets.front() == 0 &&
                 offsets.back() == rows,
                 "segment offsets must span [0, rows]");
    for (size_t s = 1; s < offsets.size(); ++s)
        BETTY_ASSERT(offsets[s] >= offsets[s - 1],
                     "segment offsets must be nondecreasing");
}

} // namespace

NodePtr
segmentSum(const NodePtr& x, std::vector<int64_t> offsets)
{
    checkOffsets(offsets, x->value.rows());
    const int64_t segments = int64_t(offsets.size()) - 1;
    const int64_t c = x->value.cols();
    Tensor out = Tensor::zeros(segments, c);
    if (!out.empty() && !x->value.empty())
        // Null sources = the contiguous-segment identity: row r of x
        // is edge r.
        kernels::gatherAggregate(x->value.data(), x->value.rows(), c,
                                 nullptr, offsets.data(), segments,
                                 kernels::Reduce::Sum, out.data());
    return makeOp(std::move(out), {x},
                  [off = std::move(offsets), c](Node& node) {
        if (!node.inputs[0]->needsGrad() || node.grad.empty())
            return;
        Tensor& xg = node.inputs[0]->ensureGrad();
        if (xg.empty())
            return;
        kernels::gatherAggregateBackward(
            node.grad.data(), c, nullptr, off.data(),
            int64_t(off.size()) - 1, /*mean=*/false, xg.data());
    });
}

NodePtr
gatherSegmentReduce(const NodePtr& x, std::vector<int64_t> sources,
                    std::vector<int64_t> offsets, bool mean)
{
    const int64_t segments = int64_t(offsets.size()) - 1;
    const int64_t c = x->value.cols();
    BETTY_ASSERT(!offsets.empty() && offsets.front() == 0 &&
                 offsets.back() == int64_t(sources.size()),
                 "offsets must span the source list");
    Tensor out = Tensor::zeros(segments, c);
    if (!out.empty() && !x->value.empty())
        kernels::gatherAggregate(
            x->value.data(), x->value.rows(), c, sources.data(),
            offsets.data(), segments,
            mean ? kernels::Reduce::Mean : kernels::Reduce::Sum,
            out.data());
    return makeOp(std::move(out), {x},
                  [src_list = std::move(sources),
                   off = std::move(offsets), c, mean](Node& node) {
        if (!node.inputs[0]->needsGrad() || node.grad.empty())
            return;
        Tensor& xg = node.inputs[0]->ensureGrad();
        if (xg.empty())
            return;
        kernels::gatherAggregateBackward(
            node.grad.data(), c, src_list.data(), off.data(),
            int64_t(off.size()) - 1, mean, xg.data());
    });
}

NodePtr
segmentMax(const NodePtr& x, std::vector<int64_t> offsets)
{
    checkOffsets(offsets, x->value.rows());
    const int64_t segments = int64_t(offsets.size()) - 1;
    const int64_t c = x->value.cols();
    Tensor out = Tensor::zeros(segments, c);
    // argmax[s*c + j] records which input row won, for the backward pass.
    auto argmax = std::make_shared<std::vector<int64_t>>(
        size_t(segments * c), int64_t(-1));
    if (!out.empty() && !x->value.empty())
        kernels::gatherAggregate(x->value.data(), x->value.rows(), c,
                                 nullptr, offsets.data(), segments,
                                 kernels::Reduce::Max, out.data(),
                                 argmax->data());
    return makeOp(std::move(out), {x}, [argmax, c](Node& node) {
        if (!node.inputs[0]->needsGrad())
            return;
        Tensor& xg = node.inputs[0]->ensureGrad();
        const int64_t segments = node.grad.rows();
        for (int64_t s = 0; s < segments; ++s)
            for (int64_t j = 0; j < c; ++j) {
                const int64_t r = (*argmax)[size_t(s * c + j)];
                if (r >= 0)
                    xg.at(r, j) += node.grad.at(s, j);
            }
    });
}

NodePtr
segmentSoftmax(const NodePtr& x, std::vector<int64_t> offsets)
{
    checkOffsets(offsets, x->value.rows());
    const int64_t segments = int64_t(offsets.size()) - 1;
    const int64_t c = x->value.cols();
    Tensor out(x->value.rows(), c);
    for (int64_t s = 0; s < segments; ++s) {
        for (int64_t j = 0; j < c; ++j) {
            float maxv = -1e30f;
            for (int64_t r = offsets[s]; r < offsets[s + 1]; ++r)
                maxv = std::max(maxv, x->value.at(r, j));
            double denom = 0.0;
            for (int64_t r = offsets[s]; r < offsets[s + 1]; ++r)
                denom += std::exp(double(x->value.at(r, j) - maxv));
            for (int64_t r = offsets[s]; r < offsets[s + 1]; ++r)
                out.at(r, j) = float(
                    std::exp(double(x->value.at(r, j) - maxv)) / denom);
        }
    }
    return makeOp(std::move(out), {x},
                  [off = std::move(offsets), c](Node& node) {
        if (!node.inputs[0]->needsGrad())
            return;
        Tensor& xg = node.inputs[0]->ensureGrad();
        const int64_t segments = int64_t(off.size()) - 1;
        // d x_r = y_r * (g_r - sum_k y_k g_k), per segment and column.
        for (int64_t s = 0; s < segments; ++s) {
            for (int64_t j = 0; j < c; ++j) {
                double dot = 0.0;
                for (int64_t r = off[s]; r < off[s + 1]; ++r)
                    dot += double(node.value.at(r, j)) *
                           double(node.grad.at(r, j));
                for (int64_t r = off[s]; r < off[s + 1]; ++r)
                    xg.at(r, j) += node.value.at(r, j) *
                                   (node.grad.at(r, j) - float(dot));
            }
        }
    });
}

NodePtr
softmaxCrossEntropy(const NodePtr& logits, std::vector<int32_t> labels)
{
    const int64_t n = logits->value.rows();
    const int64_t classes = logits->value.cols();
    BETTY_ASSERT(int64_t(labels.size()) == n,
                 "labels size mismatch: ", labels.size(), " vs ", n);
    BETTY_ASSERT(n > 0, "cross entropy over empty batch");

    // probs is captured for the backward pass: d logits = (p - y) / n.
    auto probs = std::make_shared<Tensor>(n, classes);
    double loss = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        float maxv = -1e30f;
        for (int64_t j = 0; j < classes; ++j)
            maxv = std::max(maxv, logits->value.at(i, j));
        double denom = 0.0;
        for (int64_t j = 0; j < classes; ++j)
            denom += std::exp(double(logits->value.at(i, j) - maxv));
        for (int64_t j = 0; j < classes; ++j)
            probs->at(i, j) = float(
                std::exp(double(logits->value.at(i, j) - maxv)) / denom);
        const int32_t y = labels[size_t(i)];
        BETTY_ASSERT(y >= 0 && y < classes, "label ", y, " out of range");
        loss -= std::log(std::max(1e-12, double(probs->at(i, y))));
    }
    Tensor out = Tensor::full(1, 1, float(loss / double(n)));
    return makeOp(std::move(out), {logits},
                  [probs, lab = std::move(labels)](Node& node) {
        if (!node.inputs[0]->needsGrad())
            return;
        Tensor& lg = node.inputs[0]->ensureGrad();
        const int64_t n = lg.rows(), classes = lg.cols();
        const float upstream = node.grad.at(0, 0) / float(n);
        for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < classes; ++j) {
                const float indicator =
                    (j == lab[size_t(i)]) ? 1.0f : 0.0f;
                lg.at(i, j) += upstream * (probs->at(i, j) - indicator);
            }
        }
    });
}

void
backward(const NodePtr& root)
{
    BETTY_ASSERT(root->value.rows() == 1 && root->value.cols() == 1,
                 "backward expects a scalar root");
    // Iterative post-order topological sort (graphs can be deep for
    // LSTM aggregators over high-degree buckets).
    std::vector<Node*> order;
    std::unordered_set<Node*> visited;
    std::vector<std::pair<Node*, size_t>> stack;
    stack.emplace_back(root.get(), 0);
    visited.insert(root.get());
    while (!stack.empty()) {
        auto& [node, next_child] = stack.back();
        if (next_child < node->inputs.size()) {
            Node* child = node->inputs[next_child++].get();
            if (visited.insert(child).second)
                stack.emplace_back(child, 0);
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    root->ensureGrad().fill(1.0f);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node* node = *it;
        if (node->backwardFn && !node->grad.empty())
            node->backwardFn(*node);
    }
}

int64_t
countCorrect(const Tensor& logits, const std::vector<int32_t>& labels)
{
    BETTY_ASSERT(int64_t(labels.size()) == logits.rows(),
                 "countCorrect size mismatch");
    int64_t correct = 0;
    for (int64_t i = 0; i < logits.rows(); ++i) {
        int64_t best = 0;
        for (int64_t j = 1; j < logits.cols(); ++j)
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        if (best == labels[size_t(i)])
            ++correct;
    }
    return correct;
}

} // namespace ag
} // namespace betty
