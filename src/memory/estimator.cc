#include "memory/estimator.h"

#include <algorithm>

#include "util/logging.h"

namespace betty {

namespace {

constexpr int64_t kFloat = 4;   // bytes per float32 scalar
constexpr int64_t kLabel = 4;   // bytes per label
// Node-ID bytes for item (4): kStructureBytesPerEdge (sampling/block.h).

/** Per-layer forward/backward byte costs (see the derivations below). */
struct LayerCost
{
    int64_t hidden = 0;     // item (5): layer output chain
    int64_t aggregator = 0; // item (6): aggregation intermediates
    int64_t backward = 0;   // gradient buffers of the above
};

/**
 * Price one SAGE layer over one block.
 *
 * The numbers mirror the actual allocation pattern of nn/sage_conv:
 * every autograd op materializes its output, so a layer's forward
 * keeps (gather -> aggregate -> concat with self -> linear -> bias ->
 * activation) alive simultaneously, and backward allocates one
 * gradient buffer per intermediate that needs one. Intermediates fed
 * only by raw input features (layer 0's gathers) never receive
 * gradients, which is why @p input_needs_grad matters.
 */
LayerCost
layerCost(const BlockShape& block, int64_t d, int64_t h,
          AggregatorKind agg, bool last_layer, bool input_needs_grad,
          int64_t lstm_c, int64_t heads)
{
    const int64_t n = block.numDst;
    const int64_t e = block.numEdges;

    LayerCost cost;
    // Output chain: matmul out, +bias, activation (skipped on the last
    // layer where raw logits feed the loss). GAT produces its output
    // inside the attention chain (priced below), so only the
    // inter-layer activation remains.
    const int64_t out_chain =
        agg == AggregatorKind::Attention
            ? (last_layer ? 0 : n * h)
            : (last_layer ? 2 : 3) * n * h;
    cost.hidden = out_chain * kFloat;

    int64_t agg_scalars = 0;   // forward intermediate scalars
    int64_t nograd_scalars = 0; // of which skip gradients at layer 0
    switch (agg) {
      case AggregatorKind::Mean:
      case AggregatorKind::Sum:
        // Fused gather+reduce [N,d] (no [E,d] materialization — the
        // DGL fused-kernel behaviour) + self gather [N,d] + concat
        // [N,2d]. At layer 0 the whole chain is a function of
        // constant features only (the output projection's weight grad
        // needs their VALUES, not their gradients), so none of these
        // receive gradient buffers there.
        agg_scalars = n * d + n * d + n * 2 * d;
        nograd_scalars = agg_scalars;
        break;
      case AggregatorKind::Pool:
        // gather [E,d] + fc chain (matmul/bias/relu, in_dim wide)
        // 3 x [E,d] + segment max [N,d] + self gather [N,d]
        // + concat [N,2d]. The fc chain sits downstream of pool
        // parameters and always gets gradients; only the gathers of
        // raw features skip them at layer 0.
        agg_scalars = 4 * e * d + n * d + n * d + n * 2 * d;
        nograd_scalars = e * d + n * d;
        break;
      case AggregatorKind::Gcn:
        // Fused sum [N,d] + self gather [N,d] + add [N,d] +
        // normalized [N,d] + the 1/(deg+1) column [N,1]; all derived
        // from constant features at layer 0 (the fc weight gradient
        // needs values only).
        agg_scalars = 4 * n * d + n;
        nograd_scalars = agg_scalars;
        break;
      case AggregatorKind::Gin:
        // Fused sum + self + (1+eps)-scaled self + combined add
        // (4 [N,d]) plus three [N,1] columns, plus the first MLP
        // layer's chain (matmul/bias/relu, 3 [N,h]; the second MLP
        // layer is the out_chain). The (1+eps) path sits downstream of
        // the eps parameter, so only the raw sum/self gathers skip
        // gradients at layer 0.
        agg_scalars = 4 * n * d + 3 * n + 3 * n * h;
        nograd_scalars = 2 * n * d;
        break;
      case AggregatorKind::Attention: {
        // GAT layer (nn/gat_conv.cc): per head, z = fc(h_src) [S,hh],
        // el/er [S,1], then over the extended edge list (sampled
        // edges plus one self edge per destination) the score chain
        // (gather dst, gather src, add, leakyrelu, softmax -> 5
        // tensors of [E',1]) and the message chain (gather [E',hh],
        // weighted [E',hh]) into segmentSum [N,hh]. Hidden layers
        // concatenate heads pairwise (~2 N h in staging); everything
        // sits downstream of the fc weights so backward buffers
        // mirror the forward allocations except the raw-feature
        // operands of the very first fc (handled by nograd below via
        // the caller's flag being irrelevant: z itself always needs
        // gradients).
        const int64_t s = block.numSrc;
        const int64_t eprime = e + n;
        const int64_t active_heads = last_layer ? 1 : heads;
        const int64_t hh = h / active_heads;
        const int64_t per_head = s * hh + 2 * s + 5 * eprime +
                                 2 * eprime * hh + n * hh;
        // Output staging (head concatenation plus downstream copy
        // slack): 2 N h, plus the extra pairwise-concat intermediates
        // beyond that for 3+ heads (concat widths 2hh..H*hh sum to
        // (H(H+1)/2 - 1) hh).
        const int64_t pairwise =
            n * hh * (active_heads * (active_heads + 1) / 2 - 1);
        const int64_t staging =
            2 * n * h + std::max<int64_t>(0, pairwise - 2 * n * h);
        agg_scalars = active_heads * per_head + staging;
        nograd_scalars = 0;
        break;
      }
      case AggregatorKind::Lstm: {
        // Eq. 5: per destination of in-degree L, the LSTM runs L
        // timesteps; each (node, step) materializes lstm_c scalars of
        // width d (gates, activations, cell updates, and the x_t
        // gather). Sum of L_i * B_i over the degree histogram is
        // exactly the edge count. Plus the bucket stack, its
        // un-permutation, the self gather and the concat.
        agg_scalars = e * d * lstm_c + n * d + n * d + n * d +
                      n * 2 * d;
        nograd_scalars = e * d + n * d; // x_t gathers + self gather
        break;
      }
    }
    cost.aggregator = agg_scalars * kFloat;

    int64_t grad_scalars = out_chain + agg_scalars;
    if (!input_needs_grad)
        grad_scalars -= nograd_scalars;
    cost.backward = grad_scalars * kFloat;
    return cost;
}

} // namespace

std::string
aggregatorName(AggregatorKind kind)
{
    switch (kind) {
      case AggregatorKind::Mean:
        return "mean";
      case AggregatorKind::Sum:
        return "sum";
      case AggregatorKind::Pool:
        return "pool";
      case AggregatorKind::Lstm:
        return "lstm";
      case AggregatorKind::Attention:
        return "attention";
      case AggregatorKind::Gcn:
        return "gcn";
      case AggregatorKind::Gin:
        return "gin";
    }
    return "?";
}

MemoryEstimate
estimateMemory(std::span<const BlockShape> shape, const GnnSpec& spec)
{
    BETTY_ASSERT(int64_t(shape.size()) == spec.numLayers,
                 "batch has ", shape.size(), " blocks but model has ",
                 spec.numLayers, " layers");

    MemoryEstimate est;
    const int64_t params = spec.paramCountGnn + spec.paramCountAgg;
    int64_t edges = 0;
    for (const BlockShape& block : shape)
        edges += block.numEdges;
    est.parameters = params * kFloat;                            // (1)
    est.inputFeatures =
        shape.front().numSrc * spec.inputDim * kFloat;           // (2)
    est.labels = shape.back().numDst * kLabel;                   // (3)
    est.blocks = edges * kStructureBytesPerEdge;                 // (4)
    est.gradients = params * kFloat;                             // (7)
    est.optimizerStates =
        (spec.optimizer == OptimizerKind::Adam ? 2 : 0) * params *
        kFloat;                                                  // (8)

    for (int64_t layer = 0; layer < spec.numLayers; ++layer) {
        const LayerCost cost = layerCost(
            shape[size_t(layer)], spec.layerInDim(layer),
            spec.layerOutDim(layer), spec.aggregator,
            layer + 1 == spec.numLayers, layer > 0,
            spec.lstmIntermediatesPerNode, spec.attentionHeads);
        est.hidden += cost.hidden;          // (5)
        est.aggregator += cost.aggregator;  // (6)
        est.backwardBuffers += cost.backward;
    }

    // Our runtime holds the autograd graph (forward values) until the
    // whole backward finishes, so activation values, their gradient
    // buffers and the parameter gradients coexist at the peak. (The
    // paper's max((6),(7)) variant models eager freeing; with graph
    // retention the sum is the accurate bound.)
    est.peak = est.parameters + est.inputFeatures + est.labels +
               est.blocks + est.hidden + est.aggregator +
               est.backwardBuffers + est.gradients +
               est.optimizerStates;
    return est;
}

MemoryEstimate
estimateBatchMemory(const MultiLayerBatch& batch, const GnnSpec& spec)
{
    return estimateMemory(batch.shape(), spec);
}

int64_t
componentBytes(const MemoryEstimate& estimate, obs::MemCategory category)
{
    switch (category) {
      case obs::MemCategory::Parameters:
        return estimate.parameters;
      case obs::MemCategory::InputFeatures:
        return estimate.inputFeatures;
      case obs::MemCategory::Labels:
        return estimate.labels;
      case obs::MemCategory::Blocks:
        return estimate.blocks;
      case obs::MemCategory::Hidden:
        return estimate.hidden;
      case obs::MemCategory::Aggregator:
        return estimate.aggregator;
      case obs::MemCategory::Gradients:
        // The profiler tags intermediate (backward-buffer) gradients
        // and parameter gradients alike as Gradients.
        return estimate.gradients + estimate.backwardBuffers;
      case obs::MemCategory::OptimizerState:
        return estimate.optimizerStates;
      case obs::MemCategory::FeatureCache:
        // The cache reservation is a fixed carve-out charged at cache
        // construction, not a per-micro-batch working-set component.
        return 0;
      case obs::MemCategory::Uncategorized:
        return 0;
    }
    return 0;
}

} // namespace betty
