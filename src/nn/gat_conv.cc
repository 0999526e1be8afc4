#include "nn/gat_conv.h"

#include "obs/memprof.h"
#include "util/logging.h"

namespace betty {

GatConv::GatConv(int64_t in_dim, int64_t out_dim, int64_t num_heads,
                 Rng& rng)
    : in_dim_(in_dim)
{
    BETTY_ASSERT(num_heads >= 1, "need at least one head");
    heads_.reserve(size_t(num_heads));
    for (int64_t h = 0; h < num_heads; ++h) {
        Head head;
        head.fc = std::make_unique<Linear>(in_dim, out_dim, rng);
        registerChild(*head.fc);
        head.attnDst =
            registerParameter(Tensor::xavier(out_dim, 1, rng));
        head.attnSrc =
            registerParameter(Tensor::xavier(out_dim, 1, rng));
        heads_.push_back(std::move(head));
    }
}

ag::NodePtr
GatConv::forward(const Block& block, const ag::NodePtr& h_src,
                 bool average_heads) const
{
    BETTY_ASSERT(h_src->value.rows() == block.numSrc(),
                 "h_src rows mismatch");

    // The estimator prices the whole attention chain — projections,
    // score chain, messages, head concatenation — as item (6).
    obs::MemCategoryScope mem_scope(obs::MemCategory::Aggregator);

    // Extended edge lists: every destination gets an implicit self
    // edge in front of its sampled in-edges, so attention segments are
    // never empty and each node attends to itself.
    std::vector<int64_t> edge_src, edge_dst, offsets;
    offsets.reserve(size_t(block.numDst()) + 1);
    offsets.push_back(0);
    for (int64_t d = 0; d < block.numDst(); ++d) {
        edge_src.push_back(d); // self (dst locals are the src prefix)
        edge_dst.push_back(d);
        for (int64_t s : block.inEdges(d)) {
            edge_src.push_back(s);
            edge_dst.push_back(d);
        }
        offsets.push_back(int64_t(edge_src.size()));
    }

    std::vector<ag::NodePtr> outputs;
    outputs.reserve(heads_.size());
    for (const Head& head : heads_)
        outputs.push_back(headForward(head, block, h_src, edge_src,
                                      edge_dst, offsets));

    if (outputs.size() == 1)
        return outputs.front();
    if (!average_heads) {
        ag::NodePtr cat = outputs.front();
        for (size_t h = 1; h < outputs.size(); ++h)
            cat = ag::concatCols(cat, outputs[h]);
        return cat;
    }
    ag::NodePtr sum = outputs.front();
    for (size_t h = 1; h < outputs.size(); ++h)
        sum = ag::add(sum, outputs[h]);
    return ag::scale(sum, 1.0f / float(outputs.size()));
}

ag::NodePtr
GatConv::headForward(const Head& head, const Block& block,
                     const ag::NodePtr& h_src,
                     const std::vector<int64_t>& edge_src,
                     const std::vector<int64_t>& edge_dst,
                     const std::vector<int64_t>& offsets) const
{
    (void)block;
    using namespace ag;
    const auto z = head.fc->forward(h_src);           // [S, out]
    const auto el = matmul(z, head.attnDst);          // [S, 1]
    const auto er = matmul(z, head.attnSrc);          // [S, 1]

    const auto score_dst = gatherRows(el, edge_dst);  // [E, 1]
    const auto score_src = gatherRows(er, edge_src);  // [E, 1]
    const auto scores =
        leakyRelu(add(score_dst, score_src), 0.2f);   // [E, 1]
    const auto alpha = segmentSoftmax(scores, offsets);

    const auto messages = gatherRows(z, edge_src);    // [E, out]
    const auto weighted = mulColBroadcast(messages, alpha);
    return segmentSum(weighted, offsets);             // [N, out]
}

} // namespace betty
