/**
 * @file
 * Graph attention (GAT) convolution layer over one bipartite block.
 *
 * Per head: z = h W; edge score e_{uv} = LeakyReLU(aₗ·z_v + aᵣ·z_u);
 * attention = softmax over each destination's in-edges (plus an
 * implicit self edge so every destination attends to itself);
 * h'_v = sum over in-edges of attention * z_u. Head outputs are
 * concatenated (hidden layers) or averaged (output layer).
 */
#ifndef BETTY_NN_GAT_CONV_H
#define BETTY_NN_GAT_CONV_H

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"
#include "sampling/block.h"

namespace betty {

/** Multi-head graph attention layer. */
class GatConv : public Module
{
  public:
    /**
     * @param out_dim Per-head output width; the concatenated output is
     * num_heads * out_dim wide unless heads are averaged.
     */
    GatConv(int64_t in_dim, int64_t out_dim, int64_t num_heads,
            Rng& rng);

    /**
     * @param average_heads Average head outputs ([numDst, outDim])
     * instead of concatenating ([numDst, numHeads * outDim]); used on
     * the output layer.
     */
    ag::NodePtr forward(const Block& block, const ag::NodePtr& h_src,
                        bool average_heads = false) const;

    int64_t inDim() const { return in_dim_; }
    int64_t numHeads() const { return int64_t(heads_.size()); }

  private:
    struct Head
    {
        std::unique_ptr<Linear> fc;
        ag::NodePtr attnDst; // a_l, [out_dim, 1]
        ag::NodePtr attnSrc; // a_r, [out_dim, 1]
    };

    ag::NodePtr headForward(const Head& head, const Block& block,
                            const ag::NodePtr& h_src,
                            const std::vector<int64_t>& edge_src,
                            const std::vector<int64_t>& edge_dst,
                            const std::vector<int64_t>& offsets) const;

    int64_t in_dim_;
    std::vector<Head> heads_;
};

} // namespace betty

#endif // BETTY_NN_GAT_CONV_H
