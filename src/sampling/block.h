/**
 * @file
 * Bipartite layer graphs ("blocks") — the unit Betty partitions.
 *
 * A Block is the DGL block equivalent: one level of the multi-level
 * bipartite structure of a GNN batch (paper §4.2.2, Figure 7).
 * Destination nodes are the centers whose representations the layer
 * computes; source nodes are the (sampled) in-neighbors whose features
 * feed the aggregation. Following the DGL convention, the destination
 * nodes appear as the prefix of the source list so a node's own
 * previous-layer representation is always available (GraphSAGE
 * concatenates it with the neighbor aggregate).
 *
 * A MultiLayerBatch stacks L blocks: blocks[0] touches the raw input
 * features, blocks[L-1] produces the output (labelled) nodes.
 */
#ifndef BETTY_SAMPLING_BLOCK_H
#define BETTY_SAMPLING_BLOCK_H

#include <cstdint>
#include <span>
#include <vector>

namespace betty {

/**
 * Device bytes of one block edge (Table 3 item (4)): source and
 * destination node IDs plus one float of edge payload.
 */
inline constexpr int64_t kStructureBytesPerEdge = 2 * 8 + 4;

/** Node and edge counts of one block: all the memory estimator reads
 * of it (memory/estimator.h). */
struct BlockShape
{
    int64_t numDst = 0;
    int64_t numSrc = 0;
    int64_t numEdges = 0;

    bool operator==(const BlockShape&) const = default;
};

/** One bipartite layer of a batch, with local CSR over in-edges. */
class Block
{
  public:
    Block() = default;

    /**
     * Build from destination nodes and their per-destination source
     * lists (all in raw-graph global IDs). The source index is
     * constructed so destinations occupy local slots [0, numDst).
     */
    Block(std::vector<int64_t> dst_nodes,
          const std::vector<std::vector<int64_t>>& src_per_dst);

    /**
     * Adopt already-built CSR arrays: @p src_nodes with the
     * @p num_dst destinations as its prefix, per-destination offsets
     * (size num_dst + 1) and local source indices. The caller
     * guarantees what the constructor above establishes — unique
     * nodes, indices in range, sources in first-seen order — so
     * micro-batch extraction (core/micro_batch.h) can build blocks
     * without re-deriving the numbering.
     */
    static Block fromCsr(int64_t num_dst, std::vector<int64_t> src_nodes,
                         std::vector<int64_t> edge_offsets,
                         std::vector<int64_t> edge_sources);

    int64_t numDst() const { return num_dst_; }
    int64_t numSrc() const { return int64_t(src_nodes_.size()); }
    int64_t numEdges() const { return int64_t(edge_src_local_.size()); }

    BlockShape shape() const { return {numDst(), numSrc(), numEdges()}; }

    /** Global (raw-graph) IDs of all source nodes; dsts are the prefix. */
    const std::vector<int64_t>& srcNodes() const { return src_nodes_; }

    /** Global IDs of the destination nodes (== first numDst srcNodes). */
    std::span<const int64_t> dstNodes() const
    {
        return {src_nodes_.data(), size_t(num_dst_)};
    }

    /** Local source indices of the in-edges of local destination @p i. */
    std::span<const int64_t> inEdges(int64_t i) const;

    /** All edges' local source indices, grouped by destination (CSR
     * payload; use edgeOffsets() for the per-destination bounds). */
    const std::vector<int64_t>& edgeSources() const
    {
        return edge_src_local_;
    }

    /** Per-destination CSR offsets into edgeSources(), size numDst+1. */
    const std::vector<int64_t>& edgeOffsets() const
    {
        return edge_offsets_;
    }

    /** In-degree of local destination @p i. */
    int64_t inDegree(int64_t i) const
    {
        return int64_t(inEdges(i).size());
    }

    /**
     * Destination local indices grouped by in-degree, DGL-style
     * bucketing (paper §4.4.2): result[d] holds the dsts with exact
     * degree d for d < max_bucket; result[max_bucket] holds the long
     * tail (degree >= max_bucket).
     */
    std::vector<std::vector<int64_t>> degreeBuckets(
        int64_t max_bucket) const;

  private:
    int64_t num_dst_ = 0;
    std::vector<int64_t> src_nodes_;
    std::vector<int64_t> edge_offsets_;   // per-dst CSR, size numDst + 1
    std::vector<int64_t> edge_src_local_; // local src index per edge
};

/**
 * A complete GNN batch: L stacked bipartite blocks.
 *
 * Chaining invariant: for every l >= 1, blocks[l-1].dstNodes() equals
 * blocks[l].srcNodes(), element by element. The sampler builds batches
 * this way, the models rely on it (layer l reads its source rows as
 * layer l-1's output rows, by position), and micro-batch extraction
 * walks the layers in local indices because of it — it panics on a
 * batch that breaks it. Hand-built batches must keep it too.
 */
struct MultiLayerBatch
{
    /** blocks[0] reads raw features; blocks.back() emits outputs. */
    std::vector<Block> blocks;

    int64_t numLayers() const { return int64_t(blocks.size()); }

    /** Raw-graph IDs whose features must be loaded (first-layer srcs). */
    const std::vector<int64_t>&
    inputNodes() const
    {
        return blocks.front().srcNodes();
    }

    /** Raw-graph IDs of the labelled output nodes. */
    std::span<const int64_t>
    outputNodes() const
    {
        return blocks.back().dstNodes();
    }

    /** Total edges across all blocks (drives block-size memory cost). */
    int64_t
    totalEdges() const
    {
        int64_t total = 0;
        for (const auto& b : blocks)
            total += b.numEdges();
        return total;
    }

    /** Per-layer node and edge counts, blocks[0] first. */
    std::vector<BlockShape>
    shape() const
    {
        std::vector<BlockShape> shapes;
        shapes.reserve(blocks.size());
        for (const auto& b : blocks)
            shapes.push_back(b.shape());
        return shapes;
    }

    /**
     * Device bytes of the batch's block structure (Table 3 item (4)):
     * kStructureBytesPerEdge per edge. The trainers charge exactly
     * this when a batch lands on a device; the estimator prices item
     * (4) with the same constant.
     */
    int64_t
    structureBytes() const
    {
        return totalEdges() * kStructureBytesPerEdge;
    }
};

} // namespace betty

#endif // BETTY_SAMPLING_BLOCK_H
