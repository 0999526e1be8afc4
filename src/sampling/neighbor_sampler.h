/**
 * @file
 * Fanout-bounded multi-layer neighbor sampling (GraphSAGE-style).
 *
 * Starting from a set of output (seed) nodes, build one Block per GNN
 * layer from the outside in: the seeds of the deepest block are the
 * labelled nodes, the sources of each block become the destinations of
 * the block below, and each destination keeps at most fanout in-
 * neighbors (all of them when fanout < 0, i.e. "full" sampling as used
 * for the paper's full-batch blocks).
 */
#ifndef BETTY_SAMPLING_NEIGHBOR_SAMPLER_H
#define BETTY_SAMPLING_NEIGHBOR_SAMPLER_H

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "sampling/block.h"
#include "util/markers.h"
#include "util/rng.h"

namespace betty {

/** Multi-layer neighbor sampler over a raw graph. */
class NeighborSampler
{
  public:
    /**
     * @param graph The raw input graph (must outlive the sampler).
     * @param fanouts Per-layer in-neighbor caps, ordered from the input
     * layer (index 0) to the output layer, matching DGL. Negative
     * means "take every in-neighbor".
     * @param seed RNG seed. The k-th sample() call derives a call
     * seed from (seed, k), and each (layer, destination) pair draws
     * from its own counter-based stream
     * Rng::stream(call_seed, layer, dst). A destination's sample is a
     * pure function of (seed, call index, layer, dst) — never of the
     * order destinations are visited, of which other seeds share the
     * batch, or of the thread count — so repeated epochs draw fresh
     * neighborhoods while any `--threads` value replays the identical
     * sequence. Sampling is parallelized over destinations via the
     * global ThreadPool; one serial pass then numbers each block's
     * sources.
     */
    NeighborSampler(const CsrGraph& graph, std::vector<int64_t> fanouts,
                    uint64_t seed = 7);

    /** Number of GNN layers this sampler builds blocks for. */
    int64_t numLayers() const { return int64_t(fanouts_.size()); }

    /** Build the multi-level bipartite batch for @p seeds. */
    MultiLayerBatch sample(const std::vector<int64_t>& seeds);

  private:
    const CsrGraph& graph_;
    std::vector<int64_t> fanouts_;
    uint64_t seed_;
    /** Calls made so far; the only state a sample depends on. */
    uint64_t call_index_ = 0;
    /** Scratch for numbering sources over graph node ids, sized on
     * the first sample() call. */
    Markers markers_;
};

} // namespace betty

#endif // BETTY_SAMPLING_NEIGHBOR_SAMPLER_H
