#include "sampling/neighbor_sampler.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty {

namespace {

/** Destinations per parallelFor chunk (fixed; see thread_pool.h). */
constexpr int64_t kSampleGrain = 256;

/** Domain tag separating the per-call seed derivation from the
 * per-(layer, dst) stream keys ("call" in ASCII). */
constexpr uint64_t kCallStreamTag = 0x63616c6cULL;

/**
 * The block of @p dst_nodes whose in-edges @p sources (graph node ids,
 * grouped by destination as @p offsets gives) hold: one serial pass
 * numbers the sources, destinations first and then each new source in
 * first-seen edge order — the numbering of Block(dst, src_per_dst) —
 * and rewrites @p sources in place as local indices.
 */
Block
numberSources(Markers& markers, int64_t num_nodes,
              std::vector<int64_t> dst_nodes,
              std::vector<int64_t> offsets, std::vector<int64_t> sources)
{
    markers.reset(num_nodes);
    const int64_t num_dst = int64_t(dst_nodes.size());
    std::vector<int64_t> src_nodes = std::move(dst_nodes);
    for (int64_t i = 0; i < num_dst; ++i) {
        const int64_t node = src_nodes[size_t(i)];
        BETTY_ASSERT(!markers.seen(node), "duplicate destination node ",
                     node);
        markers.mark(node, i);
    }
    for (int64_t& s : sources) {
        if (!markers.seen(s)) {
            markers.mark(s, int64_t(src_nodes.size()));
            src_nodes.push_back(s);
        }
        s = markers.local[size_t(s)];
    }
    return Block::fromCsr(num_dst, std::move(src_nodes),
                          std::move(offsets), std::move(sources));
}

} // namespace

NeighborSampler::NeighborSampler(const CsrGraph& graph,
                                 std::vector<int64_t> fanouts,
                                 uint64_t seed)
    : graph_(graph), fanouts_(std::move(fanouts)), seed_(seed)
{
    BETTY_ASSERT(!fanouts_.empty(), "at least one layer required");
}

MultiLayerBatch
NeighborSampler::sample(const std::vector<int64_t>& seeds)
{
    BETTY_ASSERT(!seeds.empty(), "cannot sample an empty seed set");
    BETTY_TRACE_SPAN_CAT("sample/neighbor", "sample");

    MultiLayerBatch batch;
    batch.blocks.resize(size_t(fanouts_.size()));

    // Each call advances the counter so repeated epochs over the same
    // seeds draw FRESH neighborhoods (the stochasticity neighbor
    // sampling relies on) instead of replaying one fixed subgraph.
    // The call seed is derived once, on this thread, before any
    // parallel work: the k-th call is a pure function of (seed_, k),
    // deterministic for any thread count.
    const uint64_t call_seed =
        Rng::streamKey(seed_, kCallStreamTag, call_index_++);

    // Outside in: the output layer uses the last fanout.
    std::vector<int64_t> layer_seeds = seeds;
    for (int64_t layer = int64_t(fanouts_.size()) - 1; layer >= 0;
         --layer) {
        const int64_t fanout = fanouts_[size_t(layer)];
        const size_t num_dst = layer_seeds.size();
        // Count pass: each destination keeps min(in-degree, fanout)
        // in-edges, all of them when fanout < 0; the prefix sum gives
        // its range of the flat edge array.
        std::vector<int64_t> offsets(num_dst + 1, 0);
        for (size_t i = 0; i < num_dst; ++i) {
            const int64_t degree = graph_.inDegree(layer_seeds[i]);
            offsets[i + 1] =
                offsets[i] + (fanout < 0 ? degree : std::min(degree, fanout));
        }
        // Fill pass: each destination samples from its own
        // counter-based stream keyed on (call_seed, layer, dst) and
        // writes only its own range, so the edge array is the same for
        // any thread count and chunk schedule.
        std::vector<int64_t> sources(size_t(offsets.back()));
        ThreadPool::global().parallelFor(
            0, int64_t(num_dst), kSampleGrain,
            [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                    const int64_t dst = layer_seeds[size_t(i)];
                    const auto nbrs = graph_.inNeighbors(dst);
                    const int64_t keep = offsets[size_t(i) + 1] -
                                         offsets[size_t(i)];
                    int64_t* out = sources.data() + offsets[size_t(i)];
                    if (keep == int64_t(nbrs.size())) {
                        std::copy(nbrs.begin(), nbrs.end(), out);
                        continue;
                    }
                    Rng rng = Rng::stream(call_seed, uint64_t(layer),
                                          uint64_t(dst));
                    for (int64_t p : rng.sampleWithoutReplacement(
                             int64_t(nbrs.size()), keep))
                        *out++ = nbrs[size_t(p)];
                }
            });
        batch.blocks[size_t(layer)] =
            numberSources(markers_, graph_.numNodes(),
                          std::move(layer_seeds), std::move(offsets),
                          std::move(sources));
        layer_seeds = batch.blocks[size_t(layer)].srcNodes();
    }
    if (obs::Metrics::enabled()) {
        static obs::Counter& batches =
            obs::Metrics::counter("sampler.batches");
        static obs::Counter& fanout_nodes =
            obs::Metrics::counter("sampler.fanout_nodes");
        static obs::Counter& edges =
            obs::Metrics::counter("sampler.edges");
        batches.increment();
        // "Fanout nodes": first-layer inputs — the feature rows this
        // batch will force onto the device (Table 6's metric).
        fanout_nodes.add(int64_t(batch.inputNodes().size()));
        edges.add(batch.totalEdges());
    }
    return batch;
}

} // namespace betty
