#include "core/micro_batch.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/markers.h"
#include "util/thread_pool.h"

namespace betty {

namespace {

/** Panic unless @p full keeps MultiLayerBatch's chaining invariant. */
void
assertChained(const MultiLayerBatch& full)
{
    BETTY_ASSERT(full.numLayers() > 0, "empty batch");
    for (size_t layer = 1; layer < full.blocks.size(); ++layer) {
        const auto dsts = full.blocks[layer - 1].dstNodes();
        const auto& srcs = full.blocks[layer].srcNodes();
        BETTY_ASSERT(std::equal(dsts.begin(), dsts.end(), srcs.begin(),
                                srcs.end()),
                     "layer ", layer - 1,
                     "'s destinations are not layer ", layer,
                     "'s sources (chaining invariant, sampling/block.h)");
    }
}

/**
 * Walks the groups of one call: the output ids' local indices, then
 * one group per pool slot.
 */
class GroupWalk
{
  public:
    GroupWalk(const MultiLayerBatch& full,
              const std::vector<std::vector<int64_t>>& groups)
        : full_(full), groups_(groups)
    {
        assertChained(full);
        const auto outputs = full.outputNodes();
        output_local_.reserve(outputs.size() * 2);
        for (size_t i = 0; i < outputs.size(); ++i)
            output_local_.emplace(outputs[i], int64_t(i));
    }

    /**
     * Run @p per_group(g) for every group g, one per slot of the
     * global pool: callers write only slot g, so results do not depend
     * on the lane count.
     */
    template <typename PerGroup>
    void
    forEachGroup(const PerGroup& per_group) const
    {
        ThreadPool::global().parallelFor(
            0, int64_t(groups_.size()), 1, [&](int64_t lo, int64_t hi) {
                for (int64_t g = lo; g < hi; ++g)
                    per_group(size_t(g));
            });
    }

    /**
     * Walk group @p g outside in. Each layer's block keeps its
     * destinations' in-edges; its sources — the destinations first,
     * then every new source in edge order, the numbering of the Block
     * constructor — are local indices of the full block, and by the
     * chaining invariant the same indices name them as the
     * destinations of the layer below. Fills @p shapes and, when
     * @p blocks is non-null, builds the blocks.
     */
    void
    walk(size_t g, std::vector<BlockShape>& shapes,
         std::vector<Block>* blocks) const
    {
        const int64_t layers = full_.numLayers();
        const auto& group = groups_[g];
        std::vector<int64_t> dsts;
        dsts.reserve(group.size());
        for (int64_t node : group) {
            const auto it = output_local_.find(node);
            BETTY_ASSERT(it != output_local_.end(), "node ", node,
                         " is not a destination of layer ", layers - 1);
            dsts.push_back(it->second);
        }

        // One marker set per pool lane, over the full block's sources.
        thread_local Markers markers;
        shapes.resize(size_t(layers));
        if (blocks)
            blocks->resize(size_t(layers));
        for (int64_t layer = layers - 1; layer >= 0; --layer) {
            const Block& parent = full_.blocks[size_t(layer)];
            const auto& offsets = parent.edgeOffsets();
            const auto& sources = parent.edgeSources();
            markers.reset(parent.numSrc());
            std::vector<int64_t> srcs = dsts;
            for (size_t i = 0; i < dsts.size(); ++i) {
                BETTY_ASSERT(!markers.seen(dsts[i]),
                             "duplicate destination node ",
                             parent.srcNodes()[size_t(dsts[i])]);
                markers.mark(dsts[i], int64_t(i));
            }

            int64_t edges = 0;
            for (int64_t d : dsts)
                edges += offsets[size_t(d) + 1] - offsets[size_t(d)];
            std::vector<int64_t> micro_offsets, micro_sources;
            if (blocks) {
                micro_offsets.reserve(dsts.size() + 1);
                micro_offsets.push_back(0);
                micro_sources.reserve(size_t(edges));
            }
            for (int64_t d : dsts) {
                for (int64_t e = offsets[size_t(d)];
                     e < offsets[size_t(d) + 1]; ++e) {
                    const int64_t s = sources[size_t(e)];
                    if (!markers.seen(s)) {
                        markers.mark(s, int64_t(srcs.size()));
                        srcs.push_back(s);
                    }
                    if (blocks)
                        micro_sources.push_back(
                            markers.local[size_t(s)]);
                }
                if (blocks)
                    micro_offsets.push_back(int64_t(micro_sources.size()));
            }
            shapes[size_t(layer)] = {int64_t(dsts.size()),
                                     int64_t(srcs.size()), edges};

            if (blocks) {
                std::vector<int64_t> src_nodes(srcs.size());
                for (size_t i = 0; i < srcs.size(); ++i)
                    src_nodes[i] = parent.srcNodes()[size_t(srcs[i])];
                (*blocks)[size_t(layer)] = Block::fromCsr(
                    int64_t(dsts.size()), std::move(src_nodes),
                    std::move(micro_offsets), std::move(micro_sources));
            }
            dsts = std::move(srcs);
        }
    }

  private:
    const MultiLayerBatch& full_;
    const std::vector<std::vector<int64_t>>& groups_;
    // The one hash map: raw output id -> local output destination.
    std::unordered_map<int64_t, int64_t> output_local_;
};

} // namespace

std::vector<MultiLayerBatch>
extractMicroBatches(const MultiLayerBatch& full,
                    const std::vector<std::vector<int64_t>>& groups)
{
    BETTY_TRACE_SPAN_CAT("partition/extract_micro_batches", "partition");
    const GroupWalk walk(full, groups);
    std::vector<MultiLayerBatch> micros(groups.size());
    walk.forEachGroup([&](size_t g) {
        std::vector<BlockShape> shapes;
        walk.walk(g, shapes, &micros[g].blocks);
    });
    if (obs::Metrics::enabled()) {
        // Structure bytes (Table 3 item (4)) across the extracted
        // micro-batches: K copies of shared edges make this exceed the
        // full batch's structureBytes() — the redundancy Betty trades
        // for peak-memory headroom.
        static obs::Counter& structure_bytes =
            obs::Metrics::counter("micro_batch.structure_bytes");
        for (const auto& micro : micros)
            structure_bytes.add(micro.structureBytes());
    }
    return micros;
}

std::vector<std::vector<BlockShape>>
microBatchShapes(const MultiLayerBatch& full,
                 const std::vector<std::vector<int64_t>>& groups)
{
    BETTY_TRACE_SPAN_CAT("partition/shape_micro_batches", "partition");
    const GroupWalk walk(full, groups);
    std::vector<std::vector<BlockShape>> shapes(groups.size());
    walk.forEachGroup(
        [&](size_t g) { walk.walk(g, shapes[g], nullptr); });
    return shapes;
}

int64_t
inputNodeRedundancy(const MultiLayerBatch& full,
                    const std::vector<MultiLayerBatch>& micros)
{
    int64_t total = 0;
    for (const auto& micro : micros)
        total += int64_t(micro.inputNodes().size());
    return total - int64_t(full.inputNodes().size());
}

} // namespace betty
