#include "sampling/block.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace betty {

Block::Block(std::vector<int64_t> dst_nodes,
             const std::vector<std::vector<int64_t>>& src_per_dst)
    : num_dst_(int64_t(dst_nodes.size()))
{
    BETTY_ASSERT(dst_nodes.size() == src_per_dst.size(),
                 "one source list per destination required");

    // Local index assignment: destinations first (DGL's
    // include_dst_in_src), then every new source in first-seen order.
    src_nodes_ = std::move(dst_nodes);
    std::unordered_map<int64_t, int64_t> local;
    local.reserve(src_nodes_.size() * 2);
    for (int64_t i = 0; i < num_dst_; ++i) {
        const auto [it, inserted] =
            local.emplace(src_nodes_[size_t(i)], i);
        (void)it;
        BETTY_ASSERT(inserted, "duplicate destination node ",
                     src_nodes_[size_t(i)]);
    }

    edge_offsets_.reserve(size_t(num_dst_) + 1);
    edge_offsets_.push_back(0);
    for (const auto& sources : src_per_dst) {
        for (int64_t global : sources) {
            auto [it, inserted] =
                local.emplace(global, int64_t(src_nodes_.size()));
            if (inserted)
                src_nodes_.push_back(global);
            edge_src_local_.push_back(it->second);
        }
        edge_offsets_.push_back(int64_t(edge_src_local_.size()));
    }
}

Block
Block::fromCsr(int64_t num_dst, std::vector<int64_t> src_nodes,
               std::vector<int64_t> edge_offsets,
               std::vector<int64_t> edge_sources)
{
    BETTY_ASSERT(num_dst >= 0 && num_dst <= int64_t(src_nodes.size()),
                 "destinations must be a prefix of the sources");
    BETTY_ASSERT(int64_t(edge_offsets.size()) == num_dst + 1 &&
                     edge_offsets.back() == int64_t(edge_sources.size()),
                 "CSR offsets disagree with the edge array");
    Block block;
    block.num_dst_ = num_dst;
    block.src_nodes_ = std::move(src_nodes);
    block.edge_offsets_ = std::move(edge_offsets);
    block.edge_src_local_ = std::move(edge_sources);
    return block;
}

std::span<const int64_t>
Block::inEdges(int64_t i) const
{
    BETTY_ASSERT(i >= 0 && i < num_dst_, "destination index out of range");
    const auto begin = size_t(edge_offsets_[size_t(i)]);
    const auto end = size_t(edge_offsets_[size_t(i) + 1]);
    return {edge_src_local_.data() + begin, end - begin};
}

std::vector<std::vector<int64_t>>
Block::degreeBuckets(int64_t max_bucket) const
{
    BETTY_ASSERT(max_bucket >= 1, "need at least one bucket");
    std::vector<std::vector<int64_t>> buckets(size_t(max_bucket) + 1);
    for (int64_t i = 0; i < num_dst_; ++i)
        buckets[size_t(std::min(inDegree(i), max_bucket))].push_back(i);
    return buckets;
}

} // namespace betty
