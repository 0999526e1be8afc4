#include "graph/csr_graph.h"

#include <algorithm>

#include "util/logging.h"

namespace betty {

CsrGraph::CsrGraph(int64_t num_nodes, const std::vector<Edge>& edges,
                   bool drop_self_loops)
    : num_nodes_(num_nodes)
{
    BETTY_ASSERT(num_nodes >= 0, "negative node count");

    std::vector<int64_t> out_deg(size_t(num_nodes), 0);
    std::vector<int64_t> in_deg(size_t(num_nodes), 0);
    int64_t kept = 0;
    for (const Edge& e : edges) {
        BETTY_ASSERT(e.src >= 0 && e.src < num_nodes && e.dst >= 0 &&
                     e.dst < num_nodes,
                     "edge (", e.src, ",", e.dst, ") out of range");
        if (drop_self_loops && e.src == e.dst)
            continue;
        ++out_deg[size_t(e.src)];
        ++in_deg[size_t(e.dst)];
        ++kept;
    }
    num_edges_ = kept;

    out_offsets_.assign(size_t(num_nodes) + 1, 0);
    in_offsets_.assign(size_t(num_nodes) + 1, 0);
    for (int64_t v = 0; v < num_nodes; ++v) {
        out_offsets_[size_t(v) + 1] = out_offsets_[size_t(v)] +
                                      out_deg[size_t(v)];
        in_offsets_[size_t(v) + 1] = in_offsets_[size_t(v)] +
                                     in_deg[size_t(v)];
    }

    out_targets_.resize(size_t(num_edges_));
    in_sources_.resize(size_t(num_edges_));
    std::vector<int64_t> out_fill(out_offsets_.begin(),
                                  out_offsets_.end() - 1);
    std::vector<int64_t> in_fill(in_offsets_.begin(),
                                 in_offsets_.end() - 1);
    for (const Edge& e : edges) {
        if (drop_self_loops && e.src == e.dst)
            continue;
        out_targets_[size_t(out_fill[size_t(e.src)]++)] = e.dst;
        in_sources_[size_t(in_fill[size_t(e.dst)]++)] = e.src;
    }

    // Canonicalize adjacency order so the graph is identical no
    // matter how its edge list was ordered (serialization round
    // trips, edgeList() rebuilds, parallel builders).
    for (int64_t v = 0; v < num_nodes; ++v) {
        std::sort(out_targets_.begin() + out_offsets_[size_t(v)],
                  out_targets_.begin() + out_offsets_[size_t(v) + 1]);
        std::sort(in_sources_.begin() + in_offsets_[size_t(v)],
                  in_sources_.begin() + in_offsets_[size_t(v) + 1]);
    }
}

std::span<const int64_t>
CsrGraph::outNeighbors(int64_t node) const
{
    BETTY_ASSERT(node >= 0 && node < num_nodes_, "node out of range");
    const auto begin = size_t(out_offsets_[size_t(node)]);
    const auto end = size_t(out_offsets_[size_t(node) + 1]);
    return {out_targets_.data() + begin, end - begin};
}

std::span<const int64_t>
CsrGraph::inNeighbors(int64_t node) const
{
    BETTY_ASSERT(node >= 0 && node < num_nodes_, "node out of range");
    const auto begin = size_t(in_offsets_[size_t(node)]);
    const auto end = size_t(in_offsets_[size_t(node) + 1]);
    return {in_sources_.data() + begin, end - begin};
}

int64_t
CsrGraph::outDegree(int64_t node) const
{
    return int64_t(outNeighbors(node).size());
}

int64_t
CsrGraph::inDegree(int64_t node) const
{
    return int64_t(inNeighbors(node).size());
}

int64_t
CsrGraph::maxInDegree() const
{
    int64_t best = 0;
    for (int64_t v = 0; v < num_nodes_; ++v)
        best = std::max(best, inDegree(v));
    return best;
}

std::vector<Edge>
CsrGraph::edgeList() const
{
    std::vector<Edge> edges;
    edges.reserve(size_t(num_edges_));
    for (int64_t v = 0; v < num_nodes_; ++v)
        for (int64_t dst : outNeighbors(v))
            edges.push_back({v, dst});
    return edges;
}

} // namespace betty
