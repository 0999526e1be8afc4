/**
 * @file
 * Directed graph in compressed-sparse-row form.
 *
 * This is the substrate the datasets live in: node u with an edge
 * u -> v means "u is an (in-)neighbor whose features v aggregates",
 * matching the paper's notation (Equation 1: SUM over u -> v).
 * Both out- and in-adjacency are materialized because sampling walks
 * in-edges (who feeds v) while REG construction walks out-edges
 * (who does u feed).
 */
#ifndef BETTY_GRAPH_CSR_GRAPH_H
#define BETTY_GRAPH_CSR_GRAPH_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace betty {

/** One directed edge, source -> destination. */
struct Edge
{
    int64_t src;
    int64_t dst;
};

/** Immutable directed graph with both adjacency directions in CSR. */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Build from an edge list. Parallel edges are kept (they occur in
     * sampled multigraphs); self loops are kept unless @p drop_self_loops.
     */
    CsrGraph(int64_t num_nodes, const std::vector<Edge>& edges,
             bool drop_self_loops = false);

    int64_t numNodes() const { return num_nodes_; }
    int64_t numEdges() const { return num_edges_; }

    /** Destinations of edges leaving @p node. */
    std::span<const int64_t> outNeighbors(int64_t node) const;

    /** Sources of edges entering @p node. */
    std::span<const int64_t> inNeighbors(int64_t node) const;

    int64_t outDegree(int64_t node) const;
    int64_t inDegree(int64_t node) const;

    /** Maximum in-degree across all nodes (0 for an empty graph). */
    int64_t maxInDegree() const;

    /** Reconstruct the edge list (src, dst) in out-CSR order. */
    std::vector<Edge> edgeList() const;

  private:
    int64_t num_nodes_ = 0;
    int64_t num_edges_ = 0;
    std::vector<int64_t> out_offsets_;
    std::vector<int64_t> out_targets_;
    std::vector<int64_t> in_offsets_;
    std::vector<int64_t> in_sources_;
};

} // namespace betty

#endif // BETTY_GRAPH_CSR_GRAPH_H
