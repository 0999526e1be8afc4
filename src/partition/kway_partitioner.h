/**
 * @file
 * Multilevel K-way minimum-edge-cut graph partitioning.
 *
 * From-scratch reimplementation of the algorithm family METIS belongs
 * to (Karypis & Kumar), which the paper uses both to partition the
 * redundancy-embedded graph (Algorithm 1, line 8) and as its "Metis"
 * baseline. Pipeline:
 *
 *   1. Coarsening — heavy-edge matching collapses the graph level by
 *      level until it is small (coarsen.h).
 *   2. Initial partitioning — greedy graph growing on the coarsest
 *      level (initial.h).
 *   3. Uncoarsening — the partition is projected back level by level,
 *      with boundary Kernighan-Lin/FM-style refinement after each
 *      projection (refine.h).
 *
 * The objective is the weighted edge cut, subject to a vertex-weight
 * balance constraint: every part's weight must stay below
 * imbalance * ceil(totalWeight / k).
 */
#ifndef BETTY_PARTITION_KWAY_PARTITIONER_H
#define BETTY_PARTITION_KWAY_PARTITIONER_H

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"

namespace betty {

/** Tuning knobs for the multilevel partitioner. */
struct KwayOptions
{
    /** Number of parts; must be >= 1. */
    int32_t k = 2;

    /** Allowed part weight relative to perfect balance (METIS ufactor). */
    double imbalance = 1.05;

    /** Stop coarsening when the graph has at most max(k * this, 64)
     * vertices. */
    int64_t coarsenToPerPart = 15;

    /** Refinement passes per uncoarsening level. */
    int32_t refinePasses = 8;

    /** Seed for matching and initial-growth tie breaking. */
    uint64_t seed = 13;

    /** Independent multilevel runs, one per pool slot; the lowest-cut
     * result wins, the first run on ties. Matches METIS's
     * multiple-initial-partition strategy. */
    int32_t restarts = 3;
};

/**
 * Partition @p graph into opts.k parts minimizing the weighted edge
 * cut. Returns a part id in [0, k) for every vertex. Handles k = 1,
 * graphs with isolated vertices, and graphs smaller than k (parts may
 * then be empty).
 */
std::vector<int32_t> kwayPartition(const WeightedGraph& graph,
                                   const KwayOptions& opts);

/** Largest part weight divided by perfect balance (1.0 = perfect). */
double partitionImbalance(const WeightedGraph& graph,
                          const std::vector<int32_t>& parts, int32_t k);

/**
 * Warm-start partitioning: skip the multilevel V-cycle and instead
 * rebalance + refine an existing assignment on the flat graph. Orders
 * of magnitude cheaper than kwayPartition when the graph changed
 * little — the paper's future-work item on reducing the partitioning
 * overhead of repeated batches (§7). The result never has a worse cut
 * than the rebalanced input.
 */
std::vector<int32_t> kwayPartitionWarm(const WeightedGraph& graph,
                                       const KwayOptions& opts,
                                       std::vector<int32_t> initial);

} // namespace betty

#endif // BETTY_PARTITION_KWAY_PARTITIONER_H
