/**
 * @file
 * Micro-batch extraction: turn a K-way split of a batch's output nodes
 * into K self-contained multi-level bipartite micro-batches.
 *
 * This is the equivalent of the artifact's block_dataloader.py. Each
 * micro-batch is the hierarchical bipartite closure of its output
 * group INSIDE the already-sampled full batch: for every retained
 * destination, exactly the in-edges the full batch sampled for it are
 * kept, level by level. Micro-batches therefore cover the full batch's
 * edges exactly (union = full batch, destinations disjoint), which is
 * what makes accumulated micro-batch gradients equal the full-batch
 * gradient (paper §4.2.3: "The disjoint union of V_k is V").
 *
 * Both functions below run the same walk: outside in, in the full
 * batch's local indices (the batch must keep MultiLayerBatch's
 * chaining invariant, asserted once per call), one group per pool
 * slot. microBatchShapes() stops at the counts, which is all the
 * memory estimator reads; extractMicroBatches() also builds the
 * blocks. Results are identical at any pool lane count.
 */
#ifndef BETTY_CORE_MICRO_BATCH_H
#define BETTY_CORE_MICRO_BATCH_H

#include <cstdint>
#include <vector>

#include "sampling/block.h"

namespace betty {

/**
 * Extract one micro-batch per output-node group. Groups hold raw-graph
 * node IDs and must be subsets of full.outputNodes(); empty groups
 * yield batches with zero output nodes (callers skip them).
 */
std::vector<MultiLayerBatch> extractMicroBatches(
    const MultiLayerBatch& full,
    const std::vector<std::vector<int64_t>>& groups);

/**
 * Per-layer shapes (blocks[0] first) of the micro-batches
 * extractMicroBatches(full, groups) builds, without building them:
 * result[g] == extractMicroBatches(full, groups)[g].shape().
 */
std::vector<std::vector<BlockShape>> microBatchShapes(
    const MultiLayerBatch& full,
    const std::vector<std::vector<int64_t>>& groups);

/**
 * Redundancy of a micro-batch set: sum over micro-batches of first-
 * layer input nodes, minus the full batch's count — the number of
 * duplicated feature loads the partitioning causes (Fig 16 metric).
 */
int64_t inputNodeRedundancy(const MultiLayerBatch& full,
                            const std::vector<MultiLayerBatch>& micros);

} // namespace betty

#endif // BETTY_CORE_MICRO_BATCH_H
