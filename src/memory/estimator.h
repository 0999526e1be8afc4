/**
 * @file
 * Analytical per-micro-batch memory estimation (paper §4.4.3, Table 3).
 *
 * The memory-aware planner must size K without running a forward pass;
 * this estimator prices the eight components the paper enumerates:
 *
 *   (1) GNN model parameters               NP_GNN
 *   (2) input features                     N_in x H_in
 *   (3) output labels                      N_out
 *   (4) block structure                    E x 3 per block
 *   (5) hidden layer outputs               sum_i N_i x h_i
 *   (6) aggregator intermediates           aggregator-dependent;
 *       LSTM follows Eq. 5: sum over in-degree groups of
 *       L_i x B_i x H x C  (C is implementation-dependent; PyTorch's
 *       is 18, ours is measured and set in GnnSpec)
 *   (7) gradients                          NP_GNN + NP_Agg
 *   (8) optimizer states                   Adam: 2 x (NP_GNN + NP_Agg)
 *
 * Peak = (1)+(2)+(3)+(4)+(5)+(8) + max((6) + backward buffers, (7)),
 * following the paper's observation that (6) is freed while (7) grows.
 */
#ifndef BETTY_MEMORY_ESTIMATOR_H
#define BETTY_MEMORY_ESTIMATOR_H

#include <cstdint>
#include <span>
#include <string>

#include "obs/memprof.h"
#include "sampling/block.h"

namespace betty {

/**
 * Aggregator types of Table 1 that GraphSAGE supports here, plus
 * Attention for GAT layers and Gcn/Gin for the GCN and GIN stacks
 * (not SAGE aggregators, but the estimator prices every model family
 * through the same interface).
 */
enum class AggregatorKind { Mean, Sum, Pool, Lstm, Attention, Gcn, Gin };

/** Printable aggregator name. */
std::string aggregatorName(AggregatorKind kind);

/** Optimizers with different state footprints. */
enum class OptimizerKind { Sgd, Adam };

/** Static description of a GNN for memory estimation (Table 3). */
struct GnnSpec
{
    int64_t inputDim = 0;    ///< H_in
    int64_t hiddenDim = 0;   ///< h
    int64_t numClasses = 0;  ///< output dim of the last layer
    int64_t numLayers = 1;   ///< n
    AggregatorKind aggregator = AggregatorKind::Mean;
    OptimizerKind optimizer = OptimizerKind::Adam;
    int64_t paramCountGnn = 0; ///< NP_GNN (excludes aggregator)
    int64_t paramCountAgg = 0; ///< NP_Agg

    /**
     * The constant C of Eq. 5: intermediate scalars the LSTM
     * aggregator materializes per (node, timestep, hidden unit).
     * The paper cites PyTorch's value of 18; our from-scratch LSTM
     * cell materializes a different (measured) count, set by the
     * nn layer when it builds the spec.
     */
    int64_t lstmIntermediatesPerNode = 18;

    /** Attention heads per hidden layer (GAT); hiddenDim is the
     * concatenated width (heads x per-head width). */
    int64_t attentionHeads = 1;

    /** Output feature width of layer @p layer (0-based, input side). */
    int64_t
    layerOutDim(int64_t layer) const
    {
        return layer + 1 == numLayers ? numClasses : hiddenDim;
    }

    /** Input feature width of layer @p layer. */
    int64_t
    layerInDim(int64_t layer) const
    {
        return layer == 0 ? inputDim : hiddenDim;
    }
};

/** Byte counts per component; see file comment for the item numbers. */
struct MemoryEstimate
{
    int64_t parameters = 0;      ///< (1)
    int64_t inputFeatures = 0;   ///< (2)
    int64_t labels = 0;          ///< (3)
    int64_t blocks = 0;          ///< (4)
    int64_t hidden = 0;          ///< (5)
    int64_t aggregator = 0;      ///< (6) + forward autograd buffers
    int64_t gradients = 0;       ///< (7)
    int64_t optimizerStates = 0; ///< (8)

    /** Backward gradient buffers of (5)+(6) — the "+ backward
     * buffers" term of the peak formula, exposed so per-category
     * comparisons can fold it into the measured-gradients bucket. */
    int64_t backwardBuffers = 0;

    /** Estimated peak resident bytes. */
    int64_t peak = 0;

    bool operator==(const MemoryEstimate&) const = default;

    double peakGiB() const
    {
        return double(peak) / (1024.0 * 1024.0 * 1024.0);
    }
};

/**
 * The estimate's prediction for one provenance category
 * (obs/memprof.h). Gradients folds in backwardBuffers — the profiler
 * tags intermediate gradient buffers and parameter gradients alike as
 * Gradients — and Uncategorized predicts 0 by definition.
 */
int64_t componentBytes(const MemoryEstimate& estimate,
                       obs::MemCategory category);

/**
 * Estimate the peak device memory of training one (micro-)batch from
 * its per-layer node and edge counts (@p shape, blocks[0] first) —
 * never runs the model, which is the entire point (§4.4.3: sizing K
 * "without triggering the expensive training cost"). The planner
 * prices candidate micro-batches from counts alone
 * (core/micro_batch.h: microBatchShapes) and builds only the ones it
 * returns.
 */
MemoryEstimate estimateMemory(std::span<const BlockShape> shape,
                              const GnnSpec& spec);

/** estimateMemory() of @p batch's shape. */
MemoryEstimate estimateBatchMemory(const MultiLayerBatch& batch,
                                   const GnnSpec& spec);

} // namespace betty

#endif // BETTY_MEMORY_ESTIMATOR_H
