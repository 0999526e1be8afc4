/**
 * @file
 * Betty's public API: REG-based batch-level partitioning plus the
 * memory-aware planner that sizes the number of micro-batches.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   NeighborSampler sampler(ds.graph, {10, 25});
 *   auto full = sampler.sample(ds.trainNodes);
 *   Betty betty(model.memorySpec(), {.deviceCapacityBytes = gib(2)});
 *   auto plan = betty.plan(full);
 *   trainer.trainMicroBatches(plan.microBatches);
 */
#ifndef BETTY_CORE_BETTY_H
#define BETTY_CORE_BETTY_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/micro_batch.h"
#include "memory/estimator.h"
#include "partition/kway_partitioner.h"
#include "partition/partitioner.h"
#include "partition/reg.h"
#include "sampling/block.h"

namespace betty {

/** Knobs of Betty's partitioning stage. */
struct BettyOptions
{
    /** REG construction parameters (hub guard, vertex weights). */
    RegOptions reg;

    /** Multilevel min-cut solver parameters (k is set per call). */
    KwayOptions kway;

    /**
     * Warm-start repeated partitioning (our implementation of the
     * paper's future-work item on reducing partitioning overhead,
     * §7): when the same partitioner object repartitions a resampled
     * batch at the same K, seed the solver from the previous epoch's
     * assignment and only refine, instead of running full multilevel
     * V-cycles. Falls back to a cold start whenever K changes or too
     * few output nodes carry over.
     */
    bool warmStart = false;
};

/**
 * Betty's redundancy-aware output partitioner (paper §4.3.2,
 * Algorithm 1): build the REG over the batch's output layer and
 * min-cut it K ways, so output nodes sharing many in-neighbors stay
 * in the same micro-batch.
 */
class BettyPartitioner : public OutputPartitioner
{
  public:
    explicit BettyPartitioner(BettyOptions options = {})
        : options_(std::move(options))
    {
    }

    std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) override;

    std::string name() const override { return "betty"; }

    /** True if the last partition() call reused the previous epoch's
     * assignment (warm start). */
    bool lastRunWasWarm() const { return last_run_was_warm_; }

  private:
    /**
     * The REG of @p last_block: rebuilt only when the block differs
     * from the last one's (CSR arrays compared). The planner
     * partitions one batch at every K it tries, and the REG depends
     * on nothing else, so a plan builds it once.
     */
    const WeightedGraph& regFor(const Block& last_block);

    BettyOptions options_;
    Block reg_block_;
    WeightedGraph reg_;
    bool has_reg_ = false;
    // Warm-start memory: the previous assignment, by raw-graph id.
    std::unordered_map<int64_t, int32_t> previous_assignment_;
    int32_t previous_k_ = 0;
    bool last_run_was_warm_ = false;
};

/** Output of memory-aware planning. */
struct PlanResult
{
    /** Chosen number of micro-batches. */
    int32_t k = 0;

    /** The extracted micro-batches, ready for the trainer. */
    std::vector<MultiLayerBatch> microBatches;

    /** Per-micro-batch memory estimates (same order). */
    std::vector<MemoryEstimate> estimates;

    /** Largest estimated micro-batch peak, bytes. */
    int64_t maxEstimatedPeak = 0;

    /** How many K values were tried, from the planner's lower bound
     * up to and including k. */
    int32_t attempts = 0;

    /** False if even maxK micro-batches exceed the capacity. */
    bool fits = false;
};

/**
 * Memory-aware batch re-partitioning (paper §4.4.3): starting from
 * the first K the whole batch's counts do not rule out, partition,
 * count every micro-batch's nodes and edges (core/micro_batch.h:
 * microBatchShapes), estimate its peak memory from those counts, and
 * re-partition with K+1 until every micro-batch fits the device
 * budget — no on-device trial and error. Only the returned attempt's
 * micro-batches are built, from that attempt's groups (the
 * partitioner is not called again: it may be stateful, like
 * RandomPartitioner).
 */
class MemoryAwarePlanner
{
  public:
    /**
     * @param spec Model description used by the estimator.
     * @param capacity_bytes Device memory budget each micro-batch's
     * estimated peak must stay under.
     */
    MemoryAwarePlanner(GnnSpec spec, int64_t capacity_bytes)
        : spec_(std::move(spec)), capacity_(capacity_bytes)
    {
    }

    /**
     * Retarget the planner at a new budget mid-run. The resilient
     * runtime calls this when the device capacity changes under it
     * (robustness/resilient_trainer.h) so re-planning fits the
     * capacity that actually exists now, not the one configured at
     * startup.
     */
    void setCapacity(int64_t capacity_bytes)
    {
        capacity_ = capacity_bytes;
    }

    int64_t capacity() const { return capacity_; }

    /**
     * Bytes carved out of the device by standing reservations — the
     * feature cache (cache/feature_cache.h) — that training tensors
     * can never use. The fit check becomes
     * `worst_peak + reserved <= capacity`, so planning with a cache
     * installed picks a K whose micro-batches fit the memory that is
     * actually available, not the nameplate capacity.
     */
    void setReservedBytes(int64_t reserved_bytes)
    {
        reserved_ = reserved_bytes;
    }

    int64_t reservedBytes() const { return reserved_; }

    /**
     * Size K and produce the micro-batches using @p partitioner.
     * The K -> K+1 loop starts at max(@p initial_k, ceil(need / room))
     * with C the estimate of an all-zero shape (parameters, gradients,
     * optimizer state), need = est(full) - C and
     * room = capacity - reserved - C: every K below that has a
     * micro-batch estimated above the budget, whatever the groups (a
     * stateless partitioner's chosen K and micro-batches are the ones
     * a loop from @p initial_k finds). With room <= 0 it tries only
     * the loop's last K.
     * @param max_k Safety bound on the search.
     */
    PlanResult plan(const MultiLayerBatch& full,
                    OutputPartitioner& partitioner,
                    int32_t initial_k = 1, int32_t max_k = 4096) const;

  private:
    /** One K tried: its groups and the PlanResult fields known before
     * any micro-batch is built. */
    struct Attempt
    {
        std::vector<std::vector<int64_t>> groups;
        PlanResult result;
    };

    /** Partition at exactly @p k and estimate every micro-batch from
     * its counts. */
    Attempt evaluateK(const MultiLayerBatch& full,
                      OutputPartitioner& partitioner, int32_t k) const;

    GnnSpec spec_;
    int64_t capacity_;
    int64_t reserved_ = 0;
};

/** Top-level configuration of the Betty facade. */
struct BettyConfig
{
    /** Device budget the planner targets. */
    int64_t deviceCapacityBytes = 0;

    /** Partitioning knobs. */
    BettyOptions partition;

    /** Smallest K the planner tries (MemoryAwarePlanner::plan starts
     * higher when the batch's counts rule the lower ones out). */
    int32_t initialK = 1;

    /** Safety bound on the K search. */
    int32_t maxK = 4096;
};

/** One-stop facade: REG partitioning + memory-aware planning. */
class Betty
{
  public:
    Betty(GnnSpec spec, BettyConfig config)
        : partitioner_(config.partition),
          planner_(std::move(spec), config.deviceCapacityBytes),
          config_(std::move(config))
    {
    }

    /** Partition @p full into the fewest micro-batches that fit. */
    PlanResult
    plan(const MultiLayerBatch& full)
    {
        return planner_.plan(full, partitioner_, config_.initialK,
                             config_.maxK);
    }

    /** Partition @p full into exactly @p k micro-batches (no planner). */
    std::vector<MultiLayerBatch>
    partition(const MultiLayerBatch& full, int32_t k)
    {
        return extractMicroBatches(full, partitioner_.partition(full, k));
    }

    BettyPartitioner& partitioner() { return partitioner_; }

  private:
    BettyPartitioner partitioner_;
    MemoryAwarePlanner planner_;
    BettyConfig config_;
};

} // namespace betty

#endif // BETTY_CORE_BETTY_H
