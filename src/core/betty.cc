#include "core/betty.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace betty {

namespace {

/** Planner telemetry: the chosen K, search attempts, worst estimate. */
void
recordPlanMetrics(const PlanResult& result)
{
    if (!obs::Metrics::enabled())
        return;
    static obs::Gauge& plan_k = obs::Metrics::gauge("plan.k");
    static obs::Counter& attempts =
        obs::Metrics::counter("plan.attempts");
    static obs::Gauge& estimated_peak =
        obs::Metrics::gauge("plan.max_estimated_peak_bytes");
    plan_k.set(result.k);
    attempts.add(result.attempts);
    estimated_peak.set(result.maxEstimatedPeak);
}

} // namespace

const WeightedGraph&
BettyPartitioner::regFor(const Block& last_block)
{
    const bool same = has_reg_ &&
                      reg_block_.srcNodes() == last_block.srcNodes() &&
                      reg_block_.edgeOffsets() ==
                          last_block.edgeOffsets() &&
                      reg_block_.edgeSources() ==
                          last_block.edgeSources();
    if (!same) {
        reg_ = buildReg(last_block, options_.reg);
        reg_block_ = last_block;
        has_reg_ = true;
    }
    return reg_;
}

std::vector<std::vector<int64_t>>
BettyPartitioner::partition(const MultiLayerBatch& batch, int32_t k)
{
    BETTY_ASSERT(k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/betty", "partition");
    const auto outputs = batch.outputNodes();
    last_run_was_warm_ = false;
    if (k == 1)
        return {std::vector<int64_t>(outputs.begin(), outputs.end())};

    // Algorithm 1: REG over the output layer, then K-way min cut.
    const WeightedGraph& reg = regFor(batch.blocks.back());
    KwayOptions kway = options_.kway;
    kway.k = k;

    std::vector<int32_t> parts;
    if (options_.warmStart && previous_k_ == k) {
        // Seed from the previous assignment; nodes not seen before
        // take part 0 and let rebalance/refinement place them.
        std::vector<int32_t> initial(outputs.size(), 0);
        size_t carried = 0;
        for (size_t i = 0; i < outputs.size(); ++i) {
            const auto it = previous_assignment_.find(outputs[i]);
            if (it != previous_assignment_.end()) {
                initial[i] = it->second;
                ++carried;
            }
        }
        // Warm starting from a mostly-unseen batch would just be a
        // bad cold start; require half the nodes to carry over.
        if (carried * 2 >= outputs.size()) {
            parts = kwayPartitionWarm(reg, kway, std::move(initial));
            last_run_was_warm_ = true;
        }
    }
    if (parts.empty())
        parts = kwayPartition(reg, kway);

    if (obs::Metrics::enabled()) {
        // Partition quality: REG edge weight crossing micro-batch
        // boundaries — the redundancy Betty's min-cut minimizes.
        static obs::Gauge& edge_cut =
            obs::Metrics::gauge("partition.edge_cut");
        static obs::Counter& runs =
            obs::Metrics::counter("partition.runs");
        static obs::Counter& warm_runs =
            obs::Metrics::counter("partition.warm_runs");
        edge_cut.set(reg.cutCost(parts));
        runs.increment();
        if (last_run_was_warm_)
            warm_runs.increment();
    }

    if (options_.warmStart) {
        previous_assignment_.clear();
        previous_assignment_.reserve(outputs.size() * 2);
        for (size_t i = 0; i < outputs.size(); ++i)
            previous_assignment_.emplace(outputs[i], parts[i]);
        previous_k_ = k;
    }
    return groupByPart(outputs, parts, k);
}

MemoryAwarePlanner::Attempt
MemoryAwarePlanner::evaluateK(const MultiLayerBatch& full,
                              OutputPartitioner& partitioner,
                              int32_t k) const
{
    BETTY_TRACE_SPAN_CAT("plan/evaluate_k", "partition");
    Attempt attempt;
    attempt.groups = partitioner.partition(full, k);
    PlanResult& result = attempt.result;
    result.k = k;
    const auto shapes = microBatchShapes(full, attempt.groups);
    result.estimates.reserve(shapes.size());
    int64_t worst = 0;
    for (const auto& shape : shapes) {
        result.estimates.push_back(estimateMemory(shape, spec_));
        worst = std::max(worst, result.estimates.back().peak);
    }
    result.maxEstimatedPeak = worst;
    // Standing reservations (the feature cache) shrink the memory a
    // micro-batch may actually use below the nameplate capacity.
    result.fits = capacity_ <= 0 || worst + reserved_ <= capacity_;
    return attempt;
}

PlanResult
MemoryAwarePlanner::plan(const MultiLayerBatch& full,
                         OutputPartitioner& partitioner,
                         int32_t initial_k, int32_t max_k) const
{
    BETTY_ASSERT(initial_k >= 1 && max_k >= initial_k,
                 "bad K search range");
    BETTY_TRACE_SPAN_CAT("plan/search", "partition");
    // Splitting beyond one output node per micro-batch can't help.
    const int64_t num_outputs = int64_t(full.outputNodes().size());
    const int32_t last_k = int32_t(
        std::max<int64_t>(initial_k, std::min<int64_t>(num_outputs, max_k)));

    // Lower bound from the whole batch's counts. The estimate is a
    // count-free part C plus a linear function of the per-layer counts
    // with non-negative coefficients, and the counts of any K-way
    // split sum to at least the full batch's, so some micro-batch is
    // estimated at >= C + (est(full) - C) / K: no K below
    // (est(full) - C) / (capacity - reserved - C) can fit.
    int32_t first_k = initial_k;
    if (capacity_ > 0) {
        const std::vector<BlockShape> empty(size_t(full.numLayers()));
        const int64_t fixed = estimateMemory(empty, spec_).peak;
        const int64_t need = estimateBatchMemory(full, spec_).peak - fixed;
        const int64_t room = capacity_ - reserved_ - fixed;
        first_k = room <= 0
                      ? last_k
                      : int32_t(std::clamp<int64_t>(
                            (need + room - 1) / room, initial_k, last_k));
    }

    int32_t k = first_k;
    Attempt attempt = evaluateK(full, partitioner, k);
    while (!attempt.result.fits && k < last_k)
        attempt = evaluateK(full, partitioner, ++k);
    PlanResult result = std::move(attempt.result);
    result.microBatches = extractMicroBatches(full, attempt.groups);
    result.attempts = k - first_k + 1;
    if (result.fits)
        recordPlanMetrics(result);
    return result;
}

} // namespace betty
