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
MemoryAwarePlanner::finish(const MultiLayerBatch& full, Attempt attempt,
                           int32_t attempts)
{
    PlanResult result = std::move(attempt.result);
    result.microBatches = extractMicroBatches(full, attempt.groups);
    result.attempts = attempts;
    if (result.fits)
        recordPlanMetrics(result);
    return result;
}

PlanResult
MemoryAwarePlanner::plan(const MultiLayerBatch& full,
                         OutputPartitioner& partitioner,
                         int32_t initial_k, int32_t max_k) const
{
    BETTY_ASSERT(initial_k >= 1 && max_k >= initial_k,
                 "bad K search range");
    BETTY_TRACE_SPAN_CAT("plan/search", "partition");
    const int64_t num_outputs = int64_t(full.outputNodes().size());

    int32_t attempts = 0;
    for (int32_t k = initial_k; k <= max_k; ++k) {
        ++attempts;
        Attempt attempt = evaluateK(full, partitioner, k);
        // Splitting beyond one output node per micro-batch can't help.
        if (attempt.result.fits || int64_t(k) >= num_outputs ||
            k == max_k)
            return finish(full, std::move(attempt), attempts);
    }
    panic("unreachable: plan loop must return");
}

PlanResult
MemoryAwarePlanner::planGeometric(const MultiLayerBatch& full,
                                  OutputPartitioner& partitioner,
                                  int32_t max_k) const
{
    BETTY_ASSERT(max_k >= 1, "bad K bound");
    BETTY_TRACE_SPAN_CAT("plan/search", "partition");
    const int64_t num_outputs = int64_t(full.outputNodes().size());
    const int32_t hard_max = int32_t(
        std::min<int64_t>(max_k, std::max<int64_t>(1, num_outputs)));

    int32_t attempts = 0;

    // Phase 1: double K until something fits (or the bound is hit).
    int32_t lo = 0; // largest known non-fitting K (0 = none known)
    int32_t k = 1;
    Attempt best;
    while (true) {
        ++attempts;
        Attempt attempt = evaluateK(full, partitioner, k);
        if (attempt.result.fits) {
            best = std::move(attempt);
            break;
        }
        lo = k;
        if (k >= hard_max) // nothing fits
            return finish(full, std::move(attempt), attempts);
        k = int32_t(std::min<int64_t>(int64_t(k) * 2, hard_max));
    }

    // Phase 2: binary search (lo, best.k] for the smallest fit.
    int32_t hi = best.result.k;
    while (hi - lo > 1) {
        const int32_t mid = lo + (hi - lo) / 2;
        ++attempts;
        Attempt attempt = evaluateK(full, partitioner, mid);
        if (attempt.result.fits) {
            best = std::move(attempt);
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return finish(full, std::move(best), attempts);
}

} // namespace betty
