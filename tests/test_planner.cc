/**
 * @file
 * Tests for the memory-aware planner (§4.4.3 re-partitioning loop).
 */
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"

namespace betty {
namespace {

struct Env
{
    Env()
        : dataset(loadCatalogDataset("arxiv_like", 0.03, 31)),
          sampler(dataset.graph, {5, 8}, 32)
    {
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 150);
        full = sampler.sample(seeds);

        spec.inputDim = dataset.featureDim();
        spec.hiddenDim = 32;
        spec.numClasses = dataset.numClasses;
        spec.numLayers = 2;
        spec.aggregator = AggregatorKind::Mean;
        spec.paramCountGnn = 50000;
    }

    Dataset dataset;
    NeighborSampler sampler;
    MultiLayerBatch full;
    GnnSpec spec;
};

/**
 * The first K plan() tries, worked out here from estimateMemory: the
 * smallest K in the loop's range [initial_k, last] with
 * K * room >= need, where C is the estimate of an all-zero shape,
 * need = est(full) - C and room = capacity - reserved - C.
 */
int32_t
boundK(const MultiLayerBatch& full, const GnnSpec& spec,
       int64_t capacity, int64_t reserved, int32_t initial_k,
       int32_t max_k)
{
    const int64_t outputs = int64_t(full.outputNodes().size());
    const int32_t last = int32_t(
        std::max<int64_t>(initial_k, std::min<int64_t>(outputs, max_k)));
    if (capacity <= 0)
        return initial_k;
    const std::vector<BlockShape> zero(full.blocks.size());
    const int64_t fixed = estimateMemory(zero, spec).peak;
    const int64_t need = estimateBatchMemory(full, spec).peak - fixed;
    const int64_t room = capacity - reserved - fixed;
    if (room <= 0)
        return last;
    int32_t k = initial_k;
    while (k < last && int64_t(k) * room < need)
        ++k;
    return k;
}

TEST(Planner, UnlimitedCapacityKeepsKOne)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, /*capacity=*/0);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.k, 1);
    EXPECT_EQ(plan.attempts, 1);
    EXPECT_EQ(plan.microBatches.size(), 1u);
}

TEST(Planner, GenerousCapacityFitsImmediately)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak + 1);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.k, 1);
}

TEST(Planner, TightCapacityIncreasesK)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    // Force a split: less than the full batch needs.
    MemoryAwarePlanner planner(env.spec, full_est.peak * 3 / 4);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_GT(plan.k, 1);
    const int32_t first =
        boundK(env.full, env.spec, full_est.peak * 3 / 4, 0, 1, 4096);
    EXPECT_EQ(plan.attempts, plan.k - first + 1);
    EXPECT_LE(plan.maxEstimatedPeak, full_est.peak * 3 / 4);
}

TEST(Planner, EveryMicroBatchMeetsBudget)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t budget = full_est.peak / 2;
    MemoryAwarePlanner planner(env.spec, budget);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    ASSERT_TRUE(plan.fits);
    for (const auto& est : plan.estimates)
        EXPECT_LE(est.peak, budget);
    EXPECT_EQ(plan.estimates.size(), plan.microBatches.size());
}

TEST(Planner, TighterBudgetNeverNeedsFewerBatches)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    BettyPartitioner part;
    MemoryAwarePlanner loose(env.spec, full_est.peak * 3 / 4);
    MemoryAwarePlanner tight(env.spec, full_est.peak / 2);
    EXPECT_GE(tight.plan(env.full, part).k,
              loose.plan(env.full, part).k);
}

TEST(Planner, ImpossibleBudgetReportsNoFit)
{
    Env env;
    // Parameters alone exceed this budget: no K can ever fit.
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part, 1, 8);
    EXPECT_FALSE(plan.fits);
    EXPECT_EQ(plan.attempts, 1);
}

TEST(Planner, InitialKRespected)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, 0);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part, /*initial_k=*/4);
    EXPECT_EQ(plan.k, 4);
    EXPECT_EQ(plan.microBatches.size(), 4u);
}

TEST(Planner, WorksWithBaselinePartitioners)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak * 2 / 3);
    RangePartitioner range;
    RandomPartitioner random(7);
    for (OutputPartitioner* part :
         std::initializer_list<OutputPartitioner*>{&range, &random}) {
        const auto plan = planner.plan(env.full, *part);
        EXPECT_TRUE(plan.fits) << part->name();
        EXPECT_GT(plan.k, 1) << part->name();
    }
}

/** A partitioner with a deliberately pathological K: for one chosen
 * K it dumps almost every output into group 0 (worst micro-batch ≈
 * the whole batch), everywhere else it splits round-robin. Worst-case
 * memory is therefore NON-monotone in K, which is the regime the
 * planner's searches must survive. */
class SpitefulPartitioner : public OutputPartitioner
{
  public:
    explicit SpitefulPartitioner(int32_t bad_k) : bad_k_(bad_k) {}

    std::vector<std::vector<int64_t>>
    partition(const MultiLayerBatch& batch, int32_t k) override
    {
        const auto outputs = batch.outputNodes();
        std::vector<std::vector<int64_t>> groups;
        groups.resize(size_t(k));
        if (k == bad_k_) {
            // One token output per minor group, the rest in group 0.
            for (size_t i = 0; i < outputs.size(); ++i) {
                const size_t g = i < size_t(k) - 1 ? i + 1 : 0;
                groups[g].push_back(outputs[i]);
            }
        } else {
            for (size_t i = 0; i < outputs.size(); ++i)
                groups[i % size_t(k)].push_back(outputs[i]);
        }
        return groups;
    }

    std::string name() const override { return "spiteful"; }

  private:
    int32_t bad_k_;
};

TEST(Planner, ExhaustionAtMaxKIsReportedNotFatal)
{
    Env env;
    // Parameters alone exceed this budget: no K can ever fit. The
    // caller (the resilient trainer's skip-with-report path) relies
    // on getting a well-formed "no" back rather than a crash.
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part, 1, 8);
    EXPECT_FALSE(plan.fits);
    EXPECT_EQ(plan.k, 8) << "stops exactly at max_k";
    EXPECT_EQ(plan.attempts, 1) << "no K below max_k can fit";
    ASSERT_EQ(plan.microBatches.size(), 8u)
        << "the last attempted plan is still returned";
    EXPECT_EQ(plan.estimates.size(), plan.microBatches.size());
    for (const auto& est : plan.estimates)
        EXPECT_GT(est.peak, 1000) << "every piece really is too big";
}

TEST(Planner, SetCapacityRetargetsTheSearch)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak + 1);
    BettyPartitioner part;
    EXPECT_EQ(planner.plan(env.full, part).k, 1);

    // The resilient trainer calls this after a capacity-drop fault:
    // the same planner must now split.
    planner.setCapacity(full_est.peak / 2);
    EXPECT_EQ(planner.capacity(), full_est.peak / 2);
    const auto tight = planner.plan(env.full, part);
    ASSERT_TRUE(tight.fits);
    EXPECT_GT(tight.k, 1);
    EXPECT_LE(tight.maxEstimatedPeak, full_est.peak / 2);

    planner.setCapacity(0);
    EXPECT_EQ(planner.plan(env.full, part).k, 1)
        << "back to unlimited";
}

TEST(Planner, LinearSearchSurvivesNonMonotoneWorstCase)
{
    Env env;
    constexpr int32_t kBadK = 4;
    SpitefulPartitioner part(kBadK);

    // Probe the worst-case estimate at a few fixed K (capacity 0
    // accepts the initial K, so plan(k, 0) is "partition at exactly
    // k and estimate").
    MemoryAwarePlanner probe(env.spec, 0);
    const int64_t worst_at_3 =
        probe.plan(env.full, part, 3).maxEstimatedPeak;
    const int64_t worst_at_4 =
        probe.plan(env.full, part, kBadK).maxEstimatedPeak;
    ASSERT_GT(worst_at_4, worst_at_3)
        << "the stub must make worst-case memory non-monotone";

    // Fits at K=3 but NOT at K=4: a search that assumed monotonicity
    // and stopped at the first non-fitting K above a fitting one (or
    // started above it) would fail here.
    MemoryAwarePlanner planner(env.spec, worst_at_3);
    const auto from_low = planner.plan(env.full, part);
    ASSERT_TRUE(from_low.fits);
    EXPECT_LE(from_low.k, 3);
    EXPECT_NE(from_low.k, kBadK);

    // Starting the search AT the pathological K (exactly what a
    // re-plan at K+1 can do) must step over it, not give up.
    const auto from_bad = planner.plan(env.full, part, kBadK);
    ASSERT_TRUE(from_bad.fits);
    EXPECT_GT(from_bad.k, kBadK);
    EXPECT_LE(from_bad.maxEstimatedPeak, worst_at_3);
}

TEST(BettyFacade, PlanAndPartition)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    BettyConfig config;
    config.deviceCapacityBytes = full_est.peak * 3 / 4;
    Betty betty(env.spec, config);

    const auto plan = betty.plan(env.full);
    EXPECT_TRUE(plan.fits);
    EXPECT_GT(plan.k, 1);

    const auto fixed = betty.partition(env.full, 6);
    EXPECT_EQ(fixed.size(), 6u);
    size_t outputs = 0;
    for (const auto& micro : fixed)
        outputs += micro.outputNodes().size();
    EXPECT_EQ(outputs, env.full.outputNodes().size());
}

TEST(Planner, BettyNeedsNoMoreBatchesThanRandom)
{
    // Betty's lower redundancy means its micro-batches are smaller at
    // equal K, so it should never need MORE batches than random to
    // meet the same budget.
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t budget = full_est.peak * 3 / 5;
    MemoryAwarePlanner planner(env.spec, budget);
    BettyPartitioner betty;
    RandomPartitioner random(9);
    EXPECT_LE(planner.plan(env.full, betty).k,
              planner.plan(env.full, random).k);
}

/**
 * The planner as it was before attempts became count-only: every K
 * tried is extracted (with the constructor-built reference) and every
 * micro-batch estimated. MemoryAwarePlanner must return exactly this.
 */
struct OraclePlanner
{
    GnnSpec spec;
    int64_t capacity = 0;
    int64_t reserved = 0;

    PlanResult
    evaluate(const MultiLayerBatch& full, OutputPartitioner& part,
             int32_t k) const
    {
        PlanResult result;
        result.k = k;
        result.microBatches =
            testutil::referenceMicroBatches(full, part.partition(full, k));
        for (const auto& micro : result.microBatches) {
            result.estimates.push_back(estimateBatchMemory(micro, spec));
            result.maxEstimatedPeak = std::max(
                result.maxEstimatedPeak, result.estimates.back().peak);
        }
        result.fits = capacity <= 0 ||
                      result.maxEstimatedPeak + reserved <= capacity;
        return result;
    }

    /** The K -> K+1 loop from @p first_k, with no bound of its own. */
    PlanResult
    plan(const MultiLayerBatch& full, OutputPartitioner& part,
         int32_t first_k, int32_t max_k) const
    {
        const int64_t outputs = int64_t(full.outputNodes().size());
        for (int32_t k = first_k, attempts = 1;; ++k, ++attempts) {
            PlanResult result = evaluate(full, part, k);
            result.attempts = attempts;
            if (result.fits || k >= outputs || k == max_k)
                return result;
        }
    }
};

void
expectSamePlan(const PlanResult& got, const PlanResult& want)
{
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(got.fits, want.fits);
    EXPECT_EQ(got.estimates, want.estimates);
    EXPECT_EQ(got.maxEstimatedPeak, want.maxEstimatedPeak);
    testutil::expectSameBatches(got.microBatches, want.microBatches);
}

/** Fresh partitioners of each kind (Random with a fixed seed), so the
 * planner and the oracle see the same group sequence. */
std::vector<std::unique_ptr<OutputPartitioner>>
freshPartitioners()
{
    std::vector<std::unique_ptr<OutputPartitioner>> parts;
    parts.push_back(std::make_unique<RangePartitioner>());
    parts.push_back(std::make_unique<RandomPartitioner>(61));
    parts.push_back(std::make_unique<BettyPartitioner>());
    return parts;
}

struct Budget
{
    int64_t capacity;
    int64_t reserved;
    int32_t initialK;
};

/** Unlimited, fits at K=1, splits, splits from a higher start, splits
 * around a cache reservation, and never fits. */
std::vector<Budget>
oracleBudgets(int64_t peak)
{
    return {
        {0, 0, 1},           {peak + 1, 0, 1},    {peak * 3 / 4, 0, 1},
        {peak / 2, 0, 3},    {peak * 3 / 4, peak / 8, 1},
        {1000, 0, 1},
    };
}

/** The partitioners whose groups depend only on the batch and K. */
std::vector<std::unique_ptr<OutputPartitioner>>
statelessPartitioners(const CsrGraph& graph)
{
    std::vector<std::unique_ptr<OutputPartitioner>> parts;
    parts.push_back(std::make_unique<RangePartitioner>());
    parts.push_back(std::make_unique<MetisBaselinePartitioner>(graph));
    parts.push_back(std::make_unique<BettyPartitioner>());
    return parts;
}

TEST(PlannerOracle, CountOnlySearchesMatchExtractingEveryAttempt)
{
    Env env;
    const int64_t peak = estimateBatchMemory(env.full, env.spec).peak;
    constexpr int32_t kMaxK = 12;
    for (const Budget& budget : oracleBudgets(peak)) {
        MemoryAwarePlanner planner(env.spec, budget.capacity);
        planner.setReservedBytes(budget.reserved);
        const OraclePlanner oracle{env.spec, budget.capacity,
                                   budget.reserved};
        // The oracle starts where the planner's bound does, so a
        // stateful partitioner (Random) sees the same calls.
        const int32_t first =
            boundK(env.full, env.spec, budget.capacity, budget.reserved,
                   budget.initialK, kMaxK);
        auto ours = freshPartitioners();
        auto theirs = freshPartitioners();
        for (size_t p = 0; p < ours.size(); ++p) {
            SCOPED_TRACE(ours[p]->name() + " capacity " +
                         std::to_string(budget.capacity));
            expectSamePlan(
                planner.plan(env.full, *ours[p], budget.initialK, kMaxK),
                oracle.plan(env.full, *theirs[p], first, kMaxK));
        }
    }
}

TEST(PlannerBound, NeverSkipsAFittingK)
{
    // For stateless partitioners the bound only skips K values that
    // cannot fit: plan() returns what the loop from initial_k finds,
    // in (k - first + 1) attempts.
    Env env;
    constexpr int32_t kMaxK = 24;
    for (const AggregatorKind agg :
         {AggregatorKind::Mean, AggregatorKind::Pool,
          AggregatorKind::Lstm}) {
        GnnSpec spec = env.spec;
        spec.aggregator = agg;
        spec.paramCountAgg = agg == AggregatorKind::Mean ? 0 : 20000;
        const int64_t peak = estimateBatchMemory(env.full, spec).peak;
        const std::vector<BlockShape> zero(env.full.blocks.size());
        const int64_t fixed = estimateMemory(zero, spec).peak;
        std::vector<Budget> budgets = oracleBudgets(peak);
        // Two budgets that need K >= 6.
        budgets.push_back({fixed + (peak - fixed) / 3, 0, 1});
        budgets.push_back(
            {fixed + (peak - fixed) / 4 + peak / 16, peak / 16, 2});
        for (size_t b = 0; b < budgets.size(); ++b) {
            const Budget& budget = budgets[b];
            const int32_t first =
                boundK(env.full, spec, budget.capacity, budget.reserved,
                       budget.initialK, kMaxK);
            MemoryAwarePlanner planner(spec, budget.capacity);
            planner.setReservedBytes(budget.reserved);
            const OraclePlanner oracle{spec, budget.capacity,
                                       budget.reserved};
            auto ours = statelessPartitioners(env.dataset.graph);
            auto theirs = statelessPartitioners(env.dataset.graph);
            for (size_t p = 0; p < ours.size(); ++p) {
                SCOPED_TRACE(aggregatorName(agg) + " " + ours[p]->name() +
                             " capacity " +
                             std::to_string(budget.capacity));
                const PlanResult got = planner.plan(
                    env.full, *ours[p], budget.initialK, kMaxK);
                const PlanResult want = oracle.plan(
                    env.full, *theirs[p], budget.initialK, kMaxK);
                EXPECT_EQ(got.k, want.k);
                EXPECT_EQ(got.fits, want.fits);
                EXPECT_EQ(got.estimates, want.estimates);
                EXPECT_EQ(got.maxEstimatedPeak, want.maxEstimatedPeak);
                testutil::expectSameBatches(got.microBatches,
                                            want.microBatches);
                EXPECT_EQ(got.attempts, got.k - first + 1);
                if (b + 2 >= budgets.size()) {
                    EXPECT_TRUE(want.fits);
                    EXPECT_GE(want.k, 6);
                }
            }
        }
    }
}

TEST(PlannerOracle, OnePlanBuildsMicroBatchesOnce)
{
    Env env;
    const int64_t peak = estimateBatchMemory(env.full, env.spec).peak;
    MemoryAwarePlanner planner(env.spec, peak / 2);
    BettyPartitioner part;

    const bool metrics_were_on = obs::Metrics::enabled();
    const bool trace_was_on = obs::Trace::enabled();
    obs::Metrics::setEnabled(true);
    obs::Trace::setEnabled(true);
    obs::Trace::clear();
    const obs::Counter& structure_bytes =
        obs::Metrics::counter("micro_batch.structure_bytes");
    const obs::Counter& reg_builds =
        obs::Metrics::counter("partition.reg_builds");
    const int64_t bytes_before = structure_bytes.value();
    const int64_t builds_before = reg_builds.value();
    const auto plan = planner.plan(env.full, part);
    obs::Metrics::setEnabled(metrics_were_on);
    obs::Trace::setEnabled(trace_was_on);

    ASSERT_TRUE(plan.fits);
    ASSERT_GT(plan.attempts, 2);
    auto spans = [](const char* name) {
        int64_t count = 0;
        for (const auto& event : obs::Trace::snapshot())
            count += std::string(event.name) == name;
        return count;
    };
    EXPECT_EQ(spans("partition/shape_micro_batches"), plan.attempts);
    EXPECT_EQ(spans("partition/extract_micro_batches"), 1);
    int64_t plan_bytes = 0;
    for (const auto& micro : plan.microBatches)
        plan_bytes += micro.structureBytes();
    EXPECT_EQ(structure_bytes.value() - bytes_before, plan_bytes);
    // K = 1 needs no REG; every K >= 2 reuses the one built at K = 2.
    EXPECT_EQ(reg_builds.value() - builds_before, 1);
}

} // namespace
} // namespace betty
