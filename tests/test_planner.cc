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
    EXPECT_EQ(plan.attempts, plan.k);
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
    EXPECT_GE(plan.attempts, 8);
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

TEST(PlannerGeometric, MatchesLinearSearchResult)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    // Divisor 2 fits at this scale; tighter budgets fall below the
    // fixed-cost floor (params + optimizer states live in EVERY
    // micro-batch) and must be reported unfittable by BOTH searches.
    for (int64_t divisor : {2, 3, 5}) {
        const int64_t budget = full_est.peak / divisor;
        MemoryAwarePlanner planner(env.spec, budget);
        BettyPartitioner part;
        const auto linear = planner.plan(env.full, part);
        const auto fast = planner.planGeometric(env.full, part);
        ASSERT_EQ(linear.fits, fast.fits) << "divisor " << divisor;
        if (linear.fits) {
            // Never below the strict minimum (linear returns the
            // first fitting K, so any fitting K is >= it). Above it,
            // worst-case memory is not monotone in K — repartitioning
            // can make the worst micro-batch of K+1 larger than K's —
            // so the binary search may skip past a fitting K it never
            // probed and settle a couple of steps high.
            EXPECT_GE(fast.k, linear.k) << "divisor " << divisor;
            EXPECT_LE(fast.k, linear.k + 2) << "divisor " << divisor;
            EXPECT_LE(fast.maxEstimatedPeak, budget);
        }
    }
}

TEST(PlannerGeometric, FewerAttemptsWhenKIsLarge)
{
    // Whether or not the tight budget fits, geometric probing must
    // reach its conclusion in O(log K) rounds where linear needs O(K).
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak / 8);
    BettyPartitioner part;
    const auto linear = planner.plan(env.full, part);
    const auto fast = planner.planGeometric(env.full, part);
    EXPECT_EQ(linear.fits, fast.fits);
    if (linear.attempts >= 8)
        EXPECT_LT(fast.attempts, linear.attempts / 2);
}

TEST(PlannerGeometric, UnlimitedCapacityIsKOne)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, 0);
    BettyPartitioner part;
    const auto plan = planner.planGeometric(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.k, 1);
    EXPECT_EQ(plan.attempts, 1);
}

TEST(PlannerGeometric, ImpossibleBudgetReportsNoFit)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const auto plan = planner.planGeometric(env.full, part);
    EXPECT_FALSE(plan.fits);
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
    EXPECT_GE(plan.attempts, 8);
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

TEST(PlannerGeometric, NonMonotoneWorstCaseStillFindsAFit)
{
    Env env;
    constexpr int32_t kBadK = 4;
    SpitefulPartitioner part(kBadK);
    MemoryAwarePlanner probe(env.spec, 0);
    const int64_t worst_at_3 =
        probe.plan(env.full, part, 3).maxEstimatedPeak;

    // The geometric search may probe the pathological K and settle
    // above the strict minimum, but whatever it returns must fit.
    MemoryAwarePlanner planner(env.spec, worst_at_3);
    const auto fast = planner.planGeometric(env.full, part);
    ASSERT_TRUE(fast.fits);
    EXPECT_LE(fast.maxEstimatedPeak, worst_at_3);
    EXPECT_GE(fast.k, 2);
}

TEST(BettyFacade, PlanFastFitsBudget)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    BettyConfig config;
    config.deviceCapacityBytes = full_est.peak * 3 / 5;
    Betty betty(env.spec, config);
    const auto plan = betty.planFast(env.full);
    ASSERT_TRUE(plan.fits);
    EXPECT_LE(plan.maxEstimatedPeak, config.deviceCapacityBytes);
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

    PlanResult
    plan(const MultiLayerBatch& full, OutputPartitioner& part,
         int32_t initial_k, int32_t max_k) const
    {
        const int64_t outputs = int64_t(full.outputNodes().size());
        for (int32_t k = initial_k, attempts = 1;; ++k, ++attempts) {
            PlanResult result = evaluate(full, part, k);
            result.attempts = attempts;
            if (result.fits || k >= outputs || k == max_k)
                return result;
        }
    }

    PlanResult
    planGeometric(const MultiLayerBatch& full, OutputPartitioner& part,
                  int32_t max_k) const
    {
        const int32_t hard_max = int32_t(std::min<int64_t>(
            max_k, std::max<int64_t>(1, full.outputNodes().size())));
        int32_t attempts = 0, lo = 0, k = 1;
        PlanResult best;
        while (true) {
            ++attempts;
            PlanResult result = evaluate(full, part, k);
            if (result.fits) {
                best = std::move(result);
                break;
            }
            lo = k;
            if (k >= hard_max) {
                result.attempts = attempts;
                return result;
            }
            k = int32_t(std::min<int64_t>(int64_t(k) * 2, hard_max));
        }
        int32_t hi = best.k;
        while (hi - lo > 1) {
            const int32_t mid = lo + (hi - lo) / 2;
            ++attempts;
            PlanResult result = evaluate(full, part, mid);
            if (result.fits) {
                best = std::move(result);
                hi = mid;
            } else {
                lo = mid;
            }
        }
        best.attempts = attempts;
        return best;
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

TEST(PlannerOracle, CountOnlySearchesMatchExtractingEveryAttempt)
{
    Env env;
    const int64_t peak = estimateBatchMemory(env.full, env.spec).peak;
    struct Budget
    {
        int64_t capacity;
        int64_t reserved;
        int32_t initialK;
    };
    // Unlimited, fits at K=1, splits, splits from a higher start,
    // splits around a cache reservation, and never fits.
    const std::vector<Budget> budgets = {
        {0, 0, 1},           {peak + 1, 0, 1},    {peak * 3 / 4, 0, 1},
        {peak / 2, 0, 3},    {peak * 3 / 4, peak / 8, 1},
        {1000, 0, 1},
    };
    constexpr int32_t kMaxK = 12;
    for (const Budget& budget : budgets) {
        MemoryAwarePlanner planner(env.spec, budget.capacity);
        planner.setReservedBytes(budget.reserved);
        const OraclePlanner oracle{env.spec, budget.capacity,
                                   budget.reserved};
        auto ours = freshPartitioners();
        auto theirs = freshPartitioners();
        for (size_t p = 0; p < ours.size(); ++p) {
            SCOPED_TRACE(ours[p]->name() + " capacity " +
                         std::to_string(budget.capacity));
            {
                SCOPED_TRACE("plan");
                expectSamePlan(
                    planner.plan(env.full, *ours[p], budget.initialK,
                                 kMaxK),
                    oracle.plan(env.full, *theirs[p], budget.initialK,
                                kMaxK));
            }
            {
                SCOPED_TRACE("planGeometric");
                expectSamePlan(
                    planner.planGeometric(env.full, *ours[p], kMaxK),
                    oracle.planGeometric(env.full, *theirs[p], kMaxK));
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
