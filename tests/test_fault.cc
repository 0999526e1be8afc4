/**
 * @file
 * The deterministic fault-injection layer (util/fault.h): spec
 * grammar, typed parse failures, the epoch/micro-batch clock,
 * one-shot consumption semantics, and the pure-function corrupt-row
 * plan.
 */
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.h"

namespace betty::fault {
namespace {

/** Every test leaves the process-global injector clean. */
struct InjectorScope
{
    ~InjectorScope() { Injector::clear(); }
};

TEST(FaultPlanParse, FullGrammar)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "oom@epoch2.mb1;capacity-drop=0.5@epoch3;"
        "transfer-fail@epoch1:retries=2;alloc-scale=1.5@epoch2.mb0;"
        "corrupt-features=0.01@epoch1",
        plan, &error))
        << error;
    ASSERT_EQ(plan.events.size(), 5u);

    EXPECT_EQ(plan.events[0].kind, FaultKind::InjectOom);
    EXPECT_EQ(plan.events[0].epoch, 2);
    EXPECT_EQ(plan.events[0].microBatch, 1);

    EXPECT_EQ(plan.events[1].kind, FaultKind::CapacityDrop);
    EXPECT_EQ(plan.events[1].epoch, 3);
    EXPECT_EQ(plan.events[1].microBatch, -1); // epoch-scoped
    EXPECT_DOUBLE_EQ(plan.events[1].value, 0.5);

    EXPECT_EQ(plan.events[2].kind, FaultKind::TransferFail);
    EXPECT_EQ(plan.events[2].retries, 2);

    EXPECT_EQ(plan.events[3].kind, FaultKind::AllocScale);
    EXPECT_DOUBLE_EQ(plan.events[3].value, 1.5);
    EXPECT_EQ(plan.events[3].microBatch, 0);

    EXPECT_EQ(plan.events[4].kind, FaultKind::CorruptFeatures);
    EXPECT_DOUBLE_EQ(plan.events[4].value, 0.01);
}

TEST(FaultPlanParse, EmptySpecIsEmptyPlan)
{
    FaultPlan plan;
    EXPECT_TRUE(FaultPlan::parse("", plan, nullptr));
    EXPECT_TRUE(plan.events.empty());
}

TEST(FaultPlanParse, PlanUntouchedOnFailure)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("oom@epoch1.mb0", plan, nullptr));
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_FALSE(FaultPlan::parse("garbage", plan, nullptr));
    EXPECT_EQ(plan.events.size(), 1u); // still the old plan
}

TEST(FaultPlanParse, TypedErrors)
{
    FaultPlan plan;
    std::string error;

    EXPECT_FALSE(FaultPlan::parse("oom", plan, &error));
    EXPECT_NE(error.find("missing '@epochN'"), std::string::npos);

    EXPECT_FALSE(FaultPlan::parse("explode@epoch1", plan, &error));
    EXPECT_NE(error.find("unknown fault kind"), std::string::npos);

    EXPECT_FALSE(FaultPlan::parse("oom@e1", plan, &error));
    EXPECT_NE(error.find("must start with 'epoch'"),
              std::string::npos);

    EXPECT_FALSE(FaultPlan::parse("oom@epoch0", plan, &error));
    EXPECT_NE(error.find("bad epoch number"), std::string::npos);

    EXPECT_FALSE(FaultPlan::parse("oom@epoch1.mb-2", plan, &error));
    EXPECT_NE(error.find("bad micro-batch index"), std::string::npos);

    // Kind-specific value validation.
    EXPECT_FALSE(
        FaultPlan::parse("capacity-drop=1.5@epoch1", plan, &error));
    EXPECT_NE(error.find("factor in (0, 1)"), std::string::npos);
    EXPECT_FALSE(
        FaultPlan::parse("capacity-drop@epoch1", plan, &error));
    EXPECT_FALSE(
        FaultPlan::parse("alloc-scale=0.9@epoch1", plan, &error));
    EXPECT_NE(error.find("scale > 1"), std::string::npos);
    EXPECT_FALSE(
        FaultPlan::parse("corrupt-features=0@epoch1", plan, &error));
    EXPECT_FALSE(FaultPlan::parse("oom=3@epoch1", plan, &error));
    EXPECT_NE(error.find("takes no '=value'"), std::string::npos);

    EXPECT_FALSE(FaultPlan::parse("transfer-fail@epoch1:retries=0",
                                  plan, &error));
    EXPECT_NE(error.find("bad retries"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("transfer-fail@epoch1:bogus=2",
                                  plan, &error));
    EXPECT_NE(error.find("unknown modifier"), std::string::npos);
}

TEST(FaultPlanParse, RejectsNonFiniteAndOutOfRangeNumbers)
{
    // A NaN or infinite magnitude passes no range check by comparison
    // alone, and a device index must not round-trip through a double.
    const std::string specs[] = {
        "capacity-drop=nan@epoch2",
        "device-slow=inf@epoch1",
        "alloc-scale=nan@epoch1",
        "transfer-flaky=nan@epoch1",
        "corrupt-features=inf@epoch1",
        "device-drop=1e300@epoch1",
        "device-drop=1.0@epoch1",
        "device-drop=4294967296@epoch1",
        "oom@epoch99999999999999999999",
    };
    for (const std::string& spec : specs) {
        FaultPlan plan;
        EXPECT_FALSE(FaultPlan::parse(spec, plan, nullptr)) << spec;
    }
}

TEST(FaultPlanParse, RejectsWhatNoRuntimeConsumes)
{
    // Each modifier belongs to one kind; oom and alloc-scale fire only
    // when a micro-batch is admitted, corrupt-features only at epoch
    // start.
    const std::pair<std::string, std::string> specs[] = {
        {"oom@epoch1", "needs a micro-batch"},
        {"alloc-scale=3@epoch1", "needs a micro-batch"},
        {"corrupt-features=0.5@epoch1.mb1", "takes no '.mbM'"},
        {"device-drop@epoch1:device=0", "takes no ':device'"},
        {"device-drop=1@epoch2:duration=2", "takes no ':duration'"},
        {"capacity-drop=0.5@epoch1:device=1", "takes no ':device'"},
        {"oom@epoch1.mb0:retries=2", "takes no ':retries'"},
        {"transfer-flaky=0.2@epoch1:retries=2", "takes no ':retries'"},
        {"transfer-fail@epoch1:duration=1", "takes no ':duration'"},
        {"device-slow=4@epoch1:retries=2", "takes no ':retries'"},
    };
    for (const auto& [spec, message] : specs) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(spec, plan, &error)) << spec;
        EXPECT_NE(error.find(message), std::string::npos)
            << spec << ": " << error;
    }

    // Where each kind is consumed, it parses.
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(
        "oom@epoch1.mb0;alloc-scale=3@epoch1.mb2;"
        "corrupt-features=0.5@epoch1;transfer-fail@epoch1.mb1:retries=2;"
        "device-slow=4@epoch1.mb3:device=1:duration=2;"
        "capacity-drop=0.5@epoch2.mb1;device-drop@epoch2.mb0",
        plan, &error))
        << error;
    EXPECT_EQ(plan.events.size(), 7u);
}

TEST(FaultPlanParse, DeviceDropGrammar)
{
    FaultPlan plan;
    std::string error;

    // Without a value: drop the highest-indexed live device; the
    // unspecified index is encoded as -1.
    ASSERT_TRUE(FaultPlan::parse("device-drop@epoch2", plan, &error))
        << error;
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::DeviceDrop);
    EXPECT_EQ(plan.events[0].epoch, 2);
    EXPECT_EQ(plan.events[0].microBatch, -1); // epoch-scoped
    EXPECT_DOUBLE_EQ(plan.events[0].value, -1.0);

    // With an explicit device index, micro-batch scoped.
    ASSERT_TRUE(FaultPlan::parse("device-drop=1@epoch2.mb3", plan,
                                 &error))
        << error;
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::DeviceDrop);
    EXPECT_DOUBLE_EQ(plan.events[0].value, 1.0);
    EXPECT_EQ(plan.events[0].microBatch, 3);

    // The index must be a whole non-negative integer.
    EXPECT_FALSE(
        FaultPlan::parse("device-drop=-1@epoch1", plan, &error));
    EXPECT_NE(error.find("whole device index"), std::string::npos);
    EXPECT_FALSE(
        FaultPlan::parse("device-drop=0.5@epoch1", plan, &error));
    EXPECT_NE(error.find("whole device index"), std::string::npos);
}

TEST(FaultPlanParse, GrayFailureGrammar)
{
    FaultPlan plan;
    std::string error;

    ASSERT_TRUE(FaultPlan::parse(
        "device-slow=4@epoch2:device=1:duration=2;"
        "transfer-flaky=0.2@epoch3",
        plan, &error))
        << error;
    ASSERT_EQ(plan.events.size(), 2u);

    EXPECT_EQ(plan.events[0].kind, FaultKind::DeviceSlow);
    EXPECT_DOUBLE_EQ(plan.events[0].value, 4.0);
    EXPECT_EQ(plan.events[0].epoch, 2);
    EXPECT_EQ(plan.events[0].device, 1);
    EXPECT_EQ(plan.events[0].durationEpochs, 2);

    EXPECT_EQ(plan.events[1].kind, FaultKind::TransferFlaky);
    EXPECT_DOUBLE_EQ(plan.events[1].value, 0.2);
    EXPECT_EQ(plan.events[1].epoch, 3);
    EXPECT_EQ(plan.events[1].microBatch, -1);

    // Defaults: no device named (-1), permanent (duration 0).
    ASSERT_TRUE(FaultPlan::parse("device-slow=2@epoch1", plan,
                                 &error))
        << error;
    EXPECT_EQ(plan.events[0].device, -1);
    EXPECT_EQ(plan.events[0].durationEpochs, 0);

    // Typed errors of the new kinds.
    EXPECT_FALSE(
        FaultPlan::parse("device-slow=1.0@epoch1", plan, &error));
    EXPECT_NE(error.find("slowdown factor > 1"), std::string::npos);
    EXPECT_FALSE(
        FaultPlan::parse("device-slow@epoch1", plan, &error));
    EXPECT_FALSE(
        FaultPlan::parse("transfer-flaky=1.5@epoch1", plan, &error));
    EXPECT_NE(error.find("probability in (0, 1)"),
              std::string::npos);
    EXPECT_FALSE(
        FaultPlan::parse("transfer-flaky=0@epoch1", plan, &error));
    EXPECT_FALSE(FaultPlan::parse("device-slow=4@epoch1:device=-2",
                                  plan, &error));
    EXPECT_NE(error.find("bad device index"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse(
        "device-slow=4@epoch1:duration=-1", plan, &error));
    EXPECT_NE(error.find("bad duration"), std::string::npos);
}

TEST(FaultPlanFormat, RoundTripsEveryKind)
{
    // format() is the chaos harness's replay handle: parsing its
    // output must reproduce the plan exactly.
    const std::string specs[] = {
        "oom@epoch2.mb1",
        "capacity-drop=0.5@epoch3",
        "transfer-fail@epoch1:retries=2",
        "alloc-scale=1.5@epoch2.mb0",
        "corrupt-features=0.01@epoch1",
        "device-drop@epoch2",
        "device-drop=1@epoch2.mb3",
        "device-slow=4@epoch2:device=1:duration=2",
        "device-slow=1.5@epoch1",
        "transfer-flaky=0.2@epoch3.mb1",
        // A multi-event plan formats back as one semicolon list.
        "oom@epoch1.mb0;device-slow=8@epoch2:duration=1;"
        "transfer-flaky=0.05@epoch2",
    };
    for (const std::string& spec : specs) {
        FaultPlan plan;
        std::string error;
        ASSERT_TRUE(FaultPlan::parse(spec, plan, &error))
            << spec << ": " << error;
        EXPECT_EQ(plan.format(), spec);

        // And the round-tripped plan parses to identical events.
        FaultPlan again;
        ASSERT_TRUE(FaultPlan::parse(plan.format(), again, &error))
            << error;
        ASSERT_EQ(again.events.size(), plan.events.size());
        for (size_t i = 0; i < plan.events.size(); ++i) {
            EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
            EXPECT_EQ(again.events[i].epoch, plan.events[i].epoch);
            EXPECT_EQ(again.events[i].microBatch,
                      plan.events[i].microBatch);
            EXPECT_EQ(again.events[i].value, plan.events[i].value);
            EXPECT_EQ(again.events[i].retries,
                      plan.events[i].retries);
            EXPECT_EQ(again.events[i].device,
                      plan.events[i].device);
            EXPECT_EQ(again.events[i].durationEpochs,
                      plan.events[i].durationEpochs);
        }
    }
}

TEST(Injector, DeviceDropFiresOnceAtTheClockPosition)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "device-drop@epoch2;device-drop=1@epoch3.mb1", plan,
        nullptr));
    Injector::install(plan);

    Injector::beginEpoch(1);
    EXPECT_FALSE(Injector::take(FaultKind::DeviceDrop));

    Injector::beginEpoch(2);
    auto drop = Injector::take(FaultKind::DeviceDrop);
    ASSERT_TRUE(drop);
    EXPECT_EQ(drop->value, -1.0); // no index named in the spec
    EXPECT_FALSE(Injector::take(FaultKind::DeviceDrop)); // one-shot

    Injector::beginEpoch(3);
    Injector::beginMicroBatch(0);
    EXPECT_FALSE(Injector::take(FaultKind::DeviceDrop));
    Injector::beginMicroBatch(1);
    drop = Injector::take(FaultKind::DeviceDrop);
    ASSERT_TRUE(drop);
    EXPECT_EQ(drop->value, 1.0);
    EXPECT_EQ(Injector::faultsInjected(FaultKind::DeviceDrop), 2);
}

TEST(Injector, InactiveQueriesAreNoops)
{
    InjectorScope cleanup;
    Injector::clear();
    EXPECT_FALSE(Injector::active());
    Injector::beginEpoch(1);
    Injector::beginMicroBatch(0);
    EXPECT_FALSE(Injector::take(FaultKind::InjectOom));
    EXPECT_FALSE(Injector::take(FaultKind::CapacityDrop));
    EXPECT_FALSE(Injector::take(FaultKind::AllocScale));
    EXPECT_FALSE(Injector::takeTransferFailure(0));
    EXPECT_FALSE(Injector::takeTransferFlakyFailure(0, 0));
    EXPECT_FALSE(Injector::take(FaultKind::CorruptFeatures));
    EXPECT_FALSE(Injector::take(FaultKind::DeviceDrop));
    EXPECT_FALSE(Injector::take(FaultKind::DeviceSlow));
    EXPECT_EQ(Injector::faultsInjected(), 0);
}

TEST(Injector, FiresExactlyAtTheClockPosition)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("oom@epoch2.mb1", plan, nullptr));
    Injector::install(plan);
    ASSERT_TRUE(Injector::active());

    const FaultKind oom = FaultKind::InjectOom;
    Injector::beginEpoch(1);
    Injector::beginMicroBatch(1);
    EXPECT_FALSE(Injector::take(oom)); // wrong epoch

    Injector::beginEpoch(2);
    EXPECT_FALSE(Injector::take(oom)); // epoch-scoped slot
    Injector::beginMicroBatch(0);
    EXPECT_FALSE(Injector::take(oom)); // wrong micro-batch
    Injector::beginMicroBatch(1);
    EXPECT_TRUE(Injector::take(oom)); // fires
    EXPECT_FALSE(Injector::take(oom)); // one-shot: consumed
    EXPECT_EQ(Injector::faultsInjected(), 1);
    EXPECT_EQ(Injector::faultsInjected(FaultKind::InjectOom), 1);
    EXPECT_EQ(Injector::faultsInjected(FaultKind::CapacityDrop), 0);
}

TEST(Injector, EpochScopedEventFiresBeforeMicroBatches)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(
        FaultPlan::parse("capacity-drop=0.25@epoch1", plan, nullptr));
    Injector::install(plan);

    Injector::beginEpoch(1);
    const auto drop = Injector::take(FaultKind::CapacityDrop);
    ASSERT_TRUE(drop);
    EXPECT_DOUBLE_EQ(drop->value, 0.25);
    // Not again at a micro-batch position.
    Injector::beginMicroBatch(0);
    EXPECT_FALSE(Injector::take(FaultKind::CapacityDrop));
}

TEST(Injector, TransferFailConsumesPerAttempt)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("transfer-fail@epoch1:retries=2",
                                 plan, nullptr));
    Injector::install(plan);

    Injector::beginEpoch(1);
    EXPECT_TRUE(Injector::takeTransferFailure(0));
    // Any micro-batch of the epoch.
    EXPECT_TRUE(Injector::takeTransferFailure(1));
    EXPECT_FALSE(Injector::takeTransferFailure(2)); // retries spent
    EXPECT_EQ(Injector::faultsInjected(FaultKind::TransferFail), 2);
}

TEST(Injector, TransferFaultsKeyOnProgramOrderNotTheClock)
{
    // The pipelining fix (docs/ROBUSTNESS.md): a prefetch worker
    // gathering micro-batch 2 while the clock still says micro-batch
    // 0 must consume exactly the fault pinned to ITS position. The
    // clock's micro-batch is deliberately left elsewhere throughout.
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(
        FaultPlan::parse("transfer-fail@epoch1.mb2", plan, nullptr));
    Injector::install(plan);

    Injector::beginEpoch(1);
    Injector::beginMicroBatch(0); // clock lags the prefetcher
    EXPECT_FALSE(Injector::takeTransferFailure(0));
    EXPECT_FALSE(Injector::takeTransferFailure(1));
    EXPECT_TRUE(Injector::takeTransferFailure(2)); // program order
    EXPECT_FALSE(Injector::takeTransferFailure(2));

    // Same for the probabilistic kind: the draw is keyed on the
    // caller's position, so only micro-batch 1's attempts can fire.
    ASSERT_TRUE(FaultPlan::parse("transfer-flaky=0.5@epoch1.mb1",
                                 plan, nullptr));
    plan.seed = 21;
    Injector::install(plan);
    Injector::beginEpoch(1);
    Injector::beginMicroBatch(0);
    for (int64_t attempt = 0; attempt < 64; ++attempt)
        EXPECT_FALSE(Injector::takeTransferFlakyFailure(0, attempt));
    int64_t fired = 0;
    for (int64_t attempt = 0; attempt < 64; ++attempt)
        fired += Injector::takeTransferFlakyFailure(1, attempt) ? 1 : 0;
    EXPECT_GT(fired, 0);
    EXPECT_EQ(Injector::faultsInjected(FaultKind::TransferFlaky),
              fired);
}

TEST(Injector, TransferFlakyIsAPureFunctionOfPosition)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(
        FaultPlan::parse("transfer-flaky=0.3@epoch1", plan, nullptr));
    plan.seed = 1234;
    Injector::install(plan);
    Injector::beginEpoch(1);

    // Record the outcome of (micro-batch, attempt) positions, then
    // replay them in a different order: every outcome must repeat —
    // flaky events never consume, they re-draw from the same stream.
    std::vector<bool> first;
    for (int64_t mb = 0; mb < 4; ++mb)
        for (int64_t attempt = 0; attempt < 8; ++attempt)
            first.push_back(
                Injector::takeTransferFlakyFailure(mb, attempt));
    std::vector<bool> replay(first.size());
    for (int64_t mb = 3; mb >= 0; --mb)
        for (int64_t attempt = 7; attempt >= 0; --attempt)
            replay[size_t(mb * 8 + attempt)] =
                Injector::takeTransferFlakyFailure(mb, attempt);
    EXPECT_EQ(first, replay);

    // A different seed draws a different (in general) pattern.
    plan.seed = 4321;
    Injector::install(plan);
    Injector::beginEpoch(1);
    std::vector<bool> other;
    for (int64_t mb = 0; mb < 4; ++mb)
        for (int64_t attempt = 0; attempt < 8; ++attempt)
            other.push_back(
                Injector::takeTransferFlakyFailure(mb, attempt));
    EXPECT_NE(first, other);
}

TEST(Injector, ReinstallResetsConsumption)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("oom@epoch1.mb0", plan, nullptr));
    Injector::install(plan);
    Injector::beginEpoch(1);
    Injector::beginMicroBatch(0);
    ASSERT_TRUE(Injector::take(FaultKind::InjectOom));

    Injector::install(plan); // fresh clock, fresh queue
    EXPECT_EQ(Injector::faultsInjected(), 0);
    Injector::beginEpoch(1);
    Injector::beginMicroBatch(0);
    EXPECT_TRUE(Injector::take(FaultKind::InjectOom));
}

TEST(Injector, CorruptRowPlanIsDeterministicPerEpoch)
{
    InjectorScope cleanup;
    FaultPlan plan;
    ASSERT_TRUE(
        FaultPlan::parse("corrupt-features=0.1@epoch1", plan, nullptr));
    plan.seed = 77;
    Injector::install(plan);

    Injector::beginEpoch(1);
    const auto first = Injector::corruptRowPlan(100, 0.1);
    // Same position, same answer — independent of consumption state
    // or how many times it is asked.
    const auto again = Injector::corruptRowPlan(100, 0.1);
    EXPECT_EQ(first, again);
    ASSERT_EQ(first.size(), 10u);
    // Sorted and duplicate-free, all in range.
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_GE(first[i], 0);
        EXPECT_LT(first[i], 100);
        if (i) {
            EXPECT_LT(first[i - 1], first[i]);
        }
    }

    // A different epoch corrupts a different (in general) set.
    Injector::beginEpoch(2);
    const auto other = Injector::corruptRowPlan(100, 0.1);
    EXPECT_NE(first, other);

    // At least one row even for a tiny fraction; empty for no rows.
    Injector::beginEpoch(1);
    EXPECT_EQ(Injector::corruptRowPlan(100, 0.0001).size(), 1u);
    EXPECT_TRUE(Injector::corruptRowPlan(0, 0.5).empty());
}

} // namespace
} // namespace betty::fault
