/**
 * @file
 * The always-on flight recorder (obs/perf/flight_recorder.h).
 *
 * Contracts under test: recording is cheap enough to leave on in
 * every run (bounded per-event overhead), the ring never loses
 * accounting (recorded = retained + dropped, seq strictly
 * increasing), concurrent recorders are safe, a fault-injected
 * resilient epoch leaves the fault and the K -> K+1 re-plan in the
 * ring with monotonic timestamps, and the recorder observes without
 * perturbing — parameters are bit-identical with recording on or
 * off.
 */
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "obs/json.h"
#include "obs/perf/flight_recorder.h"
#include "robustness/resilient_trainer.h"
#include "sampling/neighbor_sampler.h"
#include "train/trainer.h"
#include "util/fault.h"
#include "util/timer.h"

namespace betty {
namespace {

using obs::FlightRecorder;
using obs::FrCategory;
using obs::FrEvent;
using obs::FrPhase;

/** Fresh default-capacity ring for every test. */
class FlightRecorderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FlightRecorder::setCapacity(8192);
        FlightRecorder::setEnabled(true);
        FlightRecorder::clear();
    }

    void
    TearDown() override
    {
        FlightRecorder::clear();
        FlightRecorder::setEnabled(true);
    }

    uint64_t last_hash_ = 0;
};

uint64_t
hashParameters(const GnnModel& model)
{
    uint64_t hash = 1469598103934665603ull;
    for (const auto& param : model.parameters())
        for (int64_t i = 0; i < param->value.numel(); ++i) {
            uint32_t bits;
            std::memcpy(&bits, &param->value.data()[i],
                        sizeof(bits));
            hash = (hash ^ bits) * 1099511628211ull;
        }
    return hash;
}

TEST_F(FlightRecorderTest, RecordsAndSnapshotsInSeqOrder)
{
    FlightRecorder::record(FrCategory::Mark, "one", 1, 10);
    FlightRecorder::record(FrCategory::Mark, "two", 2, 20);
    FlightRecorder::recordBegin("span", 3);
    FlightRecorder::recordEnd("span", 3);

    const auto events = FlightRecorder::snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_STREQ(events[0].name, "one");
    EXPECT_EQ(events[0].a, 1);
    EXPECT_EQ(events[0].b, 10);
    EXPECT_EQ(events[2].phase, FrPhase::Begin);
    EXPECT_EQ(events[3].phase, FrPhase::End);
    for (size_t i = 1; i < events.size(); ++i) {
        EXPECT_GT(events[i].seq, events[i - 1].seq);
        EXPECT_GE(events[i].tsUs, events[i - 1].tsUs);
    }
    EXPECT_EQ(FlightRecorder::recordedEvents(), 4);
    EXPECT_EQ(FlightRecorder::droppedEvents(), 0);
}

TEST_F(FlightRecorderTest, DisabledRecorderKeepsWhatWasRecorded)
{
    FlightRecorder::record(FrCategory::Mark, "kept");
    FlightRecorder::setEnabled(false);
    FlightRecorder::record(FrCategory::Mark, "ignored");
    EXPECT_EQ(FlightRecorder::recordedEvents(), 1);
    const auto events = FlightRecorder::snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "kept");
    FlightRecorder::setEnabled(true);
}

TEST_F(FlightRecorderTest, RingOverwriteIsCountedAsDropped)
{
    FlightRecorder::setCapacity(64);
    for (int i = 0; i < 200; ++i)
        FlightRecorder::record(FrCategory::Mark, "evt", i);
    EXPECT_EQ(FlightRecorder::recordedEvents(), 200);
    EXPECT_EQ(FlightRecorder::droppedEvents(), 200 - 64);
    const auto events = FlightRecorder::snapshot();
    ASSERT_EQ(events.size(), 64u);
    // The retained window is the most recent events, oldest first.
    EXPECT_EQ(events.front().a, 200 - 64);
    EXPECT_EQ(events.back().a, 199);
}

TEST_F(FlightRecorderTest, PerEventOverheadIsBounded)
{
    constexpr int kEvents = 200000;
    Timer timer;
    for (int i = 0; i < kEvents; ++i)
        FlightRecorder::record(FrCategory::Mark, "bench", i, i);
    const double per_event_us =
        timer.seconds() * 1e6 / double(kEvents);
    // Recording is a slot claim + a few relaxed stores — tens of
    // nanoseconds. 2us is ~50x headroom for a loaded CI machine; a
    // lock or allocation on this path would blow through it.
    EXPECT_LT(per_event_us, 2.0);
    EXPECT_EQ(FlightRecorder::recordedEvents(), kEvents);
}

TEST_F(FlightRecorderTest, ConcurrentRecordersLoseNothing)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                FlightRecorder::record(FrCategory::Mark, "mt", t, i);
        });
    for (auto& thread : threads)
        thread.join();

    EXPECT_EQ(FlightRecorder::recordedEvents(),
              kThreads * kPerThread);
    EXPECT_EQ(FlightRecorder::droppedEvents(),
              kThreads * kPerThread -
                  int64_t(FlightRecorder::capacity()));
    const auto events = FlightRecorder::snapshot();
    EXPECT_EQ(events.size(), FlightRecorder::capacity());
    std::set<int64_t> seqs;
    for (const auto& event : events)
        seqs.insert(event.seq);
    EXPECT_EQ(seqs.size(), events.size()); // no duplicate slots
}

TEST_F(FlightRecorderTest, DumpJsonIsWellFormed)
{
    FlightRecorder::record(FrCategory::Cache, "cache/evict-batch", 3,
                           7);
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(FlightRecorder::dumpJson(), doc,
                               &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.find("schema_version"));
    EXPECT_EQ(doc.find("recorded")->asInt(), 1);
    const obs::JsonValue* events = doc.find("events");
    ASSERT_TRUE(events && events->isArray());
    ASSERT_EQ(events->array.size(), 1u);
    const obs::JsonValue& event = events->array[0];
    EXPECT_EQ(event.find("name")->string, "cache/evict-batch");
    EXPECT_EQ(event.find("category")->string, "cache");
    EXPECT_EQ(event.find("a")->asInt(), 3);
    EXPECT_EQ(event.find("b")->asInt(), 7);
}

/**
 * The acceptance scenario: an injected OOM in epoch 1 makes the
 * resilient trainer abort at K=1 and re-plan at K=2. The black box
 * must tell that story — the consumed fault, the abort, and the
 * K -> K+1 re-plan, in causal order with monotonic timestamps — and
 * the recorder itself must not perturb training (bit-identical
 * parameters with recording on or off).
 */
TEST_F(FlightRecorderTest, FaultInjectedRunLeavesTheRecoveryStory)
{
    const Dataset dataset = loadCatalogDataset("cora_like", 0.2, 11);
    NeighborSampler sampler(dataset.graph, {4, 6}, 12);
    std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                               dataset.trainNodes.begin() + 120);
    const MultiLayerBatch full = sampler.sample(seeds);

    SageConfig cfg;
    cfg.inputDim = dataset.featureDim();
    cfg.hiddenDim = 16;
    cfg.numClasses = dataset.numClasses;
    cfg.numLayers = 2;
    cfg.seed = 5;

    auto runEpoch = [&](bool recorder_on) {
        FlightRecorder::clear();
        FlightRecorder::setEnabled(recorder_on);
        fault::FaultPlan plan;
        ASSERT_TRUE(
            fault::FaultPlan::parse("oom@epoch1.mb0", plan, nullptr));
        fault::Injector::install(std::move(plan));

        DeviceMemoryModel device(0);
        DeviceMemoryModel::Scope scope(device);
        GraphSage model(cfg);
        Adam adam(model.parameters(), 0.01f);
        TransferModel transfer;
        Trainer trainer(dataset, model, adam, &device, &transfer);
        BettyPartitioner partitioner;
        ResilientTrainer resilient(trainer, model.memorySpec(),
                                   partitioner);
        const auto result = resilient.trainEpoch(full, 1, 1);
        EXPECT_FALSE(result.skipped);
        EXPECT_EQ(result.plan.k, 2);
        fault::Injector::clear();
        FlightRecorder::setEnabled(true);
        last_hash_ = hashParameters(model);
    };

    runEpoch(true);
    const uint64_t hash_with_recorder = last_hash_;
    const auto events = FlightRecorder::snapshot();

    auto findEvent = [&](const char* name) -> const FrEvent* {
        for (const auto& event : events)
            if (std::strcmp(event.name, name) == 0)
                return &event;
        return nullptr;
    };

    const FrEvent* fault = findEvent("oom");
    ASSERT_TRUE(fault) << "consumed fault not recorded";
    EXPECT_EQ(fault->category, FrCategory::Fault);
    EXPECT_EQ(fault->a, 1); // epoch
    EXPECT_EQ(fault->b, 0); // micro-batch

    const FrEvent* abort_event = findEvent("oom/epoch-abort");
    ASSERT_TRUE(abort_event);
    const FrEvent* replan = findEvent("recover/replan");
    ASSERT_TRUE(replan) << "K -> K+1 re-plan not recorded";
    EXPECT_EQ(replan->a, 1); // aborted K
    EXPECT_EQ(replan->b, 2); // next K

    // Causal order with monotonic timestamps: fault -> abort ->
    // re-plan, and the whole (serial) ring is time-ordered.
    EXPECT_LT(fault->seq, abort_event->seq);
    EXPECT_LT(abort_event->seq, replan->seq);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].tsUs, events[i - 1].tsUs);

    // Epoch span markers bracket everything recovery-related.
    const FrEvent* begin = findEvent("epoch/train");
    ASSERT_TRUE(begin);
    EXPECT_EQ(begin->phase, FrPhase::Begin);

    // Observe, never perturb: the same run with the recorder off
    // lands on bit-identical parameters.
    runEpoch(false);
    EXPECT_EQ(last_hash_, hash_with_recorder);
}

TEST(FlightRecorderConfig, MalformedCapacityVariableIsFatal)
{
    // The ring is sized by the first record of a process, so the death
    // test re-runs in a fresh process, where no ring exists yet.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    setenv("BETTY_FR_CAPACITY", "8k", 1);
    EXPECT_DEATH(FlightRecorder::record(FrCategory::Mark, "fr/first", 0,
                                        0),
                 "BETTY_FR_CAPACITY");
    unsetenv("BETTY_FR_CAPACITY");
    ::testing::GTEST_FLAG(death_test_style) = "fast";
}

} // namespace
} // namespace betty
