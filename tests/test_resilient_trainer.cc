/**
 * @file
 * The mid-epoch recovery loop (robustness/resilient_trainer.h).
 *
 * The acceptance contract: an injected mid-epoch capacity drop makes
 * the runtime roll back, re-plan at K+1 and complete the epoch, and
 * the final parameters are BIT-IDENTICAL to a run planned at the
 * larger K from the start under the shrunken capacity — rollback is
 * total (one optimizer step per accumulation step) and partitioning
 * is a pure function of (batch, K) on a cold start. Plus: injected
 * OOM and estimator under-prediction (alloc-scale ballast) recover
 * the same way, transfer faults retry without changing results,
 * recovery exhaustion skips the epoch instead of crashing, corrupt
 * feature rows are detected and repaired, and a fault-free run
 * through the resilient runtime is bit-identical to the plain
 * trainer with zero recovery actions.
 *
 * Transfer faults are keyed to each micro-batch's logical
 * program-order position (see test_fault.cc), so these schedules are
 * exact under any thread count, pipelined or not; the runs here use
 * the default single-lane pool only to keep the suite fast and the
 * traces simple.
 */
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "obs/metrics.h"
#include "robustness/resilient_trainer.h"
#include "sampling/neighbor_sampler.h"
#include "train/trainer.h"
#include "util/fault.h"

namespace betty {
namespace {

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

/** Everything one resilient epoch can be compared on. */
struct RunOutput
{
    ResilientEpochResult result;
    RecoveryReport report;
    uint64_t paramHash = 0;
    int64_t transferFailedAttempts = 0;
};

struct Env
{
    Env() : dataset(loadCatalogDataset("cora_like", 0.2, 11))
    {
        NeighborSampler sampler(dataset.graph, {4, 6}, 12);
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 120);
        full = sampler.sample(seeds);

        // The estimated peak of the unsplit batch: capacities in the
        // tests are expressed relative to it so no magic byte counts
        // are baked in.
        GraphSage model(sageConfig());
        BettyPartitioner partitioner;
        MemoryAwarePlanner probe(model.memorySpec(), 0);
        const auto plan = probe.plan(full, partitioner, 1);
        peakAtK1 = plan.maxEstimatedPeak;
        EXPECT_GT(peakAtK1, 0);
    }

    SageConfig
    sageConfig() const
    {
        SageConfig cfg;
        cfg.inputDim = dataset.featureDim();
        cfg.hiddenDim = 16;
        cfg.numClasses = dataset.numClasses;
        cfg.numLayers = 2;
        cfg.seed = 5;
        return cfg;
    }

    /**
     * One resilient epoch from a fresh (seeded) model/optimizer/
     * device. @p faults is a spec for util/fault.h ("" = none).
     */
    RunOutput
    run(const std::string& faults, int64_t capacity,
        int32_t initial_k = 1, RecoveryPolicy policy = {},
        uint64_t fault_seed = 0, Dataset* mutable_ds = nullptr)
    {
        if (faults.empty()) {
            fault::Injector::clear();
        } else {
            fault::FaultPlan plan;
            std::string error;
            EXPECT_TRUE(
                fault::FaultPlan::parse(faults, plan, &error))
                << error;
            plan.seed = fault_seed;
            fault::Injector::install(std::move(plan));
        }

        const Dataset& ds = mutable_ds ? *mutable_ds : dataset;
        DeviceMemoryModel device(capacity);
        DeviceMemoryModel::Scope scope(device);
        GraphSage model(sageConfig());
        Adam adam(model.parameters(), 0.01f);
        TransferModel transfer;
        Trainer trainer(ds, model, adam, &device, &transfer);
        BettyPartitioner partitioner;
        ResilientTrainer resilient(trainer, model.memorySpec(),
                                   partitioner, policy);
        if (mutable_ds)
            resilient.setFeatureSource(&mutable_ds->features);

        RunOutput out;
        out.result = resilient.trainEpoch(full, 1, initial_k);
        out.report = resilient.report();
        out.paramHash = hashParameters(model);
        out.transferFailedAttempts = transfer.failedAttempts();
        fault::Injector::clear();
        return out;
    }

    Dataset dataset;
    MultiLayerBatch full;
    int64_t peakAtK1 = 0;
};

Env&
env()
{
    static Env instance;
    return instance;
}

TEST(ResilientTrainer, FaultFreeRunIsBitIdenticalToPlainTrainer)
{
    Env& e = env();
    const int64_t capacity = e.peakAtK1;

    // Plain trainer, planned directly.
    uint64_t plain_hash = 0;
    EpochStats plain_stats;
    int32_t plain_k = 0;
    {
        fault::Injector::clear();
        DeviceMemoryModel device(capacity);
        DeviceMemoryModel::Scope scope(device);
        GraphSage model(e.sageConfig());
        Adam adam(model.parameters(), 0.01f);
        TransferModel transfer;
        Trainer trainer(e.dataset, model, adam, &device, &transfer);
        BettyPartitioner partitioner;
        MemoryAwarePlanner planner(model.memorySpec(), capacity);
        const auto plan = planner.plan(e.full, partitioner, 1);
        ASSERT_TRUE(plan.fits);
        plain_k = plan.k;
        plain_stats = trainer.trainMicroBatches(plan.microBatches);
        plain_hash = hashParameters(model);
    }

    const RunOutput resilient = e.run("", capacity);
    ASSERT_FALSE(resilient.result.skipped);
    EXPECT_EQ(resilient.result.plan.k, plain_k);
    EXPECT_EQ(resilient.result.stats.loss, plain_stats.loss);
    EXPECT_EQ(resilient.result.stats.accuracy,
              plain_stats.accuracy);
    EXPECT_EQ(resilient.result.stats.peakBytes,
              plain_stats.peakBytes);
    EXPECT_EQ(resilient.result.stats.transferSeconds,
              plain_stats.transferSeconds);
    EXPECT_EQ(resilient.paramHash, plain_hash);

    // Zero recovery actions: the wrapper must be invisible.
    EXPECT_EQ(resilient.report.replans, 0);
    EXPECT_EQ(resilient.report.oomRetries, 0);
    EXPECT_EQ(resilient.report.transferRetries, 0);
    EXPECT_EQ(resilient.report.batchesSkipped, 0);
    EXPECT_EQ(resilient.report.corruptRowsRepaired, 0);
    EXPECT_EQ(resilient.report.faultsInjected, 0);
}

TEST(ResilientTrainer, CapacityDropRecoversAtLargerK)
{
    Env& e = env();
    const int64_t capacity = e.peakAtK1; // K=1 fits exactly
    const int64_t dropped =
        std::max<int64_t>(1, int64_t(double(capacity) * 0.5));

    obs::Metrics::setEnabled(true);
    const int64_t replans_before =
        obs::Metrics::counter("recover.replans").value();

    // Capacity halves right before micro-batch 0 runs: the planned
    // micro-batch (estimated peak == old capacity) no longer fits,
    // the step aborts, and the runtime re-plans at K+1 against the
    // shrunken capacity.
    const RunOutput faulted =
        e.run("capacity-drop=0.5@epoch1.mb0", capacity);
    ASSERT_FALSE(faulted.result.skipped);
    EXPECT_GE(faulted.report.replans, 1);
    EXPECT_GE(faulted.report.oomRetries, 1);
    EXPECT_EQ(faulted.report.faultsInjected, 1);
    EXPECT_GT(faulted.result.plan.k, 1);

    // recover.replans is also visible as a metric.
    EXPECT_GE(obs::Metrics::counter("recover.replans").value(),
              replans_before + 1);

    // THE determinism contract: identical parameters to a run planned
    // at the larger K from the start under the dropped capacity.
    const RunOutput clean = e.run("", dropped, /*initial_k=*/2);
    ASSERT_FALSE(clean.result.skipped);
    EXPECT_EQ(clean.result.plan.k, faulted.result.plan.k);
    EXPECT_EQ(clean.result.stats.loss, faulted.result.stats.loss);
    EXPECT_EQ(clean.paramHash, faulted.paramHash);
}

TEST(ResilientTrainer, InjectedOomTriggersReplanAndCompletes)
{
    Env& e = env();
    const int64_t capacity = e.peakAtK1;

    const RunOutput faulted = e.run("oom@epoch1.mb0", capacity);
    ASSERT_FALSE(faulted.result.skipped);
    EXPECT_EQ(faulted.report.replans, 1);
    EXPECT_EQ(faulted.report.oomRetries, 1);
    EXPECT_GT(faulted.result.plan.k, 1);

    // Same capacity, planned at the final K from the start.
    const RunOutput clean =
        e.run("", capacity, faulted.result.plan.k);
    EXPECT_EQ(clean.result.plan.k, faulted.result.plan.k);
    EXPECT_EQ(clean.paramHash, faulted.paramHash);
}

TEST(ResilientTrainer, AllocScaleBallastOvershootsAndRecovers)
{
    Env& e = env();
    const int64_t capacity = e.peakAtK1;

    // Micro-batch 0 "actually allocates" 2x its estimate: the extra
    // ballast overshoots capacity (estimate == capacity), the review
    // hook aborts, and the re-planned epoch completes fault-free.
    const RunOutput faulted =
        e.run("alloc-scale=2.0@epoch1.mb0", capacity);
    ASSERT_FALSE(faulted.result.skipped);
    EXPECT_GE(faulted.report.replans, 1);
    EXPECT_EQ(faulted.report.faultsInjected, 1);
    EXPECT_FALSE(faulted.result.stats.aborted);
    EXPECT_TRUE(std::isfinite(faulted.result.stats.loss));

    const RunOutput clean =
        e.run("", capacity, faulted.result.plan.k);
    EXPECT_EQ(clean.paramHash, faulted.paramHash);
}

TEST(ResilientTrainer, TransferFaultRetriesWithoutChangingResults)
{
    Env& e = env();
    const int64_t capacity = e.peakAtK1;

    const RunOutput clean = e.run("", capacity);
    const RunOutput faulted =
        e.run("transfer-fail@epoch1:retries=2", capacity);

    ASSERT_FALSE(faulted.result.skipped);
    EXPECT_EQ(faulted.transferFailedAttempts, 2);
    EXPECT_EQ(faulted.report.transferRetries, 2);
    EXPECT_EQ(faulted.report.replans, 0); // retried in place
    // Each failed attempt still pays the link latency...
    EXPECT_GT(faulted.result.stats.transferSeconds,
              clean.result.stats.transferSeconds);
    // ...but the training outcome is untouched.
    EXPECT_EQ(faulted.result.plan.k, clean.result.plan.k);
    EXPECT_EQ(faulted.result.stats.loss, clean.result.stats.loss);
    EXPECT_EQ(faulted.paramHash, clean.paramHash);
}

TEST(ResilientTrainer, DeviceSlowDegradesTheTrainersOwnLinkAndHeals)
{
    // Wired like train_cli: the link reaches the recovery loop only
    // through the trainer it wraps.
    Env& e = env();
    struct Epochs
    {
        std::vector<double> losses;
        std::vector<double> linkSeconds;
        uint64_t paramHash = 0;
        int64_t faultsInjected = 0;
    };
    auto run = [&](const std::string& faults) {
        fault::FaultPlan plan;
        EXPECT_TRUE(fault::FaultPlan::parse(faults, plan, nullptr));
        fault::Injector::install(std::move(plan));
        DeviceMemoryModel device(e.peakAtK1);
        DeviceMemoryModel::Scope scope(device);
        GraphSage model(e.sageConfig());
        Adam adam(model.parameters(), 0.01f);
        TransferModel transfer;
        Trainer trainer(e.dataset, model, adam, &device, &transfer);
        BettyPartitioner partitioner;
        ResilientTrainer resilient(trainer, model.memorySpec(),
                                   partitioner);
        Epochs out;
        for (int64_t epoch = 1; epoch <= 2; ++epoch) {
            const ResilientEpochResult result =
                resilient.trainEpoch(e.full, epoch, 1);
            EXPECT_FALSE(result.skipped);
            out.losses.push_back(result.stats.loss);
            out.linkSeconds.push_back(result.stats.transferSeconds);
        }
        out.paramHash = hashParameters(model);
        out.faultsInjected = resilient.report().faultsInjected;
        fault::Injector::clear();
        return out;
    };

    const Epochs clean = run("");
    const Epochs slow = run("device-slow=4@epoch1:duration=1");
    EXPECT_EQ(slow.faultsInjected, 1);
    EXPECT_GT(slow.linkSeconds[0], clean.linkSeconds[0]);
    EXPECT_EQ(slow.linkSeconds[1], clean.linkSeconds[1]); // healed
    EXPECT_EQ(slow.losses, clean.losses);
    EXPECT_EQ(slow.paramHash, clean.paramHash);
}

TEST(ResilientTrainer, ExhaustionSkipsTheEpochInsteadOfCrashing)
{
    Env& e = env();

    // A capacity nothing can ever fit (a handful of bytes): the
    // planner reports fits=false at max K and the epoch is skipped
    // with the parameters untouched.
    const uint64_t fresh_hash = [&] {
        GraphSage model(e.sageConfig());
        return hashParameters(model);
    }();
    RecoveryPolicy tight;
    tight.maxK = 64; // keep the futile search cheap
    const RunOutput skipped = e.run("", 1024, 1, tight);
    EXPECT_TRUE(skipped.result.skipped);
    EXPECT_EQ(skipped.report.batchesSkipped, 1);
    EXPECT_EQ(skipped.paramHash, fresh_hash);

    // Bounded retries: with a zero re-plan budget a single injected
    // OOM exhausts recovery — skip, again without crashing.
    RecoveryPolicy no_retries;
    no_retries.maxReplanAttempts = 0;
    const RunOutput exhausted =
        e.run("oom@epoch1.mb0", e.peakAtK1, 1, no_retries);
    EXPECT_TRUE(exhausted.result.skipped);
    EXPECT_EQ(exhausted.report.oomRetries, 1);
    EXPECT_EQ(exhausted.report.replans, 0);
    EXPECT_EQ(exhausted.report.batchesSkipped, 1);
    EXPECT_EQ(exhausted.paramHash, fresh_hash);
}

TEST(ResilientTrainer, CorruptFeatureRowsAreDetectedAndRepaired)
{
    Env& e = env();
    // A private dataset copy: the fault poisons feature rows in
    // place and the repair zeroes them, so the shared Env dataset
    // must stay pristine.
    Dataset ds = loadCatalogDataset("cora_like", 0.2, 11);

    const RunOutput faulted =
        e.run("corrupt-features=0.05@epoch1", /*capacity=*/0,
              /*initial_k=*/1, {}, /*fault_seed=*/9, &ds);
    ASSERT_FALSE(faulted.result.skipped);
    EXPECT_TRUE(std::isfinite(faulted.result.stats.loss));
    EXPECT_EQ(faulted.report.faultsInjected, 1);

    // Every poisoned row was found: the corrupt-row plan is a pure
    // function of (seed, epoch), so the test can recompute the exact
    // expected count (input node ids are unique within the batch).
    const int64_t expected = std::max<int64_t>(
        1,
        int64_t(double(e.full.inputNodes().size()) * 0.05));
    EXPECT_EQ(faulted.report.corruptRowsRepaired, expected);

    // And the repair left no NaNs behind.
    for (int64_t i = 0; i < ds.features.numel(); ++i)
        ASSERT_TRUE(std::isfinite(ds.features.data()[i]));
}

} // namespace
} // namespace betty
