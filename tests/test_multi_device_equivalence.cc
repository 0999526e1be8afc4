/**
 * @file
 * Differential proof that multi-device sharding is a pure
 * placement/accounting decision: for device counts {1, 2, 4, 8} x
 * threads {1, 8} x pipeline on/off x per-device cache {0, small},
 * epoch losses and final parameter hashes are bit-identical to the
 * single-device Trainer. The same argument makes device-drop
 * recovery exact: a run that loses a device mid-epoch finishes with
 * the same parameter hash as every other configuration, because
 * assignment never touches the float operation order.
 *
 * A one-device engine also charges exactly what the Trainer charges
 * (link bytes and seconds, gathered rows): both run one loop.
 *
 * Also asserts the sampler contract is untouched by the engine — the
 * precondition for keeping the golden-hash corpus (tests/golden/)
 * without regeneration.
 */
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "memory/device_memory.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/fault.h"
#include "util/thread_pool.h"

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

/** FNV over a batch's block structure: the sampler's contract. */
uint64_t
hashBatch(const MultiLayerBatch& batch)
{
    uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](int64_t value) {
        hash = (hash ^ uint64_t(value)) * 1099511628211ull;
    };
    for (const Block& block : batch.blocks) {
        for (const int64_t node : block.srcNodes())
            mix(node);
        for (const int64_t node : block.dstNodes())
            mix(node);
        for (const int64_t offset : block.edgeOffsets())
            mix(offset);
        for (const int64_t src : block.edgeSources())
            mix(src);
    }
    return hash;
}

/** What every configuration must agree on, bit for bit. Simulated
 * seconds, per-device peaks, and transfer bytes are deliberately
 * ABSENT: placement legitimately changes where bytes are charged. */
struct RunResult
{
    std::vector<double> losses;     // one per epoch
    std::vector<double> accuracies; // one per epoch
    uint64_t paramHash = 0;

    // Multi-device extras (not part of the equivalence comparison).
    int64_t deviceDrops = 0;
    int32_t liveDevices = 0;
    std::vector<int64_t> transferBytes; // per device, last epoch

    // Straggler-supervisor extras (summed over epochs).
    int64_t deviceSlowFaults = 0;
    int64_t stragglersDetected = 0;
    int64_t stragglerResharded = 0;

    /** Sum over epochs of max-over-devices simulated link seconds:
     * the deterministic transfer bound on the parallel epoch time
     * (the compute portion is measured wall clock, so the strict
     * better-than comparisons run on this component). */
    double maxTransferSeconds = 0.0;
};

struct Env
{
    Env() : dataset(loadCatalogDataset("cora_like", 0.2, 11))
    {
        NeighborSampler sampler(dataset.graph, {4, 6}, 12);
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 160);
        const auto full = sampler.sample(seeds);
        BettyPartitioner partitioner;
        micros = extractMicroBatches(full,
                                     partitioner.partition(full, 8));
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

    /** The single-device reference: the plain Trainer. */
    RunResult
    runSingle(int epochs) const
    {
        ThreadPool::setGlobalThreads(1);
        GraphSage model(sageConfig());
        Adam adam(model.parameters(), 0.01f);
        Trainer trainer(dataset, model, adam);
        RunResult result;
        for (int epoch = 0; epoch < epochs; ++epoch) {
            const EpochStats stats =
                trainer.trainMicroBatches(micros);
            result.losses.push_back(stats.loss);
            result.accuracies.push_back(stats.accuracy);
        }
        result.paramHash = hashParameters(model);
        return result;
    }

    /**
     * Train @p epochs through the MultiDeviceEngine. Fresh model /
     * optimizer / engine per call, so two calls differ only in the
     * sharding, scheduling, and cache knobs — exactly what the
     * differential assertions need. @p faults (if non-empty) is
     * installed as the fault plan and cleared before returning.
     */
    RunResult
    runMulti(int32_t devices, int32_t threads, bool pipeline,
             int64_t cache_bytes_per_device, int epochs,
             const std::string& faults = "",
             uint64_t fault_seed = 0,
             double straggler_factor = -1.0) const
    {
        ThreadPool::setGlobalThreads(threads);
        if (!faults.empty()) {
            fault::FaultPlan plan;
            std::string error;
            EXPECT_TRUE(
                fault::FaultPlan::parse(faults, plan, &error))
                << error;
            plan.seed = fault_seed;
            fault::Injector::install(std::move(plan));
        }

        GraphSage model(sageConfig());
        Adam adam(model.parameters(), 0.01f);
        MultiDeviceConfig config;
        config.numDevices = devices;
        config.cacheBytesPerDevice = cache_bytes_per_device;
        config.pipeline = pipeline;
        if (straggler_factor >= 0.0)
            config.stragglerFactor = straggler_factor;
        MultiDeviceEngine engine(dataset, model, adam, config);

        RunResult result;
        for (int epoch = 1; epoch <= epochs; ++epoch) {
            const MultiDeviceStats stats =
                engine.trainEpoch(micros, epoch);
            result.losses.push_back(stats.loss);
            result.accuracies.push_back(stats.accuracy);
            result.deviceDrops += stats.deviceDrops;
            result.liveDevices = stats.liveDevices;
            result.transferBytes = stats.deviceTransferBytes;
            result.deviceSlowFaults += stats.deviceSlowFaults;
            result.stragglersDetected += stats.stragglersDetected;
            result.stragglerResharded += stats.stragglerResharded;
            double slowest = 0.0;
            for (const double s : stats.deviceTransferSeconds)
                slowest = std::max(slowest, s);
            result.maxTransferSeconds += slowest;
        }
        result.paramHash = hashParameters(model);
        fault::Injector::clear();
        ThreadPool::setGlobalThreads(1);
        return result;
    }

    /** Row bytes of this dataset; sizes caches in whole rows. */
    int64_t
    rowBytes() const
    {
        return dataset.featureDim() * int64_t(sizeof(float));
    }

    Dataset dataset;
    std::vector<MultiLayerBatch> micros;
};

void
expectSameNumerics(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.accuracies, b.accuracies);
    EXPECT_EQ(a.paramHash, b.paramHash);
}

constexpr int kEpochs = 3;

TEST(MultiDeviceEquivalence, BitIdenticalAcrossDevicesThreadsCache)
{
    Env env;
    ASSERT_GT(env.micros.size(), 1u);
    const RunResult reference = env.runSingle(kEpochs);
    EXPECT_GT(reference.losses.front(), 0.0); // real work happened

    const int64_t small = 64 * env.rowBytes();
    for (const int32_t devices : {1, 2, 4, 8})
        for (const int32_t threads : {1, 8})
            for (const bool pipeline : {false, true})
                for (const int64_t cache : {int64_t(0), small}) {
                    SCOPED_TRACE(
                        "devices=" + std::to_string(devices) +
                        " threads=" + std::to_string(threads) +
                        " pipeline=" + std::to_string(pipeline) +
                        " cache=" + std::to_string(cache));
                    const RunResult result = env.runMulti(
                        devices, threads, pipeline, cache, kEpochs);
                    expectSameNumerics(reference, result);
                }
}

TEST(MultiDeviceEquivalence, TransferAccountingScheduleIndependent)
{
    // For a fixed device count and cache size, the PER-DEVICE byte
    // accounting — not just the numerics — must be independent of
    // thread count and pipelining: charges happen at consumption
    // time on the calling thread, in canonical order.
    Env env;
    const int64_t cache = 48 * env.rowBytes();
    const RunResult serial = env.runMulti(4, 1, false, cache, kEpochs);
    const RunResult threaded = env.runMulti(4, 8, false, cache, kEpochs);
    const RunResult pipelined = env.runMulti(4, 8, true, cache, kEpochs);
    EXPECT_EQ(serial.transferBytes, threaded.transferBytes);
    EXPECT_EQ(serial.transferBytes, pipelined.transferBytes);
}

TEST(MultiDeviceEquivalence, EpochDropMatchesFewerDevicesFromStart)
{
    // A device lost at the start of epoch 2 leaves epochs 2..3
    // running on 3 devices. The invariant (multi_device.h): the run
    // finishes bit-identical to running on the survivors from the
    // start — and, because placement never touches numerics, to every
    // other configuration too.
    Env env;
    const RunResult dropped = env.runMulti(4, 1, false, 0, kEpochs,
                                           "device-drop@epoch2");
    EXPECT_EQ(dropped.deviceDrops, 1);
    EXPECT_EQ(dropped.liveDevices, 3);

    const RunResult three = env.runMulti(3, 1, false, 0, kEpochs);
    expectSameNumerics(three, dropped);
    expectSameNumerics(env.runSingle(kEpochs), dropped);
}

TEST(MultiDeviceEquivalence, MidEpochDropReshardsWithExactNumerics)
{
    // The drop fires just before micro-batch 3 of epoch 2: batches
    // already executed on the victim stay counted, pending ones
    // re-shard over the survivors, and the numerics never notice.
    Env env;
    for (const int32_t threads : {1, 8})
        for (const bool pipeline : {false, true}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " pipeline=" + std::to_string(pipeline));
            const RunResult dropped =
                env.runMulti(4, threads, pipeline, 0, kEpochs,
                             "device-drop=0@epoch2.mb3");
            EXPECT_EQ(dropped.deviceDrops, 1);
            EXPECT_EQ(dropped.liveDevices, 3);
            expectSameNumerics(env.runSingle(kEpochs), dropped);
        }
}

TEST(MultiDeviceEquivalence, DropRequestsForDeadDevicesAreIgnored)
{
    // Dropping device 2 twice: the second event finds it dead and is
    // ignored (warn + continue), not a crash or a double count.
    Env env;
    const RunResult result = env.runMulti(
        4, 1, false, 0, kEpochs,
        "device-drop=2@epoch1;device-drop=2@epoch2");
    EXPECT_EQ(result.deviceDrops, 1);
    EXPECT_EQ(result.liveDevices, 3);
    expectSameNumerics(env.runSingle(kEpochs), result);
}

TEST(MultiDeviceEquivalence, StragglerReshardBeatsStandingStill)
{
    // The gray-failure acceptance case (docs/MULTI_DEVICE.md): a 4x
    // link slowdown on device 1 from epoch 2 on. The supervisor must
    // notice the straggler from OBSERVED link times and move pending
    // micro-batches toward healthy devices — same numerics, strictly
    // less simulated transfer-bound epoch time than leaving the plan
    // alone (stragglerFactor=0 disables the supervisor; the compute
    // portion of epochSeconds is measured wall clock, so the strict
    // comparison runs on the deterministic link component the fault
    // actually inflates).
    Env env;
    const std::string slow = "device-slow=4@epoch2:device=1";
    const RunResult supervised =
        env.runMulti(4, 1, false, 0, kEpochs, slow);
    const RunResult unsupervised =
        env.runMulti(4, 1, false, 0, kEpochs, slow,
                     /*fault_seed=*/0, /*straggler_factor=*/0.0);

    EXPECT_EQ(supervised.deviceSlowFaults, 1);
    EXPECT_GE(supervised.stragglersDetected, 1);
    EXPECT_GE(supervised.stragglerResharded, 1);
    EXPECT_EQ(unsupervised.stragglersDetected, 0);
    EXPECT_EQ(unsupervised.stragglerResharded, 0);

    // Graceful degradation is attribution-only: both runs stay
    // bit-identical to the fault-free single-device reference.
    const RunResult reference = env.runSingle(kEpochs);
    expectSameNumerics(reference, supervised);
    expectSameNumerics(reference, unsupervised);

    EXPECT_LT(supervised.maxTransferSeconds,
              unsupervised.maxTransferSeconds);
}

TEST(MultiDeviceEquivalence, DeviceSlowHealsAfterItsDuration)
{
    // duration=1 scopes the slowdown to epoch 2 alone; epoch 3 runs
    // on a healed fleet, so the transfer bound of the whole run stays
    // strictly below the same schedule without a duration.
    Env env;
    const RunResult healed = env.runMulti(
        4, 1, false, 0, kEpochs,
        "device-slow=4@epoch2:device=1:duration=1");
    const RunResult forever = env.runMulti(
        4, 1, false, 0, kEpochs, "device-slow=4@epoch2:device=1",
        /*fault_seed=*/0, /*straggler_factor=*/0.0);
    expectSameNumerics(env.runSingle(kEpochs), healed);
    EXPECT_LT(healed.maxTransferSeconds,
              forever.maxTransferSeconds);
}

TEST(MultiDeviceEquivalence, TransferFlakyIsAbsorbedDeterministically)
{
    // Probabilistic link flakiness through the retry policy: the
    // failure pattern is a pure function of (seed, position), so the
    // same seed replays bit-for-bit, and the retries are
    // attribution-only — numerics match the fault-free reference for
    // ANY seed.
    Env env;
    const std::string flaky = "transfer-flaky=0.3@epoch2";
    const RunResult first =
        env.runMulti(2, 1, false, 0, kEpochs, flaky, 77);
    const RunResult replay =
        env.runMulti(2, 1, false, 0, kEpochs, flaky, 77);
    const RunResult other_seed =
        env.runMulti(2, 1, false, 0, kEpochs, flaky, 78);

    const RunResult reference = env.runSingle(kEpochs);
    expectSameNumerics(reference, first);
    expectSameNumerics(reference, other_seed);
    EXPECT_EQ(first.maxTransferSeconds, replay.maxTransferSeconds);
    EXPECT_EQ(first.transferBytes, replay.transferBytes);
}

/** Link and gather accounting of one run: per-epoch link seconds and
 * bytes, and the run's kernel.gather.rows. */
struct Accounting
{
    std::vector<double> linkSeconds;
    std::vector<int64_t> linkBytes;
    int64_t gatherRows = 0;
};

int64_t
counterValue(const char* name)
{
    return obs::Metrics::counter(name).value();
}

TEST(MultiDeviceEquivalence, OneDeviceEngineChargesLikeTheTrainer)
{
    // The single-device Trainer and a one-device engine run the same
    // micro-batch loop, so they must charge the same link bytes and
    // seconds and gather the same rows — with and without a cache,
    // pipelined or not.
    Env env;
    ThreadPool::setGlobalThreads(4);
    obs::Metrics::setEnabled(true);
    for (const bool pipeline : {false, true})
        for (const int64_t cache : {int64_t(0), 48 * env.rowBytes()}) {
            SCOPED_TRACE("pipeline=" + std::to_string(pipeline) +
                         " cache=" + std::to_string(cache));
            Accounting trainer_run;
            {
                obs::Metrics::reset();
                DeviceMemoryModel device;
                TransferModel link;
                std::unique_ptr<FeatureCache> feature_cache;
                if (cache > 0)
                    feature_cache = std::make_unique<FeatureCache>(
                        &device, cache, env.rowBytes(),
                        CachePolicy::Lru);
                GraphSage model(env.sageConfig());
                Adam adam(model.parameters(), 0.01f);
                Trainer trainer(env.dataset, model, adam, &device, &link);
                trainer.setPipeline(pipeline);
                trainer.setFeatureCache(feature_cache.get());
                for (int epoch = 0; epoch < kEpochs; ++epoch) {
                    const int64_t bytes = counterValue("transfer.bytes");
                    trainer_run.linkSeconds.push_back(
                        trainer.trainMicroBatches(env.micros)
                            .transferSeconds);
                    trainer_run.linkBytes.push_back(
                        counterValue("transfer.bytes") - bytes);
                }
                trainer_run.gatherRows =
                    counterValue("kernel.gather.rows");
            }
            Accounting engine_run;
            {
                obs::Metrics::reset();
                GraphSage model(env.sageConfig());
                Adam adam(model.parameters(), 0.01f);
                MultiDeviceConfig config;
                config.cacheBytesPerDevice = cache;
                config.pipeline = pipeline;
                MultiDeviceEngine engine(env.dataset, model, adam,
                                         config);
                for (int epoch = 0; epoch < kEpochs; ++epoch) {
                    const MultiDeviceStats stats =
                        engine.trainMicroBatches(env.micros);
                    engine_run.linkSeconds.push_back(
                        stats.deviceTransferSeconds[0]);
                    engine_run.linkBytes.push_back(
                        stats.deviceTransferBytes[0]);
                }
                engine_run.gatherRows =
                    counterValue("kernel.gather.rows");
            }
            EXPECT_EQ(trainer_run.linkSeconds, engine_run.linkSeconds);
            EXPECT_EQ(trainer_run.linkBytes, engine_run.linkBytes);
            EXPECT_GT(trainer_run.gatherRows, 0);
            EXPECT_EQ(trainer_run.gatherRows, engine_run.gatherRows);
        }
    obs::Metrics::setEnabled(false);
    obs::Metrics::reset();
    ThreadPool::setGlobalThreads(1);
}

TEST(MultiDeviceEquivalence, SamplerContractUntouchedByEngine)
{
    // The PR 3 golden-hash corpus (tests/golden) certifies sampler
    // output. Those goldens were NOT regenerated for this change, so
    // prove the precondition: a multi-device training run leaves the
    // sampler's output for a fixed seed bit-identical — the engine
    // never touches sampling state or the RNG stream.
    Env env;
    std::vector<int64_t> seeds(env.dataset.trainNodes.begin(),
                               env.dataset.trainNodes.begin() + 96);
    auto sampleHash = [&]() {
        NeighborSampler sampler(env.dataset.graph, {4, 6}, 21);
        return hashBatch(sampler.sample(seeds));
    };
    const uint64_t before = sampleHash();
    env.runMulti(4, 8, true, 64 * env.rowBytes(), 2);
    const uint64_t after = sampleHash();
    EXPECT_EQ(before, after);
}

} // namespace
} // namespace betty
