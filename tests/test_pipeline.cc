/**
 * @file
 * Pipelined micro-batch execution (a ThreadPool with more than one
 * lane) must be an invisible optimization: every
 * EpochStats field, the trained parameters, the DeviceMemoryModel
 * peak/per-category accounting, and the device.oom_events counter are
 * bit-identical to the serial schedule — overlapping the host-side
 * gather of micro-batch k+1 with the compute of k may only change
 * wall-clock. The same holds for the pool lanes the GEMM kernels
 * split their rows over and for the kernel backend, and for the
 * exact work counters, which are also pinned to a golden corpus.
 */
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

#include "golden.h"

namespace betty {
namespace {

/** Deterministic work counters: a change that only reschedules work
 * (pipelining, pool lanes, kernel backend) must leave them exact. */
const char* const kWorkCounters[] = {
    "kernel.gemm.calls",  "kernel.gemm.flops", "kernel.agg.edges",
    "kernel.gather.rows", "transfer.bytes",    "device.alloc_count",
    "kernel.arena.chunk_allocs",
};

/** Everything one epoch run can be compared on, bit for bit. */
struct RunResult
{
    EpochStats stats;
    int64_t peakBytes = 0;
    std::vector<int64_t> categoryPeaks;
    int64_t oomEvents = 0; // device.oom_events delta of this run
    uint64_t paramHash = 0;
    /** kWorkCounters deltas of this run. */
    std::map<std::string, uint64_t> work;
    /** Arena chunks grown after the first epoch (warm-up). */
    int64_t laterChunkAllocs = 0;
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

    /**
     * Train @p epochs with a given schedule. Fresh model/optimizer/
     * device per call (seeded), so two calls differ only in how the
     * epoch is scheduled.
     */
    RunResult
    run(int32_t threads, int epochs, int64_t capacity_bytes = 0) const
    {
        ThreadPool::setGlobalThreads(threads);
        obs::Metrics::setEnabled(true);
        const int64_t oom_before =
            obs::Metrics::counter("device.oom_events").value();
        std::map<std::string, int64_t> work_before;
        for (const char* name : kWorkCounters)
            work_before[name] = obs::Metrics::counter(name).value();

        DeviceMemoryModel device(capacity_bytes);
        DeviceMemoryModel::Scope scope(device);
        GraphSage model(sageConfig());
        Adam adam(model.parameters(), 0.01f);
        TransferModel transfer;
        Trainer trainer(dataset, model, adam, &device, &transfer);

        const obs::Counter& chunk_allocs =
            obs::Metrics::counter("kernel.arena.chunk_allocs");
        RunResult result;
        int64_t warm_chunks = 0;
        for (int epoch = 0; epoch < epochs; ++epoch) {
            result.stats = trainer.trainMicroBatches(micros);
            if (epoch == 0)
                warm_chunks = chunk_allocs.value();
        }
        result.laterChunkAllocs = chunk_allocs.value() - warm_chunks;

        result.peakBytes = device.peakBytes();
        for (size_t c = 0; c < obs::kMemCategoryCount; ++c)
            result.categoryPeaks.push_back(
                device.peakBytes(obs::MemCategory(c)));
        result.oomEvents =
            obs::Metrics::counter("device.oom_events").value() -
            oom_before;
        result.paramHash = hashParameters(model);
        for (const char* name : kWorkCounters)
            result.work[name] = uint64_t(
                obs::Metrics::counter(name).value() - work_before[name]);
        ThreadPool::setGlobalThreads(1);
        return result;
    }

    Dataset dataset;
    std::vector<MultiLayerBatch> micros;
};

void
expectBitIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.stats.loss, b.stats.loss);
    EXPECT_EQ(a.stats.accuracy, b.stats.accuracy);
    EXPECT_EQ(a.stats.transferSeconds, b.stats.transferSeconds);
    EXPECT_EQ(a.stats.peakBytes, b.stats.peakBytes);
    EXPECT_EQ(a.stats.oom, b.stats.oom);
    EXPECT_EQ(a.stats.inputNodesProcessed,
              b.stats.inputNodesProcessed);
    EXPECT_EQ(a.stats.totalNodesProcessed,
              b.stats.totalNodesProcessed);
    EXPECT_EQ(a.peakBytes, b.peakBytes);
    EXPECT_EQ(a.categoryPeaks, b.categoryPeaks);
    EXPECT_EQ(a.oomEvents, b.oomEvents);
    EXPECT_EQ(a.paramHash, b.paramHash);
}

TEST(Pipeline, BitIdenticalToSerialSchedule)
{
    Env env;
    ASSERT_GT(env.micros.size(), 1u);
    const RunResult serial = env.run(1, 3);
    const RunResult pipelined = env.run(4, 3);
    expectBitIdentical(serial, pipelined);
    // Losses actually moved (the runs did real work).
    EXPECT_GT(serial.stats.loss, 0.0);
}

TEST(Pipeline, ThreadCountDoesNotLeakIntoResults)
{
    Env env;
    const RunResult two = env.run(2, 2);
    const RunResult eight = env.run(8, 2);
    expectBitIdentical(two, eight);
}

TEST(Pipeline, OomAccountingUnchangedByOverlap)
{
    // Constrained device: OOM episodes must fire identically whether
    // or not a prefetch is in flight during compute — the staging
    // buffer is host memory and must never appear in device
    // accounting.
    Env env;
    const RunResult serial = env.run(1, 2, 64 * 1024);
    const RunResult pipelined = env.run(4, 2, 64 * 1024);
    EXPECT_TRUE(serial.stats.oom); // capacity chosen to overflow
    expectBitIdentical(serial, pipelined);
    EXPECT_GT(serial.oomEvents, 0);
}

TEST(Pipeline, LanesChangeNeitherResultsNorWorkUnderEitherBackend)
{
    // The GEMMs split their output rows over every pool lane. Under
    // each available backend, 4 lanes must train bit-identically to 1
    // and count exactly the same work — the values recorded in
    // tests/golden/work_counters.golden — and the AVX2 run must train
    // bit-identically to the scalar reference. The arena grows only
    // in the first epoch.
    std::vector<kernels::KernelMode> modes = {kernels::KernelMode::Scalar};
    if (kernels::builtWithAvx2() && kernels::cpuSupportsAvx2())
        modes.push_back(kernels::KernelMode::Avx2);
    Env env;
    RunResult scalar_one;
    for (const kernels::KernelMode mode : modes) {
        SCOPED_TRACE(kernels::kernelModeName(mode));
        kernels::setKernelMode(mode);
        const RunResult one = env.run(1, 2);
        const obs::Counter& splits =
            obs::Metrics::counter("pool.parallel_fors");
        const int64_t splits_before = splits.value();
        const RunResult four = env.run(4, 2);
        kernels::resetKernelModeForTest();
        // Non-vacuous: the 4-lane run really split GEMMs over the pool.
        EXPECT_GT(splits.value(), splits_before);
        expectBitIdentical(one, four);
        EXPECT_EQ(one.work, four.work);
        EXPECT_GT(one.work.at("kernel.gemm.flops"), 0u);
        EXPECT_EQ(one.laterChunkAllocs, 0);
        EXPECT_EQ(four.laterChunkAllocs, 0);
        if (mode == kernels::KernelMode::Scalar) {
            scalar_one = one;
        } else {
            expectBitIdentical(scalar_one, one);
            EXPECT_EQ(one.work, scalar_one.work);
        }
    }
    testutil::checkAgainstGolden("work_counters", scalar_one.work);
}

TEST(Pipeline, SingleMicroBatchFallsBackToSerial)
{
    // One micro-batch leaves nothing to overlap; the pipelined path
    // must degrade to the serial one without deadlock or divergence.
    Env env;
    NeighborSampler sampler(env.dataset.graph, {4, 6}, 12);
    std::vector<int64_t> seeds(env.dataset.trainNodes.begin(),
                               env.dataset.trainNodes.begin() + 64);
    const std::vector<MultiLayerBatch> one = {sampler.sample(seeds)};

    auto runOne = [&](int32_t threads) {
        ThreadPool::setGlobalThreads(threads);
        GraphSage model(env.sageConfig());
        Adam adam(model.parameters(), 0.01f);
        Trainer trainer(env.dataset, model, adam);
        const auto stats = trainer.trainMicroBatches(one);
        ThreadPool::setGlobalThreads(1);
        return std::pair<double, uint64_t>(stats.loss,
                                           hashParameters(model));
    };
    EXPECT_EQ(runOne(1), runOne(4));
}

} // namespace
} // namespace betty
