/**
 * @file
 * Tests for the multi-accelerator engine (paper future work §7):
 * the vertex-cut sharder's properties (exactly-once
 * assignment, load-balance bound, duplication no worse than
 * round-robin, thread-count determinism), bit-identical equivalence
 * with single-device training, per-device memory/interconnect
 * accounting, and device-drop re-sharding mechanics.
 *
 * The deeper differential sweep (device counts x threads x pipeline x
 * cache, golden-corpus precondition, drop-equivalence invariant)
 * lives in tests/test_multi_device_equivalence.cc.
 */
#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "data/synthetic.h"
#include "graph/csr_graph.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

// -------------------------------------------------------------------
// Vertex-cut sharder properties.

/** Heavy-tailed synthetic graph (products_like-style hubs) — the
 * fixture the parallel-determinism golden corpus uses. */
CsrGraph
powerLawGraph()
{
    SyntheticSpec spec;
    spec.name = "determinism_power_law";
    spec.numNodes = 1500;
    spec.avgDegree = 9.0;
    spec.powerLawAlpha = 2.1; // heavy tail: strong hubs
    spec.featureDim = 4;
    return makeSyntheticDataset(spec, 91).graph;
}

/** Bipartite-heavy hub graph: a small hub layer feeding a wide
 * destination layer, so micro-batches share a dense common halo. */
CsrGraph
bipartiteHeavyGraph()
{
    constexpr int64_t kHubs = 48;
    constexpr int64_t kDsts = 600;
    std::vector<Edge> edges;
    Rng rng(1234);
    for (int64_t d = 0; d < kDsts; ++d) {
        const int64_t dst = kHubs + d;
        const int64_t fan = 6 + int64_t(rng.next() % 10);
        for (int64_t e = 0; e < fan; ++e) {
            const int64_t hub = int64_t(rng.next() % uint64_t(kHubs));
            edges.push_back({hub, dst});
            edges.push_back({dst, hub}); // keep hubs reachable too
        }
    }
    return CsrGraph(kHubs + kDsts, edges);
}

std::vector<MultiLayerBatch>
microBatchesFor(const CsrGraph& graph, int32_t k)
{
    std::vector<int64_t> seeds;
    for (int64_t v = graph.numNodes() / 3;
         v < graph.numNodes() && int64_t(seeds.size()) < 384; ++v)
        seeds.push_back(v);
    NeighborSampler sampler(graph, {4, 6}, 7);
    const auto full = sampler.sample(seeds);
    BettyPartitioner partitioner;
    return extractMicroBatches(full, partitioner.partition(full, k));
}

/** The sharder's documented cost: feature + structure bytes. */
int64_t
shardCost(const MultiLayerBatch& batch, int64_t feature_dim)
{
    return int64_t(batch.inputNodes().size()) * feature_dim *
               int64_t(sizeof(float)) +
           batch.structureBytes();
}

constexpr int64_t kDim = 16;

class ShardVertexCut : public ::testing::TestWithParam<const char*>
{
  protected:
    CsrGraph
    makeGraph() const
    {
        return std::string(GetParam()) == "power_law"
                   ? powerLawGraph()
                   : bipartiteHeavyGraph();
    }
};

TEST_P(ShardVertexCut, EveryActiveBatchAssignedExactlyOnce)
{
    const auto micros = microBatchesFor(makeGraph(), 8);
    ASSERT_GT(micros.size(), 1u);
    for (const int32_t devices : {1, 2, 4, 8}) {
        const ShardPlan plan =
            shardVertexCut(micros, devices, kDim);
        ASSERT_EQ(plan.assignment.size(), micros.size());
        for (size_t i = 0; i < micros.size(); ++i) {
            if (micros[i].outputNodes().empty()) {
                EXPECT_EQ(plan.assignment[i], -1);
            } else {
                EXPECT_GE(plan.assignment[i], 0);
                EXPECT_LT(plan.assignment[i], devices);
            }
        }
    }
}

TEST_P(ShardVertexCut, LoadWithinBalanceBound)
{
    const auto micros = microBatchesFor(makeGraph(), 8);
    int64_t total = 0;
    int64_t max_single = 0;
    for (const auto& batch : micros) {
        if (batch.outputNodes().empty())
            continue;
        const int64_t cost = shardCost(batch, kDim);
        total += cost;
        max_single = std::max(max_single, cost);
    }
    for (const int32_t devices : {2, 4, 8}) {
        const double slack = 1.2;
        const ShardPlan plan =
            shardVertexCut(micros, devices, kDim, slack);
        ASSERT_EQ(int32_t(plan.deviceCostBytes.size()), devices);
        int64_t recomputed_total = 0;
        for (size_t i = 0; i < micros.size(); ++i)
            if (plan.assignment[i] >= 0)
                recomputed_total += shardCost(micros[i], kDim);
        EXPECT_EQ(recomputed_total, total);
        const double per_device = double(total) / double(devices);
        const double bound = std::max(
            slack * per_device, per_device + double(max_single));
        for (const int64_t load : plan.deviceCostBytes)
            EXPECT_LE(double(load), bound + 1.0)
                << "devices=" << devices;
    }
}

TEST_P(ShardVertexCut, DuplicationNoWorseThanRoundRobin)
{
    const auto micros = microBatchesFor(makeGraph(), 8);
    for (const int32_t devices : {2, 4, 8}) {
        const ShardPlan plan =
            shardVertexCut(micros, devices, kDim);
        const double round_robin = shardDuplicationFactor(
            micros, roundRobinAssignment(micros, devices));
        EXPECT_GE(plan.duplicationFactor, 1.0);
        EXPECT_LE(plan.duplicationFactor, double(devices));
        EXPECT_LE(plan.duplicationFactor, round_robin + 1e-12)
            << "devices=" << devices;
    }
}

TEST_P(ShardVertexCut, ReportedFactorMatchesDefinition)
{
    const auto micros = microBatchesFor(makeGraph(), 8);
    const ShardPlan plan = shardVertexCut(micros, 4, kDim);
    ASSERT_GT(plan.globalUniqueInputs, 0);
    int64_t replicated = 0;
    for (const int64_t unique : plan.deviceUniqueInputs)
        replicated += unique;
    EXPECT_DOUBLE_EQ(plan.duplicationFactor,
                     double(replicated) /
                         double(plan.globalUniqueInputs));
    EXPECT_DOUBLE_EQ(plan.duplicationFactor,
                     shardDuplicationFactor(micros, plan.assignment));
}

TEST_P(ShardVertexCut, DeterministicAcrossThreadCounts)
{
    const auto micros = microBatchesFor(makeGraph(), 8);
    ThreadPool::setGlobalThreads(1);
    const ShardPlan serial = shardVertexCut(micros, 4, kDim);
    ThreadPool::setGlobalThreads(8);
    const ShardPlan threaded = shardVertexCut(micros, 4, kDim);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(serial.assignment, threaded.assignment);
    EXPECT_EQ(serial.deviceCostBytes, threaded.deviceCostBytes);
    EXPECT_EQ(serial.deviceUniqueInputs, threaded.deviceUniqueInputs);
    EXPECT_EQ(serial.globalUniqueInputs, threaded.globalUniqueInputs);
}

INSTANTIATE_TEST_SUITE_P(Graphs, ShardVertexCut,
                         ::testing::Values("power_law",
                                           "bipartite_heavy"));

// -------------------------------------------------------------------
// Engine behaviour.

struct Env
{
    Env()
        : dataset(loadCatalogDataset("arxiv_like", 0.1, 77)),
          sampler(dataset.graph, {5, 8}, 78)
    {
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 200);
        full = sampler.sample(seeds);
        BettyPartitioner part;
        micros = extractMicroBatches(full, part.partition(full, 8));
    }

    SageConfig
    config() const
    {
        SageConfig cfg;
        cfg.inputDim = dataset.featureDim();
        cfg.hiddenDim = 16;
        cfg.numClasses = dataset.numClasses;
        cfg.numLayers = 2;
        cfg.seed = 9;
        return cfg;
    }

    Dataset dataset;
    NeighborSampler sampler;
    MultiLayerBatch full;
    std::vector<MultiLayerBatch> micros;
};

TEST(MultiDevice, BitIdenticalToSingleDeviceTrainer)
{
    Env env;
    // Single-device reference.
    GraphSage single_model(env.config());
    Adam single_adam(single_model.parameters(), 0.01f);
    Trainer single(env.dataset, single_model, single_adam);
    const auto single_stats = single.trainMicroBatches(env.micros);

    // Two simulated devices, same init: the engine computes through
    // the same numeric path, so equality is exact, not approximate.
    GraphSage multi_model(env.config());
    Adam multi_adam(multi_model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 2;
    MultiDeviceEngine multi(env.dataset, multi_model, multi_adam,
                            config);
    const auto multi_stats = multi.trainMicroBatches(env.micros);

    EXPECT_EQ(multi_stats.loss, single_stats.loss);
    EXPECT_EQ(multi_stats.accuracy, single_stats.accuracy);

    const auto& pa = single_model.parameters();
    const auto& pb = multi_model.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        for (int64_t j = 0; j < pa[i]->value.numel(); ++j)
            ASSERT_EQ(pa[i]->value.data()[j],
                      pb[i]->value.data()[j])
                << "param " << i << " element " << j;
}

TEST(MultiDevice, EveryDeviceGetsWork)
{
    Env env;
    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 4;
    MultiDeviceEngine engine(env.dataset, model, adam, config);
    const auto stats = engine.trainMicroBatches(env.micros);
    ASSERT_EQ(stats.batchesPerDevice.size(), 4u);
    int32_t executed = 0;
    for (int32_t count : stats.batchesPerDevice) {
        EXPECT_GT(count, 0);
        executed += count;
    }
    int32_t active = 0;
    for (const auto& batch : env.micros)
        if (!batch.outputNodes().empty())
            ++active;
    EXPECT_EQ(executed, active); // exactly-once execution
    EXPECT_EQ(engine.liveDevices(), 4);
}

TEST(MultiDevice, PerDevicePeakBelowSingleDevice)
{
    Env env;
    // Single device holding all 8 micro-batches sequentially peaks at
    // the largest micro-batch; with 4 devices each holds ~2 and the
    // max per-device peak must not exceed the single-device peak.
    DeviceMemoryModel reference;
    int64_t single_peak;
    {
        DeviceMemoryModel::Scope scope(reference);
        GraphSage model(env.config());
        Adam adam(model.parameters(), 0.01f);
        Trainer trainer(env.dataset, model, adam, &reference);
        single_peak = trainer.trainMicroBatches(env.micros).peakBytes;
    }

    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 4;
    MultiDeviceEngine engine(env.dataset, model, adam, config);
    const auto stats = engine.trainMicroBatches(env.micros);
    EXPECT_LE(stats.maxDevicePeakBytes, single_peak);
    EXPECT_GT(stats.maxDevicePeakBytes, 0);
}

TEST(MultiDevice, AllreduceChargedByTheRingFormula)
{
    Env env;
    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 4;
    config.interconnect.name = "custom";
    config.interconnect.bandwidth = 1e6; // deliberately slow link
    config.interconnect.latencySeconds = 0.0;
    MultiDeviceEngine engine(env.dataset, model, adam, config);
    const auto stats = engine.trainMicroBatches(env.micros);
    // allreduceSeconds = ring cost + optimizer-step wall time, so it
    // must be at least the analytic ring term.
    int64_t grad_bytes = 0;
    for (const auto& param : model.parameters())
        grad_bytes += param->value.bytes();
    const double ring =
        engine.interconnect().allReduceSeconds(grad_bytes, 4);
    EXPECT_GT(ring, 0.0);
    EXPECT_GE(stats.allreduceSeconds, ring);
    EXPECT_EQ(engine.interconnect().collectives(), 1);
    EXPECT_GT(engine.interconnect().bytesMoved(), 0);
}

TEST(MultiDevice, OomDetectedPerDevice)
{
    Env env;
    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 2;
    config.deviceCapacityBytes = 1024;
    MultiDeviceEngine engine(env.dataset, model, adam, config);
    const auto stats = engine.trainMicroBatches(env.micros);
    EXPECT_TRUE(stats.oom);
}

TEST(MultiDevice, TrainsToLowerLoss)
{
    Env env;
    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 3;
    MultiDeviceEngine engine(env.dataset, model, adam, config);
    const double first = engine.trainMicroBatches(env.micros).loss;
    double last = first;
    for (int epoch = 0; epoch < 8; ++epoch)
        last = engine.trainMicroBatches(env.micros).loss;
    EXPECT_LT(last, first);
}

TEST(MultiDevice, EpochScopedDeviceDropReshardsAndFinishes)
{
    Env env;
    fault::FaultPlan plan;
    ASSERT_TRUE(
        fault::FaultPlan::parse("device-drop@epoch2", plan, nullptr));
    fault::Injector::install(plan);

    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 4;
    MultiDeviceEngine engine(env.dataset, model, adam, config);

    const auto first = engine.trainEpoch(env.micros, 1);
    EXPECT_EQ(first.liveDevices, 4);
    EXPECT_EQ(first.deviceDrops, 0);

    // The drop fires before sharding, so the victim (highest-indexed
    // live device) executes nothing and every batch still runs.
    const auto second = engine.trainEpoch(env.micros, 2);
    EXPECT_EQ(second.liveDevices, 3);
    EXPECT_EQ(second.deviceDrops, 1);
    EXPECT_EQ(engine.liveDevices(), 3);
    ASSERT_EQ(second.batchesPerDevice.size(), 4u);
    EXPECT_EQ(second.batchesPerDevice[3], 0);
    int32_t executed = 0;
    for (int32_t count : second.batchesPerDevice)
        executed += count;
    int32_t active = 0;
    for (const auto& batch : env.micros)
        if (!batch.outputNodes().empty())
            ++active;
    EXPECT_EQ(executed, active);
    fault::Injector::clear();
}

TEST(MultiDevice, NeverDropsTheLastLiveDevice)
{
    Env env;
    fault::FaultPlan plan;
    ASSERT_TRUE(
        fault::FaultPlan::parse("device-drop@epoch1", plan, nullptr));
    fault::Injector::install(plan);

    GraphSage model(env.config());
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 1;
    MultiDeviceEngine engine(env.dataset, model, adam, config);
    const auto stats = engine.trainEpoch(env.micros, 1);
    EXPECT_EQ(stats.liveDevices, 1);
    EXPECT_EQ(stats.deviceDrops, 0);
    EXPECT_GT(stats.loss, 0.0);
    fault::Injector::clear();
}

} // namespace
} // namespace betty
