/**
 * @file
 * Integration tests for the Trainer: learning actually happens, stats
 * are populated, device/transfer accounting works, mini-batch loops.
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "cache/feature_cache.h"
#include "data/catalog.h"
#include "sampling/neighbor_sampler.h"
#include "train/trainer.h"

namespace betty {
namespace {

struct Env
{
    Env()
        : dataset(loadCatalogDataset("cora_like", 0.15, 11)),
          sampler(dataset.graph, {-1, -1}, 12)
    {
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 120);
        full = sampler.sample(seeds);
    }

    SageConfig
    sageConfig(AggregatorKind agg = AggregatorKind::Mean) const
    {
        SageConfig cfg;
        cfg.inputDim = dataset.featureDim();
        cfg.hiddenDim = 16;
        cfg.numClasses = dataset.numClasses;
        cfg.numLayers = 2;
        cfg.aggregator = agg;
        return cfg;
    }

    Dataset dataset;
    NeighborSampler sampler;
    MultiLayerBatch full;
};

TEST(Trainer, LossDecreasesOverEpochs)
{
    Env env;
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam);

    const double first =
        trainer.trainMicroBatches({env.full}).loss;
    double last = first;
    for (int epoch = 0; epoch < 14; ++epoch)
        last = trainer.trainMicroBatches({env.full}).loss;
    EXPECT_LT(last, 0.6 * first);
}

TEST(Trainer, AccuracyBeatsChance)
{
    Env env;
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam);
    EpochStats stats;
    for (int epoch = 0; epoch < 20; ++epoch)
        stats = trainer.trainMicroBatches({env.full});
    EXPECT_GT(stats.accuracy,
              2.0 / double(env.dataset.numClasses));
}

TEST(Trainer, StatsPopulated)
{
    Env env;
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    TransferModel transfer;
    Trainer trainer(env.dataset, model, adam, nullptr, &transfer);
    const auto stats = trainer.trainMicroBatches({env.full});
    EXPECT_GT(stats.loss, 0.0);
    EXPECT_GT(stats.computeSeconds, 0.0);
    EXPECT_GT(stats.transferSeconds, 0.0);
    EXPECT_EQ(stats.inputNodesProcessed,
              int64_t(env.full.inputNodes().size()));
    EXPECT_GT(stats.totalNodesProcessed, stats.inputNodesProcessed);
}

TEST(Trainer, DevicePeakTracked)
{
    Env env;
    DeviceMemoryModel device; // unlimited, tracking only
    DeviceMemoryModel::Scope scope(device);
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam, &device);
    const auto stats = trainer.trainMicroBatches({env.full});
    EXPECT_GT(stats.peakBytes, 0);
    EXPECT_FALSE(stats.oom);
    // Peak must at least cover parameters + optimizer states + input
    // features of the batch.
    const int64_t floor_bytes =
        model.parameterCount() * 4 * 3 +
        int64_t(env.full.inputNodes().size()) *
            env.dataset.featureDim() * 4;
    EXPECT_GE(stats.peakBytes, floor_bytes);
}

TEST(Trainer, TinyCapacityTriggersOom)
{
    Env env;
    DeviceMemoryModel device(1024); // 1 KiB: everything overflows
    DeviceMemoryModel::Scope scope(device);
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam, &device);
    const auto stats = trainer.trainMicroBatches({env.full});
    EXPECT_TRUE(stats.oom);
}

TEST(Trainer, MicroBatchPeakLowerThanFullBatch)
{
    // The headline effect: partitioning the batch reduces peak memory.
    Env env;
    DeviceMemoryModel device;
    DeviceMemoryModel::Scope scope(device);
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam, &device);

    const auto full_stats = trainer.trainMicroBatches({env.full});

    // Split outputs in half by position.
    const auto outputs = env.full.outputNodes();
    std::vector<int64_t> a(outputs.begin(),
                           outputs.begin() + outputs.size() / 2);
    std::vector<int64_t> b(outputs.begin() + outputs.size() / 2,
                           outputs.end());
    // Build micro-batches by re-walking the full batch.
    NeighborSampler resampler(env.dataset.graph, {-1, -1}, 12);
    const auto micro_stats = trainer.trainMicroBatches(
        {resampler.sample(a), resampler.sample(b)});

    EXPECT_LT(micro_stats.peakBytes, full_stats.peakBytes);
}

TEST(Trainer, MiniBatchModeSteps)
{
    Env env;
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam);

    const auto outputs = env.full.outputNodes();
    std::vector<int64_t> a(outputs.begin(), outputs.begin() + 60);
    std::vector<int64_t> b(outputs.begin() + 60, outputs.end());
    NeighborSampler resampler(env.dataset.graph, {-1, -1}, 13);
    std::vector<MultiLayerBatch> minis = {resampler.sample(a),
                                          resampler.sample(b)};
    // One optimizer step per mini-batch; the epoch loss is the
    // output-weighted mean of the batch losses.
    auto epoch_loss = [&] {
        double loss = 0.0;
        int64_t outputs = 0;
        for (const auto& mini : minis) {
            const int64_t n = int64_t(mini.outputNodes().size());
            loss += trainer.trainMicroBatches({mini}).loss * double(n);
            outputs += n;
        }
        return loss / double(outputs);
    };
    double first = epoch_loss();
    double last = first;
    for (int epoch = 0; epoch < 10; ++epoch)
        last = epoch_loss();
    EXPECT_LT(last, first);
}

TEST(Trainer, EvaluateReturnsFraction)
{
    Env env;
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam);
    const double acc = trainer.evaluate(env.full);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(Trainer, EvaluateChargesNeitherLinkNorCache)
{
    Env env;
    const size_t num_test =
        std::min<size_t>(60, env.dataset.testNodes.size());
    ASSERT_GT(num_test, 0u);
    const MultiLayerBatch test_batch = env.sampler.sample(
        std::vector<int64_t>(env.dataset.testNodes.begin(),
                             env.dataset.testNodes.begin() +
                                 int64_t(num_test)));
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);

    // An evaluation between two identical steps shows in neither
    // step's transfer seconds.
    TransferModel transfer;
    Trainer trainer(env.dataset, model, adam, nullptr, &transfer);
    const double first =
        trainer.trainMicroBatches({env.full}).transferSeconds;
    EXPECT_GT(first, 0.0);
    trainer.evaluate(test_batch);
    EXPECT_EQ(trainer.trainMicroBatches({env.full}).transferSeconds,
              first);

    // Nor does it look rows up in the feature cache.
    DeviceMemoryModel device;
    FeatureCache cache(&device, 64 * env.dataset.featureDim() *
                                    int64_t(sizeof(float)),
                       env.dataset.featureDim() * int64_t(sizeof(float)));
    trainer.setFeatureCache(&cache);
    trainer.trainMicroBatches({env.full});
    const FeatureCacheStats before = cache.stats();
    trainer.evaluate(test_batch);
    const FeatureCacheStats after = cache.stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.evictions, before.evictions);
    EXPECT_EQ(after.bytesSaved, before.bytesSaved);
}

TEST(Trainer, GatTrains)
{
    Env env;
    GatConfig cfg;
    cfg.inputDim = env.dataset.featureDim();
    cfg.hiddenDim = 8;
    cfg.numClasses = env.dataset.numClasses;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    Gat model(cfg);
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam);
    const double first = trainer.trainMicroBatches({env.full}).loss;
    double last = first;
    for (int epoch = 0; epoch < 10; ++epoch)
        last = trainer.trainMicroBatches({env.full}).loss;
    EXPECT_LT(last, first);
}

TEST(Trainer, SkipsEmptyMicroBatches)
{
    Env env;
    GraphSage model(env.sageConfig());
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(env.dataset, model, adam);
    MultiLayerBatch empty;
    empty.blocks.resize(2); // zero outputs
    const auto stats = trainer.trainMicroBatches({env.full, empty});
    EXPECT_GT(stats.loss, 0.0);
}

} // namespace
} // namespace betty
