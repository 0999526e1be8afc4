/**
 * @file
 * Arena allocator tests (kernels/arena.h): alignment, high-water
 * chunk reuse across reset(), the live-handle escape panic, ASan
 * poisoning of reclaimed regions, thread-locality of the scope stack
 * on pool lanes (TSan tier), and the end-to-end O(1)-heap-allocation
 * guarantee for steady-state micro-batch training.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "data/catalog.h"
#include "kernels/arena.h"
#include "obs/metrics.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/tensor.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__)
#define BETTY_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BETTY_TEST_ASAN 1
#endif
#endif

#ifdef BETTY_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace betty::kernels {
namespace {

TEST(Arena, AllocationsRespectRequestedAlignment)
{
    Arena arena;
    for (int64_t align : {int64_t(1), int64_t(8), int64_t(16),
                          int64_t(32), int64_t(64)}) {
        for (int64_t bytes : {int64_t(1), int64_t(3), int64_t(17),
                              int64_t(256)}) {
            void* p = arena.allocate(bytes, align);
            ASSERT_NE(p, nullptr);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                          std::uintptr_t(align),
                      0u)
                << "bytes=" << bytes << " align=" << align;
        }
    }
    // Default alignment is the full cache line.
    void* p = arena.allocate(5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kArenaAlign, 0u);
}

TEST(Arena, ZeroByteAllocationsAreValidAndDistinct)
{
    Arena arena;
    void* a = arena.allocate(0);
    void* b = arena.allocate(0);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
}

TEST(Arena, ResetReusesChunksAtHighWater)
{
    Arena arena(int64_t(4) << 10); // 4 KiB granularity
    // Grow past several chunks.
    std::vector<void*> first;
    for (int i = 0; i < 32; ++i)
        first.push_back(arena.allocate(1024));
    const int64_t grown_chunks = arena.chunkAllocs();
    const int64_t reserved = arena.reservedBytes();
    const int64_t high_water = arena.highWaterBytes();
    EXPECT_GT(grown_chunks, 1);
    EXPECT_EQ(high_water, arena.inUseBytes());

    // The first reset merges the chunks into one of their total size.
    arena.reset();
    EXPECT_EQ(arena.inUseBytes(), 0);
    EXPECT_EQ(arena.highWaterBytes(), high_water);
    EXPECT_EQ(arena.reservedBytes(), reserved);
    EXPECT_EQ(arena.chunkAllocs(), grown_chunks + 1);
    EXPECT_EQ(arena.resets(), 1);

    // The same allocation pattern must be served entirely from the
    // retained bytes — that is the high-water reuse contract.
    std::vector<void*> second;
    for (int i = 0; i < 32; ++i)
        second.push_back(arena.allocate(1024));
    EXPECT_EQ(arena.chunkAllocs(), grown_chunks + 1);
    EXPECT_EQ(arena.reservedBytes(), reserved);

    // Deterministic bump: from here on a replay lands on the same
    // addresses.
    arena.reset();
    std::vector<void*> third;
    for (int i = 0; i < 32; ++i)
        third.push_back(arena.allocate(1024));
    EXPECT_EQ(arena.chunkAllocs(), grown_chunks + 1);
    EXPECT_EQ(second, third);
}

TEST(Arena, NoChunkGrowthWithinReservedBytes)
{
    // A request that does not fit the cursor chunk skips its tail, so
    // kept chunks can hold a round's bytes in total and still grow.
    // After a reset, any round whose aligned total fits the reserved
    // bytes allocates no chunk.
    constexpr int64_t kRequest = int64_t(3) << 10;
    Arena arena(int64_t(4) << 10);
    for (const int requests : {3, 4, 2, 4, 3}) {
        const int64_t reserved = arena.reservedBytes();
        const int64_t chunks = arena.chunkAllocs();
        for (int i = 0; i < requests; ++i)
            arena.allocate(kRequest);
        if (requests * kRequest <= reserved) {
            EXPECT_EQ(arena.chunkAllocs(), chunks)
                << requests << " requests within " << reserved
                << " reserved bytes";
        }
        arena.reset();
    }
}

TEST(Arena, OversizeRequestGetsDedicatedChunk)
{
    Arena arena(int64_t(4) << 10);
    const int64_t big = int64_t(1) << 20;
    void* p = arena.allocate(big);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(arena.reservedBytes(), big);
    EXPECT_GE(arena.inUseBytes(), big);
    // Whole-region writability (ASan would trap a short chunk).
    std::memset(p, 0xab, size_t(big));
}

TEST(Arena, CountsAllocationsAndResets)
{
    Arena arena;
    EXPECT_EQ(arena.allocations(), 0);
    arena.allocate(8);
    arena.allocate(8);
    arena.reset();
    arena.allocate(8);
    arena.reset();
    EXPECT_EQ(arena.allocations(), 3);
    EXPECT_EQ(arena.resets(), 2);
}

TEST(Arena, ResetRepublishesReservedBytesAfterMetricsReset)
{
    // A benchmark resets metrics after warm-up, when the arena has
    // usually stopped growing: the next reset() must bring the gauge
    // back instead of leaving it at 0.
    const bool metrics_were_on = obs::Metrics::enabled();
    obs::Metrics::setEnabled(true);
    const obs::Gauge& reserved =
        obs::Metrics::gauge("kernel.arena.reserved_bytes");
    Arena arena(int64_t(4) << 10);
    for (int i = 0; i < 8; ++i)
        arena.allocate(2048);
    ASSERT_GT(arena.reservedBytes(), 0);
    obs::Metrics::reset();
    EXPECT_EQ(reserved.value(), 0);
    arena.reset();
    EXPECT_EQ(reserved.value(), arena.reservedBytes());
    obs::Metrics::setEnabled(metrics_were_on);
}

TEST(Arena, ReleaseAllReturnsChunksToHeap)
{
    Arena arena(int64_t(4) << 10);
    for (int i = 0; i < 16; ++i)
        arena.allocate(2048);
    EXPECT_GT(arena.reservedBytes(), 0);
    arena.releaseAll();
    EXPECT_EQ(arena.reservedBytes(), 0);
    EXPECT_EQ(arena.inUseBytes(), 0);
    // Still usable after a full release.
    void* p = arena.allocate(64);
    EXPECT_NE(p, nullptr);
}

TEST(ArenaDeathTest, ResetWithLiveTensorStoragePanics)
{
    EXPECT_DEATH(
        {
            Arena arena;
            Tensor escaped;
            {
                ArenaScope scope(arena);
                escaped = Tensor::zeros(4, 4);
            }
            // `escaped` still references arena storage: resetting now
            // would turn it into a silent use-after-reset.
            arena.reset();
        },
        "escaped its micro-batch scope");
}

TEST(Arena, LiveHandleCountTracksTensorStorage)
{
    Arena arena;
    {
        ArenaScope scope(arena);
        Tensor a = Tensor::zeros(2, 3);
        EXPECT_EQ(arena.liveHandles(), 1);
        {
            Tensor b = Tensor::zeros(5, 5);
            EXPECT_EQ(arena.liveHandles(), 2);
        }
        EXPECT_EQ(arena.liveHandles(), 1);
    }
    EXPECT_EQ(arena.liveHandles(), 0);
    arena.reset(); // no live handles -> fine
}

TEST(Arena, ReclaimedRegionsArePoisonedUnderAsan)
{
#ifndef BETTY_TEST_ASAN
    GTEST_SKIP() << "AddressSanitizer not enabled in this build";
#else
    Arena arena;
    char* p = static_cast<char*>(arena.allocate(256));
    std::memset(p, 0x5a, 256);
    EXPECT_FALSE(__asan_address_is_poisoned(p));
    arena.reset();
    EXPECT_TRUE(__asan_address_is_poisoned(p));
    EXPECT_TRUE(__asan_address_is_poisoned(p + 255));
    // Re-allocating the region unpoisons exactly the handed-out bytes.
    char* q = static_cast<char*>(arena.allocate(256));
    EXPECT_EQ(p, q);
    EXPECT_FALSE(__asan_address_is_poisoned(q));
    EXPECT_FALSE(__asan_address_is_poisoned(q + 255));
    std::memset(q, 0x6b, 256);
#endif
}

TEST(ArenaScopeTest, ScopeAndSuspendNestPerThread)
{
    EXPECT_EQ(currentArena(), nullptr);
    Arena outer_arena;
    Arena inner_arena;
    {
        ArenaScope outer(outer_arena);
        EXPECT_EQ(currentArena(), &outer_arena);
        {
            ArenaSuspend off;
            EXPECT_EQ(currentArena(), nullptr);
            {
                ArenaScope inner(inner_arena);
                EXPECT_EQ(currentArena(), &inner_arena);
            }
            EXPECT_EQ(currentArena(), nullptr);
        }
        EXPECT_EQ(currentArena(), &outer_arena);
    }
    EXPECT_EQ(currentArena(), nullptr);
}

TEST(ArenaScopeTest, PoolWorkersNeverSeeTheTrainingThreadArena)
{
    Arena main_arena;
    ArenaScope scope(main_arena);
    ThreadPool pool(4);
    const std::thread::id main_id = std::this_thread::get_id();

    // Workers observe no arena while the main thread holds a scope,
    // and distinct arenas on distinct lanes are fully independent
    // (this test is in the TSan concurrency tier).
    std::vector<std::future<bool>> checks;
    for (int i = 0; i < 16; ++i) {
        checks.push_back(pool.submit([main_id] {
            if (std::this_thread::get_id() == main_id)
                return currentArena() != nullptr;
            if (currentArena() != nullptr)
                return false;
            Arena lane_arena;
            ArenaScope lane_scope(lane_arena);
            if (currentArena() != &lane_arena)
                return false;
            for (int j = 0; j < 64; ++j) {
                auto* p = static_cast<char*>(lane_arena.allocate(96));
                std::memset(p, j, 96);
            }
            lane_arena.reset();
            return lane_arena.highWaterBytes() > 0;
        }));
    }
    for (auto& check : checks)
        EXPECT_TRUE(check.get());
    EXPECT_EQ(currentArena(), &main_arena);
}

/**
 * The end-to-end guarantee the arena exists for: once the first
 * micro-batches have grown the chunk list to its high-water mark,
 * a steady-state training epoch performs ZERO tensor heap
 * allocations — every forward/backward temporary is a pointer bump
 * (docs/KERNELS.md "Arena lifecycle").
 */
TEST(ArenaTraining, SteadyStateEpochDoesNoTensorHeapAllocations)
{
    Dataset dataset = loadCatalogDataset("cora_like", 0.15, 11);
    NeighborSampler sampler(dataset.graph, {-1, -1}, 12);
    std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                               dataset.trainNodes.begin() + 100);
    MultiLayerBatch full = sampler.sample(seeds);

    SageConfig cfg;
    cfg.inputDim = dataset.featureDim();
    cfg.hiddenDim = 16;
    cfg.numClasses = dataset.numClasses;
    cfg.numLayers = 2;
    GraphSage model(cfg);
    Adam adam(model.parameters(), 0.01f);
    Trainer trainer(dataset, model, adam);

    // Warm-up: grows the arena to high water and allocates the
    // persistent (heap) parameter gradients on the first backward.
    for (int epoch = 0; epoch < 2; ++epoch)
        trainer.trainMicroBatches({full});

    const int64_t before = tensorHeapAllocCount();
    double loss = 0.0;
    for (int epoch = 0; epoch < 3; ++epoch)
        loss = trainer.trainMicroBatches({full}).loss;
    EXPECT_EQ(tensorHeapAllocCount(), before)
        << "steady-state micro-batch training must not touch the "
           "tensor heap";
    EXPECT_GT(loss, 0.0);
}

} // namespace
} // namespace betty::kernels
