/**
 * @file
 * Property/invariant tests for the feature-cache accounting
 * (cache/feature_cache.h). Companion to
 * test_feature_cache_equivalence.cc, which proves the cache changes
 * nothing but bytes moved; this file pins down the accounting itself:
 * hits + misses == rows requested, the reservation never lets
 * live bytes exceed device capacity across capacity-drop faults,
 * eviction order is identical across repeated seeded runs, and an
 * adversarial access sequence (the SpitefulPartitioner of caching: a
 * cyclic working set one row larger than capacity) forces a full
 * eviction every step. Also the TransferModel lifetime-counter audit:
 * savedBytes must survive reset() exactly like failedAttempts.
 */
#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "cache/feature_cache.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "obs/memprof.h"
#include "util/fault.h"
#include "util/rng.h"

namespace betty {
namespace {

constexpr int64_t kRowBytes = 512; // 128 floats, arxiv_like-shaped

/** Seeded access trace: @p accesses batches of @p batch_rows rows
 * drawn from a universe of @p universe distinct row IDs. */
std::vector<std::vector<int64_t>>
makeTrace(uint64_t seed, int64_t universe, int64_t accesses,
          int64_t batch_rows)
{
    Rng rng(seed);
    std::vector<std::vector<int64_t>> trace;
    for (int64_t a = 0; a < accesses; ++a) {
        std::vector<int64_t> rows;
        for (int64_t r = 0; r < batch_rows; ++r)
            rows.push_back(int64_t(rng.uniformInt(uint64_t(universe))));
        trace.push_back(std::move(rows));
    }
    return trace;
}

TEST(FeatureCacheProperty, HitsPlusMissesEqualsRowsRequested)
{
    const auto trace = makeTrace(7, 64, 200, 17);
    for (const CachePolicy policy :
         {CachePolicy::Lru, CachePolicy::LruPinned}) {
        FeatureCache cache(nullptr, 32 * kRowBytes, kRowBytes, policy);
        int64_t requested = 0;
        for (const auto& rows : trace) {
            const auto result = cache.access(rows);
            EXPECT_EQ(result.hits + result.misses,
                      int64_t(rows.size()));
            EXPECT_EQ(result.bytesSaved, result.hits * kRowBytes);
            requested += int64_t(rows.size());
        }
        const FeatureCacheStats stats = cache.stats();
        EXPECT_EQ(stats.hits + stats.misses, requested);
        EXPECT_EQ(stats.bytesSaved, stats.hits * kRowBytes);
    }
}

TEST(FeatureCacheProperty, ReservationChargedAndReturnedOnDestruction)
{
    DeviceMemoryModel device;
    const int64_t capacity_bytes = 10 * kRowBytes + kRowBytes / 2;
    {
        FeatureCache cache(&device, capacity_bytes, kRowBytes);
        // The FULL carve-out is charged, not the row-rounded part.
        EXPECT_EQ(device.liveBytes(obs::MemCategory::FeatureCache),
                  capacity_bytes);
        EXPECT_EQ(device.liveBytes(), capacity_bytes);
        EXPECT_EQ(cache.capacityRows(), 10);
        EXPECT_EQ(cache.reservedBytes(), capacity_bytes);
    }
    EXPECT_EQ(device.liveBytes(obs::MemCategory::FeatureCache), 0);
    EXPECT_EQ(device.liveBytes(), 0);
}

TEST(FeatureCacheProperty, ResidencyNeverExceedsCapacityRows)
{
    const auto trace = makeTrace(13, 256, 300, 23);
    FeatureCache cache(nullptr, 16 * kRowBytes, kRowBytes);
    for (const auto& rows : trace) {
        cache.access(rows);
        EXPECT_LE(cache.residentRows(), cache.capacityRows());
    }
}

TEST(FeatureCacheProperty,
     LiveNeverExceedsCapacityAcrossCapacityDropFaults)
{
    // The robustness contract: when a capacity-drop fault fires, the
    // recovery loop shrinks the reservation BEFORE any training
    // tensor is refused. Replay that protocol over a schedule of
    // drops (parsed through the real fault grammar) and assert the
    // invariant live + reservation <= capacity after every recovery.
    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "capacity-drop=0.6@epoch2;capacity-drop=0.5@epoch4;"
        "capacity-drop=0.5@epoch5",
        plan, &error))
        << error;
    fault::Injector::install(plan);

    DeviceMemoryModel device(64 * kRowBytes);
    FeatureCache cache(&device, 32 * kRowBytes, kRowBytes);
    // Non-cache tensors, small enough that the final capacity (the
    // schedule drops 64 -> 38.4 -> 19.2 -> 9.6 rows) still fits them
    // once the cache gives everything back.
    const int64_t training_live = 8 * kRowBytes;
    device.onAlloc(training_live, obs::MemCategory::Hidden);
    const auto trace = makeTrace(17, 128, 6, 11);

    for (int64_t epoch = 1; epoch <= 6; ++epoch) {
        fault::Injector::beginEpoch(epoch);
        if (const auto drop = fault::Injector::take(
                fault::FaultKind::CapacityDrop))
            device.setCapacity(
                int64_t(double(device.capacity()) * drop->value));
        // Recovery: give back exactly enough reservation for the
        // training working set to fit (release-before-refuse).
        if (device.liveBytes() > device.capacity()) {
            const int64_t headroom =
                device.capacity() - training_live;
            cache.shrinkTo(std::max<int64_t>(0, headroom));
        }
        EXPECT_LE(device.liveBytes(), device.capacity())
            << "epoch " << epoch;
        EXPECT_LE(cache.reservedBytes() + training_live,
                  device.capacity())
            << "epoch " << epoch;
        cache.access(trace[size_t(epoch - 1)]);
        // Accesses never re-grow the reservation.
        EXPECT_LE(device.liveBytes(), device.capacity())
            << "epoch " << epoch;
    }
    // By the final drop the cache must have given back most of its
    // carve-out (9.6 rows of capacity minus 8 rows of tensors leaves
    // under 2 rows of reservation).
    EXPECT_LT(cache.reservedBytes(), 32 * kRowBytes);
    EXPECT_GE(cache.stats().releases, 2);
    EXPECT_EQ(cache.stats().releasedBytes,
              32 * kRowBytes - cache.reservedBytes());
    fault::Injector::clear();
}

TEST(FeatureCacheProperty, EvictionOrderIdenticalAcrossSeededRuns)
{
    const auto trace = makeTrace(29, 96, 400, 19);
    auto run = [&trace]() {
        FeatureCache cache(nullptr, 24 * kRowBytes, kRowBytes);
        cache.setRecordEvictions(true);
        for (const auto& rows : trace)
            cache.access(rows);
        return cache.evictionLog();
    };
    const std::vector<int64_t> first = run();
    const std::vector<int64_t> second = run();
    ASSERT_FALSE(first.empty()); // the trace actually evicts
    EXPECT_EQ(first, second);
}

TEST(FeatureCacheProperty, AdversarialCycleForcesFullEvictionEveryStep)
{
    // The SpitefulPartitioner of caching: a cyclic working set one
    // row larger than capacity is LRU's worst case — after warm-up
    // every access misses and every miss evicts. hits == 0 and
    // evictions == misses - capacity must hold exactly.
    const int64_t capacity_rows = 8;
    FeatureCache cache(nullptr, capacity_rows * kRowBytes, kRowBytes);
    cache.setRecordEvictions(true);
    const int64_t cycle = capacity_rows + 1;
    int64_t accesses = 0;
    for (int64_t step = 0; step < 10 * cycle; ++step, ++accesses)
        cache.access({step % cycle});
    const FeatureCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(stats.misses, accesses);
    EXPECT_EQ(stats.evictions, accesses - capacity_rows);
    // Steady state evicts in strict cycle order too.
    const std::vector<int64_t> log = cache.evictionLog();
    for (size_t i = 1; i < log.size(); ++i)
        EXPECT_EQ(log[i], (log[i - 1] + 1) % cycle);
}

TEST(FeatureCacheProperty, LruMissesMonotoneNonIncreasingInCapacity)
{
    // LRU's stack-inclusion property, the theorem behind the
    // differential tier's "transfer.bytes non-increasing in cache
    // size" assertion. Holds for pure Lru only (pinning breaks
    // inclusion, which is why pin() is a no-op under Lru).
    const auto trace = makeTrace(31, 80, 250, 13);
    int64_t previous_misses = -1;
    for (const int64_t capacity_rows : {0, 4, 16, 40, 80, 200}) {
        FeatureCache cache(nullptr, capacity_rows * kRowBytes,
                           kRowBytes);
        for (const auto& rows : trace)
            cache.access(rows);
        const int64_t misses = cache.stats().misses;
        if (previous_misses >= 0) {
            EXPECT_LE(misses, previous_misses)
                << "capacity " << capacity_rows << " rows";
        }
        previous_misses = misses;
    }
}

TEST(FeatureCacheProperty, ZeroCapacityTransfersThroughWithoutState)
{
    FeatureCache cache(nullptr, 0, kRowBytes);
    const auto result = cache.access({1, 2, 3, 1});
    EXPECT_EQ(result.hits, 0);
    EXPECT_EQ(result.misses, 4);
    EXPECT_EQ(result.bytesSaved, 0);
    EXPECT_EQ(cache.residentRows(), 0);
    EXPECT_EQ(cache.stats().evictions, 0);
    EXPECT_EQ(cache.reservedBytes(), 0);
}

TEST(FeatureCacheProperty, PinnedRowsSurviveAdversarialEviction)
{
    const int64_t capacity_rows = 8;
    FeatureCache cache(nullptr, capacity_rows * kRowBytes, kRowBytes,
                       CachePolicy::LruPinned);
    cache.pin({1000, 1001, 1002});
    EXPECT_EQ(cache.pinnedRows(), 3);
    // Flood with the full-eviction cycle over disjoint row IDs.
    for (int64_t step = 0; step < 100; ++step)
        cache.access({step % (capacity_rows + 1)});
    // Pinned rows are still resident: accessing them hits.
    const auto pinned = cache.access({1000, 1001, 1002});
    EXPECT_EQ(pinned.hits, 3);
    EXPECT_EQ(pinned.misses, 0);
}

TEST(FeatureCacheProperty, PinIsNoOpUnderPureLru)
{
    FeatureCache cache(nullptr, 8 * kRowBytes, kRowBytes,
                       CachePolicy::Lru);
    cache.pin({1, 2, 3});
    EXPECT_EQ(cache.pinnedRows(), 0);
    EXPECT_EQ(cache.residentRows(), 0);
}

TEST(FeatureCacheProperty, PinTruncatesToCapacity)
{
    FeatureCache cache(nullptr, 4 * kRowBytes, kRowBytes,
                       CachePolicy::LruPinned);
    std::vector<int64_t> hot(16);
    std::iota(hot.begin(), hot.end(), 0);
    cache.pin(hot);
    EXPECT_EQ(cache.pinnedRows(), 4);
    // A fully pinned cache has no unpinned slots: new rows transfer
    // through without insertion or eviction.
    cache.access({100, 101});
    EXPECT_EQ(cache.residentRows(), 4);
    EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(FeatureCacheProperty, PinCountsOnlyTheRowsItMadeResident)
{
    // The caller charges pin()'s count to the link, so rows that were
    // already resident — already charged as misses — must not count.
    FeatureCache cache(nullptr, 8 * kRowBytes, kRowBytes,
                       CachePolicy::LruPinned);
    cache.access({1, 2});
    EXPECT_EQ(cache.pin({1, 2, 3, 4}), 2);
    EXPECT_EQ(cache.pin({3, 5}), 1);
    EXPECT_EQ(cache.pinnedRows(), 5);
    FeatureCache lru(nullptr, 8 * kRowBytes, kRowBytes);
    EXPECT_EQ(lru.pin({1, 2}), 0);
}

TEST(FeatureCacheProperty, ShrinkToReturnsBytesAndCountsRelease)
{
    DeviceMemoryModel device;
    FeatureCache cache(&device, 16 * kRowBytes, kRowBytes);
    for (int64_t row = 0; row < 16; ++row)
        cache.access({row});
    ASSERT_EQ(cache.residentRows(), 16);

    cache.shrinkTo(4 * kRowBytes);
    EXPECT_EQ(cache.reservedBytes(), 4 * kRowBytes);
    EXPECT_EQ(device.liveBytes(obs::MemCategory::FeatureCache),
              4 * kRowBytes);
    EXPECT_EQ(cache.residentRows(), 4);
    EXPECT_EQ(cache.stats().releases, 1);
    EXPECT_EQ(cache.stats().releasedBytes, 12 * kRowBytes);

    // The survivors are the four most-recently-used rows.
    const auto survivors = cache.access({12, 13, 14, 15});
    EXPECT_EQ(survivors.hits, 4);

    // Growing back is not supported (a carve-out only shrinks):
    // clamped to the current reservation, no release counted.
    cache.shrinkTo(32 * kRowBytes);
    EXPECT_EQ(cache.reservedBytes(), 4 * kRowBytes);
    EXPECT_EQ(cache.stats().releases, 1);

    cache.releaseAll();
    EXPECT_EQ(cache.reservedBytes(), 0);
    EXPECT_EQ(cache.residentRows(), 0);
    EXPECT_EQ(device.liveBytes(obs::MemCategory::FeatureCache), 0);
    EXPECT_EQ(cache.stats().releases, 2);
    EXPECT_EQ(cache.stats().releasedBytes, 16 * kRowBytes);
}

TEST(FeatureCacheProperty, PolicyNamesRoundTrip)
{
    CachePolicy policy;
    ASSERT_TRUE(parseCachePolicy("lru", &policy));
    EXPECT_EQ(policy, CachePolicy::Lru);
    EXPECT_STREQ(cachePolicyName(policy), "lru");
    ASSERT_TRUE(parseCachePolicy("lru-pinned", &policy));
    EXPECT_EQ(policy, CachePolicy::LruPinned);
    EXPECT_STREQ(cachePolicyName(policy), "lru-pinned");
    EXPECT_FALSE(parseCachePolicy("fifo", &policy));
    EXPECT_FALSE(parseCachePolicy("", &policy));
}

TEST(TransferModelAudit, SavedBytesSurvivesResetLikeFailedAttempts)
{
    // Regression test for the lifetime-counter audit: reset() re-arms
    // the per-episode accumulators (seconds, bytes, transfer count)
    // but must NOT clear the lifetime counters, or run-report deltas
    // computed across epochs would be skewed.
    TransferModel transfer;
    transfer.transfer(1000);
    transfer.chargeFailedAttempt();
    transfer.noteSavedBytes(4096);
    ASSERT_GT(transfer.seconds(), 0.0);
    ASSERT_EQ(transfer.totalBytes(), 1000);
    ASSERT_EQ(transfer.savedBytes(), 4096);

    transfer.reset();
    EXPECT_EQ(transfer.seconds(), 0.0);
    EXPECT_EQ(transfer.totalBytes(), 0);
    EXPECT_EQ(transfer.numTransfers(), 0);
    // Lifetime counters survive.
    EXPECT_EQ(transfer.failedAttempts(), 1);
    EXPECT_EQ(transfer.savedBytes(), 4096);

    transfer.noteSavedBytes(100);
    EXPECT_EQ(transfer.savedBytes(), 4196);
}

} // namespace
} // namespace betty
