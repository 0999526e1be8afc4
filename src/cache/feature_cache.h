/**
 * @file
 * Device-resident redundancy-aware feature cache.
 *
 * Betty's REG partitioning minimizes input-node duplication across
 * micro-batches (§4.3) but cannot eliminate it: every duplicated node
 * is re-gathered and re-transferred each micro-batch, and hot
 * high-degree nodes are re-transferred every epoch. The trainer's
 * transfer charge consults this cache before the TransferModel; it tracks
 * WHICH input rows are already resident on the device, so a
 * micro-batch only pays transfer cost for the rows it actually misses.
 *
 * Design invariants (enforced by tests/test_feature_cache*.cc):
 *
 *  - Pure data-movement optimization. The cache stores node-ID
 *    residency, never feature values: the gather still reads the host
 *    dataset for every row, so cached and uncached runs are
 *    bit-identical in losses and parameters — only
 *    transfer.{bytes,seconds} change.
 *
 *  - Reservation accounting. The full capacity is charged into the
 *    DeviceMemoryModel under MemCategory::FeatureCache at
 *    construction (a carve-out, like a CUDA memory pool), so the
 *    memory-aware planner and the OOM arbiter see it when deciding
 *    whether K micro-batches fit. shrinkTo()/releaseAll() give the
 *    bytes back mid-run when the resilient trainer needs them.
 *
 *  - Deterministic eviction. All accesses are serialized under one
 *    mutex, and the trainer consults the cache on the training thread
 *    in micro-batch order (its prefetch lane only gathers rows), so the
 *    access sequence — and therefore the eviction order — is identical
 *    across thread counts.
 *
 * Two policies: pure LRU (which has the stack-inclusion property, so
 * misses are monotone non-increasing in capacity) and LRU with a
 * pinned hot set of high-degree nodes that are never evicted.
 */
#ifndef BETTY_CACHE_FEATURE_CACHE_H
#define BETTY_CACHE_FEATURE_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "memory/device_memory.h"
#include "obs/memprof.h"

namespace betty {

/** Replacement policy for FeatureCache. */
enum class CachePolicy : uint8_t {
    Lru = 0,       ///< pure LRU (stack property: misses monotone in size)
    LruPinned = 1, ///< LRU + pinned hot set (pinned rows never evicted)
};

/** Parse "lru" / "lru-pinned"; returns false on unknown names. */
bool parseCachePolicy(const std::string& name, CachePolicy* out);

/** Policy name as used by --cache-policy and the run report. */
const char* cachePolicyName(CachePolicy policy);

/** Lifetime counters of one FeatureCache. */
struct FeatureCacheStats
{
    int64_t hits = 0;          ///< rows found resident
    int64_t misses = 0;        ///< rows that had to be transferred
    int64_t evictions = 0;     ///< rows displaced to make room
    int64_t bytesSaved = 0;    ///< hits * rowBytes
    int64_t releases = 0;      ///< shrinkTo()/releaseAll() calls that freed
    int64_t releasedBytes = 0; ///< reservation bytes given back
};

/**
 * Device-resident feature-row cache (residency set + LRU metadata).
 *
 * Thread-safe: every public method takes an internal mutex, so the
 * pipelined prefetch lane and the compute lane can consult it
 * concurrently without races. Determinism across thread counts is the
 * CALLER's obligation (the trainer keeps gathers totally ordered).
 */
class FeatureCache
{
  public:
    /**
     * @param device Device model to charge the reservation into (may
     *   be nullptr: accounting-only cache, e.g. in benches).
     * @param capacity_bytes Carved-out reservation; rounded DOWN to a
     *   whole number of rows for residency purposes, but the full
     *   amount is charged (a real pool reserves what it asked for).
     * @param row_bytes Bytes per cached feature row
     *   (featureDim * sizeof(float)).
     * @param policy Replacement policy.
     */
    FeatureCache(DeviceMemoryModel* device, int64_t capacity_bytes,
                 int64_t row_bytes, CachePolicy policy = CachePolicy::Lru);

    /** Releases any remaining reservation back to the device. */
    ~FeatureCache();

    FeatureCache(const FeatureCache&) = delete;
    FeatureCache& operator=(const FeatureCache&) = delete;

    /** Result of one access() batch. hits + misses == rows.size(). */
    struct AccessResult
    {
        int64_t hits = 0;
        int64_t misses = 0;
        int64_t bytesSaved = 0; ///< hits * rowBytes()
    };

    /**
     * Look up @p rows in order; each row is a hit (already resident,
     * refreshed to most-recently-used) or a miss (inserted, evicting
     * least-recently-used unpinned rows as needed). A capacity of
     * zero rows makes everything miss without inserting. The caller
     * transfers only the missed rows' bytes.
     */
    AccessResult access(const std::vector<int64_t>& rows);

    /**
     * Pin @p rows (most-valuable-first) as permanently resident,
     * truncated to capacity. Only meaningful under LruPinned; under
     * pure Lru this is a no-op so the stack property stays intact.
     * Pinned rows reduce the row slots available to the LRU side.
     * Returns the rows this call made resident: they were not on the
     * device, so the caller charges rowBytes() each to the link.
     */
    int64_t pin(const std::vector<int64_t>& rows);

    /**
     * Shrink the reservation to @p new_capacity_bytes (clamped to
     * [0, current]), evicting resident rows until they fit and
     * returning the difference to the device. Counts one release.
     * Used by the resilient trainer when a re-plan no longer fits.
     */
    void shrinkTo(int64_t new_capacity_bytes);

    /** shrinkTo(0): give the whole reservation back. */
    void releaseAll() { shrinkTo(0); }

    /** Record every evicted row ID into evictionLog() (off by
     * default; the determinism tests turn it on). */
    void setRecordEvictions(bool record);

    /** Evicted row IDs in eviction order (needs setRecordEvictions). */
    std::vector<int64_t> evictionLog() const;

    FeatureCacheStats stats() const;

    int64_t rowBytes() const { return row_bytes_; }
    int64_t capacityBytes() const;
    int64_t capacityRows() const;
    /** Reservation currently charged into the device model. */
    int64_t reservedBytes() const;
    int64_t residentRows() const;
    int64_t pinnedRows() const;
    CachePolicy policy() const { return policy_; }

  private:
    /** Evict LRU rows until at most @p max_rows are resident
     * (mutex held by caller). */
    void evictDownToLocked(int64_t max_rows);

    const int64_t row_bytes_;
    const CachePolicy policy_;
    DeviceMemoryModel* device_;

    mutable std::mutex mutex_;
    int64_t reserved_bytes_ = 0; ///< currently charged into device_
    int64_t capacity_rows_ = 0;

    /** LRU order, front = most recent. Pinned rows are NOT listed. */
    std::list<int64_t> lru_;
    struct Entry
    {
        bool pinned = false;
        std::list<int64_t>::iterator it; ///< valid iff !pinned
    };
    std::unordered_map<int64_t, Entry> resident_;
    int64_t pinned_rows_ = 0;

    FeatureCacheStats stats_;
    bool record_evictions_ = false;
    std::vector<int64_t> eviction_log_;
};

} // namespace betty

#endif // BETTY_CACHE_FEATURE_CACHE_H
