#include "cache/feature_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "util/logging.h"

namespace betty {

namespace {

/** Metric charges for one access() batch (call only when enabled). */
void
chargeAccessMetrics(int64_t hits, int64_t misses, int64_t bytes_saved,
                    int64_t evictions)
{
    static obs::Counter& cache_hits = obs::Metrics::counter("cache.hits");
    static obs::Counter& cache_misses =
        obs::Metrics::counter("cache.misses");
    static obs::Counter& cache_bytes_saved =
        obs::Metrics::counter("cache.bytes_saved");
    static obs::Counter& cache_evictions =
        obs::Metrics::counter("cache.evictions");
    cache_hits.add(hits);
    cache_misses.add(misses);
    cache_bytes_saved.add(bytes_saved);
    cache_evictions.add(evictions);
}

} // namespace

bool
parseCachePolicy(const std::string& name, CachePolicy* out)
{
    if (name == "lru") {
        *out = CachePolicy::Lru;
        return true;
    }
    if (name == "lru-pinned") {
        *out = CachePolicy::LruPinned;
        return true;
    }
    return false;
}

const char*
cachePolicyName(CachePolicy policy)
{
    switch (policy) {
      case CachePolicy::Lru:
        return "lru";
      case CachePolicy::LruPinned:
        return "lru-pinned";
    }
    return "?";
}

FeatureCache::FeatureCache(DeviceMemoryModel* device,
                           int64_t capacity_bytes, int64_t row_bytes,
                           CachePolicy policy)
    : row_bytes_(row_bytes), policy_(policy), device_(device)
{
    BETTY_ASSERT(row_bytes_ > 0, "FeatureCache row_bytes must be > 0");
    reserved_bytes_ = std::max<int64_t>(0, capacity_bytes);
    capacity_rows_ = reserved_bytes_ / row_bytes_;
    if (device_ && reserved_bytes_ > 0)
        device_->onAlloc(reserved_bytes_,
                         obs::MemCategory::FeatureCache);
}

FeatureCache::~FeatureCache()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (device_ && reserved_bytes_ > 0)
        device_->onFree(reserved_bytes_,
                        obs::MemCategory::FeatureCache);
    reserved_bytes_ = 0;
}

FeatureCache::AccessResult
FeatureCache::access(const std::vector<int64_t>& rows)
{
    std::lock_guard<std::mutex> lock(mutex_);
    AccessResult result;
    const int64_t evictions_before = stats_.evictions;
    for (const int64_t row : rows) {
        auto found = resident_.find(row);
        if (found != resident_.end()) {
            ++result.hits;
            if (!found->second.pinned)
                lru_.splice(lru_.begin(), lru_, found->second.it);
            continue;
        }
        ++result.misses;
        if (capacity_rows_ - pinned_rows_ <= 0)
            continue; // no unpinned slots: transfer-through, no insert
        evictDownToLocked(capacity_rows_ - 1);
        lru_.push_front(row);
        resident_.emplace(row, Entry{false, lru_.begin()});
    }
    result.bytesSaved = result.hits * row_bytes_;
    stats_.hits += result.hits;
    stats_.misses += result.misses;
    stats_.bytesSaved += result.bytesSaved;
    if (obs::Metrics::enabled())
        chargeAccessMetrics(result.hits, result.misses,
                            result.bytesSaved, 0);
    // One flight event per access batch, never per row: an eviction
    // wave is a state change worth a timestamp, row churn is not.
    const int64_t evicted = stats_.evictions - evictions_before;
    if (evicted > 0)
        obs::FlightRecorder::record(obs::FrCategory::Cache,
                                    "cache/evict-batch", evicted,
                                    int64_t(resident_.size()));
    return result;
}

int64_t
FeatureCache::pin(const std::vector<int64_t>& rows)
{
    if (policy_ != CachePolicy::LruPinned)
        return 0; // pure LRU keeps the stack-inclusion property
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t inserted = 0;
    for (const int64_t row : rows) {
        if (pinned_rows_ >= capacity_rows_)
            break;
        auto found = resident_.find(row);
        if (found != resident_.end()) {
            if (found->second.pinned)
                continue;
            lru_.erase(found->second.it);
            found->second.pinned = true;
            ++pinned_rows_;
            continue;
        }
        evictDownToLocked(capacity_rows_ - 1);
        resident_.emplace(row, Entry{true, lru_.end()});
        ++pinned_rows_;
        ++inserted;
    }
    return inserted;
}

void
FeatureCache::shrinkTo(int64_t new_capacity_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t target =
        std::clamp<int64_t>(new_capacity_bytes, 0, reserved_bytes_);
    if (target == reserved_bytes_)
        return;
    const int64_t freed = reserved_bytes_ - target;
    reserved_bytes_ = target;
    capacity_rows_ = reserved_bytes_ / row_bytes_;
    // Unpin anything that no longer fits, then evict down to the new
    // row budget (pinned rows survive shrinks as long as they fit).
    if (pinned_rows_ > capacity_rows_) {
        // Deterministic unpin order is not observable (unpinned rows
        // drop to LRU tail immediately below), so just demote until
        // the pinned set fits, in hash-map order, and evict by count.
        for (auto it = resident_.begin();
             it != resident_.end() && pinned_rows_ > capacity_rows_;
             ++it) {
            if (!it->second.pinned)
                continue;
            it->second.pinned = false;
            lru_.push_back(it->first);
            it->second.it = std::prev(lru_.end());
            --pinned_rows_;
        }
    }
    evictDownToLocked(capacity_rows_);
    if (device_ && freed > 0)
        device_->onFree(freed, obs::MemCategory::FeatureCache);
    ++stats_.releases;
    stats_.releasedBytes += freed;
    obs::FlightRecorder::record(obs::FrCategory::Cache,
                                "cache/shrink", freed, target);
    if (obs::Metrics::enabled()) {
        static obs::Counter& releases =
            obs::Metrics::counter("cache.releases");
        static obs::Counter& released_bytes =
            obs::Metrics::counter("cache.released_bytes");
        releases.increment();
        released_bytes.add(freed);
    }
}

void
FeatureCache::setRecordEvictions(bool record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record_evictions_ = record;
}

std::vector<int64_t>
FeatureCache::evictionLog() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return eviction_log_;
}

FeatureCacheStats
FeatureCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

int64_t
FeatureCache::capacityBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reserved_bytes_;
}

int64_t
FeatureCache::capacityRows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_rows_;
}

int64_t
FeatureCache::reservedBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reserved_bytes_;
}

int64_t
FeatureCache::residentRows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return int64_t(resident_.size());
}

int64_t
FeatureCache::pinnedRows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pinned_rows_;
}

void
FeatureCache::evictDownToLocked(int64_t max_rows)
{
    const int64_t max_unpinned =
        std::max<int64_t>(0, max_rows - pinned_rows_);
    int64_t evicted = 0;
    while (int64_t(lru_.size()) > max_unpinned) {
        const int64_t victim = lru_.back();
        lru_.pop_back();
        resident_.erase(victim);
        ++stats_.evictions;
        ++evicted;
        if (record_evictions_)
            eviction_log_.push_back(victim);
    }
    if (evicted > 0 && obs::Metrics::enabled())
        chargeAccessMetrics(0, 0, 0, evicted);
}

} // namespace betty
