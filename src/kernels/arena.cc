#include "kernels/arena.h"

#include <algorithm>
#include <new>

#include "obs/metrics.h"
#include "util/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#define BETTY_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BETTY_ARENA_ASAN 1
#endif
#endif

#ifdef BETTY_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace betty::kernels {

namespace {

/** Poison/unpoison are no-ops outside ASan builds. */
inline void
poisonRegion(void* ptr, int64_t bytes)
{
#ifdef BETTY_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(ptr, size_t(bytes));
#else
    (void)ptr;
    (void)bytes;
#endif
}

inline void
unpoisonRegion(void* ptr, int64_t bytes)
{
#ifdef BETTY_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(ptr, size_t(bytes));
#else
    (void)ptr;
    (void)bytes;
#endif
}

thread_local Arena* t_current_arena = nullptr;

} // namespace

Arena::Arena(int64_t chunk_bytes) : chunk_bytes_(chunk_bytes)
{
    BETTY_ASSERT(chunk_bytes_ >= 4096,
                 "arena chunk granularity must be >= 4 KiB, got ",
                 chunk_bytes_);
}

Arena::~Arena()
{
    BETTY_ASSERT(live_handles_ == 0, "arena destroyed with ",
                 live_handles_, " live handle(s) attached");
    freeChunks();
}

std::size_t
Arena::growChunk(int64_t min_bytes)
{
    // Oversize requests get a dedicated chunk; normal growth stays at
    // the configured granularity so reuse across micro-batches settles
    // quickly at the high-water chunk list.
    const int64_t size = std::max(min_bytes, chunk_bytes_);
    Chunk chunk;
    chunk.data = static_cast<char*>(
        ::operator new(size_t(size), std::align_val_t(kArenaAlign)));
    chunk.size = size;
    poisonRegion(chunk.data, chunk.size);
    chunks_.push_back(chunk);
    reserved_bytes_ += size;
    ++chunk_allocs_;
    obs::Metrics::counter("kernel.arena.chunk_allocs").add(1);
    obs::Metrics::gauge("kernel.arena.reserved_bytes")
        .set(reserved_bytes_);
    return chunks_.size() - 1;
}

void*
Arena::allocate(int64_t bytes, int64_t align)
{
    BETTY_ASSERT(bytes >= 0, "arena allocation of ", bytes, " bytes");
    BETTY_ASSERT(align > 0 && (align & (align - 1)) == 0 &&
                 align <= kArenaAlign,
                 "arena alignment must be a power of two <= ",
                 kArenaAlign, ", got ", align);
    // Zero-byte requests still consume one aligned slot so distinct
    // requests return distinct pointers.
    const int64_t want = bytes > 0 ? bytes : align;
    ++allocations_;

    if (chunks_.empty())
        cursor_ = growChunk(want);
    for (;;) {
        Chunk& chunk = chunks_[cursor_];
        const int64_t aligned =
            (chunk.used + (align - 1)) & ~(align - 1);
        if (aligned + want <= chunk.size) {
            char* ptr = chunk.data + aligned;
            const int64_t consumed = (aligned - chunk.used) + want;
            chunk.used = aligned + want;
            in_use_bytes_ += consumed;
            high_water_bytes_ =
                std::max(high_water_bytes_, in_use_bytes_);
            unpoisonRegion(ptr, want);
            return ptr;
        }
        // Advance into the retained chunk list before growing it.
        if (cursor_ + 1 < chunks_.size())
            ++cursor_;
        else
            cursor_ = growChunk(want);
    }
}

void
Arena::reset()
{
    BETTY_ASSERT(live_handles_ == 0, "arena reset with ",
                 live_handles_,
                 " live handle(s) attached — storage escaped its "
                 "micro-batch scope");
    if (chunks_.size() > 1) {
        // A request that did not fit the cursor chunk skipped that
        // chunk's tail, so a replay of the same bytes could grow the
        // list again. One chunk of the total serves any sequence of
        // requests whose aligned total fits the reserved bytes.
        const int64_t total = reserved_bytes_;
        freeChunks();
        growChunk(total);
    } else {
        for (Chunk& chunk : chunks_) {
            poisonRegion(chunk.data, chunk.used);
            chunk.used = 0;
        }
    }
    cursor_ = 0;
    in_use_bytes_ = 0;
    ++resets_;
    obs::Metrics::gauge("kernel.arena.high_water_bytes")
        .max(high_water_bytes_);
    // Re-published here too, not only on growth: an arena that stopped
    // growing before a Metrics::reset() would otherwise read 0.
    obs::Metrics::gauge("kernel.arena.reserved_bytes")
        .set(reserved_bytes_);
    obs::Metrics::counter("kernel.arena.resets").add(1);
}

void
Arena::freeChunks()
{
    for (Chunk& chunk : chunks_) {
        unpoisonRegion(chunk.data, chunk.size);
        ::operator delete(chunk.data, std::align_val_t(kArenaAlign));
    }
    chunks_.clear();
    reserved_bytes_ = 0;
}

void
Arena::releaseAll()
{
    reset();
    freeChunks();
    obs::Metrics::gauge("kernel.arena.reserved_bytes").set(0);
}

Arena*
currentArena()
{
    return t_current_arena;
}

ArenaScope::ArenaScope(Arena& arena) : previous_(t_current_arena)
{
    t_current_arena = &arena;
}

ArenaScope::~ArenaScope()
{
    t_current_arena = previous_;
}

ArenaSuspend::ArenaSuspend() : previous_(t_current_arena)
{
    t_current_arena = nullptr;
}

ArenaSuspend::~ArenaSuspend()
{
    t_current_arena = previous_;
}

} // namespace betty::kernels
