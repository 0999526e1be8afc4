/**
 * @file
 * Bump/arena allocator for forward/backward temporaries.
 *
 * A micro-batch's computation graph allocates dozens to thousands of
 * short-lived tensors (op outputs, intermediate gradients, the
 * softmax probability scratch) that all die together when the root
 * NodePtr is dropped. Routing their storage through a per-trainer
 * arena turns that churn into pointer bumps: after the first
 * micro-batch has grown the chunk list to its high-water mark, a
 * micro-batch performs O(1) heap allocations (tests/test_arena.cc
 * pins this down with the tensor heap-allocation counter).
 *
 * Lifecycle contract (docs/KERNELS.md "Arena lifecycle"):
 *
 *   1. The owner activates the arena for the current thread with an
 *      ArenaScope around exactly the region whose tensors die before
 *      the next reset() — in the trainers, one micro-batch's
 *      forward + backward.
 *   2. Storage that must survive the scope (parameter gradients,
 *      optimizer moments) allocates under an ArenaSuspend.
 *   3. After the graph is released, the owner calls reset(): the
 *      cursor returns to the first chunk and the reserved bytes are
 *      kept (that is the high-water reuse). A reset that finds more
 *      than one chunk replaces them with one chunk of their total
 *      size, so a later micro-batch whose requests add up to at most
 *      the reserved bytes grows nothing (a request that does not fit
 *      a chunk's tail skips it). Under AddressSanitizer the reclaimed
 *      bytes are poisoned so any use-after-reset faults immediately.
 *
 * Tensor storage that draws from the arena registers itself with
 * noteLiveAttach()/noteLiveDetach(); reset() panics if any such
 * handle is still alive — an escape would otherwise become a silent
 * use-after-reset.
 *
 * Thread model: an Arena is single-threaded by design (one arena per
 * trainer, activated on the training thread). Distinct arenas on
 * distinct pool lanes are independent — tests/test_arena.cc runs that
 * under TSan. The ArenaScope stack itself is thread-local, so a pool
 * worker never observes the training thread's arena.
 */
#ifndef BETTY_KERNELS_ARENA_H
#define BETTY_KERNELS_ARENA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace betty::kernels {

/** Default allocation alignment: one cache line, enough for AVX2
 * (32-byte) loads with room for AVX-512 should it ever arrive. */
constexpr int64_t kArenaAlign = 64;

/** Bump allocator over a growable list of heap chunks (file comment). */
class Arena
{
  public:
    /** @param chunk_bytes Granularity of chunk growth (>= 4 KiB). */
    explicit Arena(int64_t chunk_bytes = int64_t(1) << 20);
    ~Arena();

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /**
     * @p bytes of storage aligned to @p align (a power of two
     * <= kArenaAlign). Zero-byte requests return a valid unique
     * pointer. Never returns nullptr — chunk exhaustion grows the
     * chunk list.
     */
    void* allocate(int64_t bytes, int64_t align = kArenaAlign);

    /**
     * Reclaim every allocation at once: cursor back to the first
     * chunk, reserved bytes retained for reuse (several chunks are
     * merged into one of their total size). Panics if live handles
     * are still attached. Under ASan the reclaimed regions are
     * poisoned.
     */
    void reset();

    /** reset() + return all chunks to the heap (high-water release). */
    void releaseAll();

    /** @name Live-handle discipline (Tensor storage registration). */
    /** @{ */
    void noteLiveAttach() { ++live_handles_; }
    void noteLiveDetach() { --live_handles_; }
    int64_t liveHandles() const { return live_handles_; }
    /** @} */

    /** @name Introspection */
    /** @{ */
    /** Bytes handed out since the last reset (including padding). */
    int64_t inUseBytes() const { return in_use_bytes_; }
    /** Largest inUseBytes() ever observed. */
    int64_t highWaterBytes() const { return high_water_bytes_; }
    /** Bytes currently reserved from the heap across all chunks. */
    int64_t reservedBytes() const { return reserved_bytes_; }
    /** Lifetime count of heap chunk allocations. */
    int64_t chunkAllocs() const { return chunk_allocs_; }
    /** Lifetime count of reset() calls. */
    int64_t resets() const { return resets_; }
    /** Lifetime count of allocate() calls. */
    int64_t allocations() const { return allocations_; }
    /** @} */

  private:
    struct Chunk
    {
        char* data = nullptr;
        int64_t size = 0;
        int64_t used = 0;
    };

    /** Append a chunk of at least @p min_bytes; returns its index. */
    std::size_t growChunk(int64_t min_bytes);

    /** Return every chunk to the heap. */
    void freeChunks();

    int64_t chunk_bytes_;
    std::vector<Chunk> chunks_;
    std::size_t cursor_ = 0; ///< index of the chunk currently bumping
    int64_t live_handles_ = 0;
    int64_t in_use_bytes_ = 0;
    int64_t high_water_bytes_ = 0;
    int64_t reserved_bytes_ = 0;
    int64_t chunk_allocs_ = 0;
    int64_t resets_ = 0;
    int64_t allocations_ = 0;
};

/**
 * The arena active on the calling thread, or nullptr. Tensor storage
 * consults this at allocation time (tensor/tensor.cc).
 */
Arena* currentArena();

/** RAII: activate @p arena on this thread for the scope's lifetime. */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena& arena);
    ~ArenaScope();

    ArenaScope(const ArenaScope&) = delete;
    ArenaScope& operator=(const ArenaScope&) = delete;

  private:
    Arena* previous_;
};

/**
 * RAII: deactivate any current arena for the scope's lifetime — used
 * for allocations that must outlive the enclosing ArenaScope
 * (parameter gradients in ag::Node::ensureGrad, optimizer moments).
 */
class ArenaSuspend
{
  public:
    ArenaSuspend();
    ~ArenaSuspend();

    ArenaSuspend(const ArenaSuspend&) = delete;
    ArenaSuspend& operator=(const ArenaSuspend&) = delete;

  private:
    Arena* previous_;
};

} // namespace betty::kernels

#endif // BETTY_KERNELS_ARENA_H
