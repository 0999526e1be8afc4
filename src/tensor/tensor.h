/**
 * @file
 * Dense 2-D float32 tensor with byte-accurate allocation accounting.
 *
 * Every Tensor's backing storage reports its size to the installed
 * AllocationObserver (see memory/device_memory.h) on allocation and
 * release. The simulated accelerator memory model is built on these
 * notifications, which is what lets the repository measure "GPU" peak
 * memory without a GPU.
 */
#ifndef BETTY_TENSOR_TENSOR_H
#define BETTY_TENSOR_TENSOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/memprof.h"

namespace betty {

class Rng;

/**
 * Receives storage lifetime events from every Tensor allocation.
 *
 * Events carry the Table 3 memory category (obs/memprof.h) the
 * allocation happened under; paired alloc/free events always report
 * the same category because Tensor::Storage snapshots it at
 * allocation time. Observers that do not care about provenance can
 * ignore the argument; callers that do not care can use the 1-arg
 * convenience overloads, which tag with the calling thread's current
 * MemCategoryScope.
 */
class AllocationObserver
{
  public:
    virtual ~AllocationObserver() = default;

    /** Called when @p bytes of tensor storage are allocated. */
    virtual void onAlloc(int64_t bytes, obs::MemCategory category) = 0;

    /** Called when @p bytes of tensor storage are released. */
    virtual void onFree(int64_t bytes, obs::MemCategory category) = 0;

    /** @name Convenience: tag with the thread's current category. */
    /** @{ */
    void onAlloc(int64_t bytes)
    {
        onAlloc(bytes, obs::currentMemCategory());
    }

    void onFree(int64_t bytes)
    {
        onFree(bytes, obs::currentMemCategory());
    }
    /** @} */
};

/**
 * Install the observer that receives all subsequent allocation events.
 * Pass nullptr to detach. Returns the previously installed observer.
 */
AllocationObserver* setAllocationObserver(AllocationObserver* observer);

/** The currently installed observer, or nullptr. */
AllocationObserver* allocationObserver();

/**
 * Lifetime count of tensor storages allocated from the system heap —
 * allocations under an active kernels::ArenaScope do not count. A
 * steady-state micro-batch should not move this counter (the O(1)
 * allocation regression tests in tests/test_arena.cc pin that down).
 */
int64_t tensorHeapAllocCount();

/**
 * A reference-counted dense row-major matrix of float32.
 *
 * Copies are shallow (shared storage); use clone() for a deep copy.
 * A default-constructed Tensor is empty (0 x 0) and owns no storage.
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Allocate an uninitialized rows x cols tensor. */
    Tensor(int64_t rows, int64_t cols);

    /** @name Shape */
    /** @{ */
    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    int64_t numel() const { return rows_ * cols_; }
    int64_t bytes() const { return numel() * int64_t(sizeof(float)); }
    bool empty() const { return numel() == 0; }
    bool sameShape(const Tensor& other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_;
    }
    /** @} */

    /** @name Element access */
    /** @{ */
    float* data();
    const float* data() const;
    float& at(int64_t r, int64_t c);
    float at(int64_t r, int64_t c) const;
    /** @} */

    /** @name Factories */
    /** @{ */
    static Tensor zeros(int64_t rows, int64_t cols);
    static Tensor full(int64_t rows, int64_t cols, float value);
    /** Uniform values in [lo, hi). */
    static Tensor uniform(int64_t rows, int64_t cols, Rng& rng,
                          float lo = -1.0f, float hi = 1.0f);
    /** Xavier/Glorot uniform init for a fan_in x fan_out weight. */
    static Tensor xavier(int64_t fan_in, int64_t fan_out, Rng& rng);
    /** Build from an explicit row-major value list (for tests). */
    static Tensor fromValues(int64_t rows, int64_t cols,
                             std::vector<float> values);
    /**
     * Take over @p values (row-major) as the storage itself: no copy,
     * no zero-fill. The bytes are charged to the observer and memory
     * category current at this call, so a host buffer filled on a
     * pool lane is charged where the tensor takes it over. Never
     * arena-backed, and not counted by tensorHeapAllocCount().
     */
    static Tensor adopt(int64_t rows, int64_t cols,
                        std::vector<float> values);
    /** @} */

    /** @name Whole-tensor mutation */
    /** @{ */
    void fill(float value);
    void setZero() { fill(0.0f); }
    /** Deep copy with fresh storage. */
    Tensor clone() const;
    /** this += other (shapes must match). */
    void addInPlace(const Tensor& other);
    /** this += alpha * other. */
    void addScaledInPlace(const Tensor& other, float alpha);
    /** this *= alpha. */
    void scaleInPlace(float alpha);
    /** @} */

    /** @name Reductions (value-only helpers, no autograd) */
    /** @{ */
    float sum() const;
    float maxAbs() const;
    /** @} */

  private:
    struct Storage;

    int64_t rows_ = 0;
    int64_t cols_ = 0;
    std::shared_ptr<Storage> storage_;
};

/** @name Value-only kernels
 * Shared by the autograd layer; out must be preallocated to the correct
 * shape. accumulate=true adds into out instead of overwriting.
 */
/** @{ */

/** out = a x b (or out += if accumulate). */
void matmul(const Tensor& a, const Tensor& b, Tensor& out,
            bool accumulate = false);

/** out = aᵀ x b. */
void matmulTransA(const Tensor& a, const Tensor& b, Tensor& out,
                  bool accumulate = false);

/** out = a x bᵀ. */
void matmulTransB(const Tensor& a, const Tensor& b, Tensor& out,
                  bool accumulate = false);

/** @} */

} // namespace betty

#endif // BETTY_TENSOR_TENSOR_H
