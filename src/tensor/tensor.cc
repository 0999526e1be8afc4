#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <new>

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "util/logging.h"
#include "util/rng.h"

namespace betty {

namespace {

AllocationObserver* g_observer = nullptr;

/** Lifetime count of tensor storages that hit the system heap (as
 * opposed to an active kernels::Arena) — the regression tests pin a
 * steady-state micro-batch at zero growth of this counter. */
std::atomic<int64_t> g_heap_allocs{0};

} // namespace

int64_t
tensorHeapAllocCount()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

AllocationObserver*
setAllocationObserver(AllocationObserver* observer)
{
    AllocationObserver* old = g_observer;
    g_observer = observer;
    return old;
}

AllocationObserver*
allocationObserver()
{
    return g_observer;
}

/**
 * Backing buffer. Reports its byte size to the observer that was
 * installed at allocation time; the same observer is notified on
 * release even if the global observer changed in between, so paired
 * alloc/free events always reach the same memory model. The memory
 * category is likewise snapshotted at allocation time, so a tensor
 * freed outside the MemCategoryScope it was allocated under is still
 * debited from the right category.
 *
 * The buffer itself draws from the thread's active kernels::Arena
 * when one is in scope (micro-batch temporaries; the arena reclaims
 * the bytes wholesale at reset) and from the system heap otherwise
 * (parameters, datasets, anything long-lived). Arena-backed storage
 * registers as a live handle so an escape past the owning reset()
 * panics instead of dangling. Either way the buffer is zero-filled
 * and 64-byte aligned. An adopted host buffer (Tensor::adopt) is used
 * as it is and freed with the storage.
 */
struct Tensor::Storage
{
    explicit Storage(int64_t count)
        : bytes(count * int64_t(sizeof(float))),
          observer(g_observer),
          category(obs::currentMemCategory()),
          arena(kernels::currentArena())
    {
        if (arena) {
            values = static_cast<float*>(
                arena->allocate(bytes, kernels::kArenaAlign));
            arena->noteLiveAttach();
        } else {
            values = static_cast<float*>(::operator new(
                size_t(bytes),
                std::align_val_t(kernels::kArenaAlign)));
            g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
        }
        std::memset(values, 0, size_t(bytes));
        if (observer)
            observer->onAlloc(bytes, category);
    }

    explicit Storage(std::vector<float> buffer)
        : values(buffer.data()),
          bytes(int64_t(buffer.size() * sizeof(float))),
          observer(g_observer),
          category(obs::currentMemCategory()), arena(nullptr),
          adopted(std::move(buffer))
    {
        if (observer)
            observer->onAlloc(bytes, category);
    }

    ~Storage()
    {
        if (observer)
            observer->onFree(bytes, category);
        if (arena)
            arena->noteLiveDetach();
        else if (adopted.empty())
            ::operator delete(
                values, std::align_val_t(kernels::kArenaAlign));
    }

    Storage(const Storage&) = delete;
    Storage& operator=(const Storage&) = delete;

    float* values;
    int64_t bytes;
    AllocationObserver* observer;
    obs::MemCategory category;
    kernels::Arena* arena;
    std::vector<float> adopted;
};

Tensor::Tensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols)
{
    BETTY_ASSERT(rows >= 0 && cols >= 0, "negative tensor shape");
    if (numel() > 0)
        storage_ = std::make_shared<Storage>(numel());
}

float*
Tensor::data()
{
    BETTY_ASSERT(storage_, "data() on empty tensor");
    return storage_->values;
}

const float*
Tensor::data() const
{
    BETTY_ASSERT(storage_, "data() on empty tensor");
    return storage_->values;
}

float&
Tensor::at(int64_t r, int64_t c)
{
    return data()[r * cols_ + c];
}

float
Tensor::at(int64_t r, int64_t c) const
{
    return data()[r * cols_ + c];
}

Tensor
Tensor::zeros(int64_t rows, int64_t cols)
{
    Tensor t(rows, cols);
    t.fill(0.0f);
    return t;
}

Tensor
Tensor::full(int64_t rows, int64_t cols, float value)
{
    Tensor t(rows, cols);
    t.fill(value);
    return t;
}

Tensor
Tensor::uniform(int64_t rows, int64_t cols, Rng& rng, float lo, float hi)
{
    Tensor t(rows, cols);
    float* p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i)
        p[i] = static_cast<float>(rng.uniformReal(lo, hi));
    return t;
}

Tensor
Tensor::xavier(int64_t fan_in, int64_t fan_out, Rng& rng)
{
    const float bound =
        std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
    return uniform(fan_in, fan_out, rng, -bound, bound);
}

Tensor
Tensor::fromValues(int64_t rows, int64_t cols, std::vector<float> values)
{
    BETTY_ASSERT(int64_t(values.size()) == rows * cols,
                 "fromValues: ", values.size(), " values for ", rows, "x",
                 cols);
    Tensor t(rows, cols);
    std::copy(values.begin(), values.end(), t.data());
    return t;
}

Tensor
Tensor::adopt(int64_t rows, int64_t cols, std::vector<float> values)
{
    BETTY_ASSERT(rows >= 0 && cols >= 0 &&
                     int64_t(values.size()) == rows * cols,
                 "adopt: ", values.size(), " values for ", rows, "x",
                 cols);
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    if (t.numel() > 0)
        t.storage_ = std::make_shared<Storage>(std::move(values));
    return t;
}

void
Tensor::fill(float value)
{
    if (empty())
        return;
    std::fill_n(data(), numel(), value);
}

Tensor
Tensor::clone() const
{
    Tensor copy(rows_, cols_);
    if (numel() > 0)
        std::memcpy(copy.data(), data(), size_t(bytes()));
    return copy;
}

void
Tensor::addInPlace(const Tensor& other)
{
    BETTY_ASSERT(sameShape(other), "addInPlace shape mismatch");
    if (empty())
        return;
    kernels::addInPlace(data(), other.data(), numel());
}

void
Tensor::addScaledInPlace(const Tensor& other, float alpha)
{
    BETTY_ASSERT(sameShape(other), "addScaledInPlace shape mismatch");
    if (empty())
        return;
    kernels::addScaledInPlace(data(), other.data(), alpha, numel());
}

void
Tensor::scaleInPlace(float alpha)
{
    if (empty())
        return;
    kernels::scaleInPlace(data(), alpha, numel());
}

float
Tensor::sum() const
{
    if (empty())
        return 0.0f;
    double acc = 0.0;
    const float* a = data();
    for (int64_t i = 0; i < numel(); ++i)
        acc += a[i];
    return static_cast<float>(acc);
}

float
Tensor::maxAbs() const
{
    float best = 0.0f;
    if (empty())
        return best;
    const float* a = data();
    for (int64_t i = 0; i < numel(); ++i)
        best = std::max(best, std::fabs(a[i]));
    return best;
}

void
matmul(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate)
{
    BETTY_ASSERT(a.cols() == b.rows(), "matmul inner dim mismatch: ",
                 a.cols(), " vs ", b.rows());
    BETTY_ASSERT(out.rows() == a.rows() && out.cols() == b.cols(),
                 "matmul output shape mismatch");
    if (!accumulate)
        out.setZero();
    if (a.numel() == 0 || b.numel() == 0)
        return;

    kernels::gemm(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                  b.cols());
}

void
matmulTransA(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate)
{
    BETTY_ASSERT(a.rows() == b.rows(), "matmulTransA inner dim mismatch");
    BETTY_ASSERT(out.rows() == a.cols() && out.cols() == b.cols(),
                 "matmulTransA output shape mismatch");
    if (!accumulate)
        out.setZero();
    if (a.numel() == 0 || b.numel() == 0)
        return;

    kernels::gemmTransA(a.data(), b.data(), out.data(), a.cols(),
                        a.rows(), b.cols());
}

void
matmulTransB(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate)
{
    BETTY_ASSERT(a.cols() == b.cols(), "matmulTransB inner dim mismatch");
    BETTY_ASSERT(out.rows() == a.rows() && out.cols() == b.rows(),
                 "matmulTransB output shape mismatch");
    if (!accumulate)
        out.setZero();
    if (a.numel() == 0 || b.numel() == 0)
        return;

    kernels::gemmTransB(a.data(), b.data(), out.data(), a.rows(),
                        a.cols(), b.rows());
}

} // namespace betty
