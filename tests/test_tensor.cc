/**
 * @file
 * Tests for the dense tensor, its kernels, and allocation observation.
 */
#include <vector>

#include <gtest/gtest.h>

#include "memory/device_memory.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace betty {
namespace {

TEST(Tensor, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_EQ(t.rows(), 0);
    EXPECT_EQ(t.cols(), 0);
    EXPECT_TRUE(t.empty());
}

TEST(Tensor, ZerosAndFull)
{
    auto z = Tensor::zeros(2, 3);
    EXPECT_EQ(z.numel(), 6);
    EXPECT_FLOAT_EQ(z.sum(), 0.0f);
    auto f = Tensor::full(2, 3, 1.5f);
    EXPECT_FLOAT_EQ(f.sum(), 9.0f);
}

TEST(Tensor, FromValuesAndAt)
{
    auto t = Tensor::fromValues(2, 2, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(t.at(0, 0), 1);
    EXPECT_FLOAT_EQ(t.at(0, 1), 2);
    EXPECT_FLOAT_EQ(t.at(1, 0), 3);
    EXPECT_FLOAT_EQ(t.at(1, 1), 4);
}

TEST(Tensor, CopyIsShallowCloneIsDeep)
{
    auto a = Tensor::zeros(2, 2);
    Tensor shallow = a;
    Tensor deep = a.clone();
    a.at(0, 0) = 7.0f;
    EXPECT_FLOAT_EQ(shallow.at(0, 0), 7.0f);
    EXPECT_FLOAT_EQ(deep.at(0, 0), 0.0f);
}

TEST(Tensor, AddScaleInPlace)
{
    auto a = Tensor::full(2, 2, 1.0f);
    auto b = Tensor::full(2, 2, 2.0f);
    a.addInPlace(b);
    EXPECT_FLOAT_EQ(a.at(1, 1), 3.0f);
    a.addScaledInPlace(b, -0.5f);
    EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
    a.scaleInPlace(2.0f);
    EXPECT_FLOAT_EQ(a.at(0, 1), 4.0f);
}

TEST(Tensor, MaxAbs)
{
    auto t = Tensor::fromValues(1, 3, {-5, 2, 4});
    EXPECT_FLOAT_EQ(t.maxAbs(), 5.0f);
}

TEST(Tensor, UniformWithinBounds)
{
    Rng rng(5);
    auto t = Tensor::uniform(10, 10, rng, -2.0f, 3.0f);
    for (int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_GE(t.data()[i], -2.0f);
        EXPECT_LT(t.data()[i], 3.0f);
    }
}

TEST(Tensor, XavierScale)
{
    Rng rng(6);
    auto t = Tensor::xavier(100, 100, rng);
    // Bound is sqrt(6/200) ~ 0.173.
    EXPECT_LE(t.maxAbs(), 0.1733f);
    EXPECT_GT(t.maxAbs(), 0.1f);
}

TEST(Matmul, MatchesHandComputed)
{
    auto a = Tensor::fromValues(2, 3, {1, 2, 3, 4, 5, 6});
    auto b = Tensor::fromValues(3, 2, {7, 8, 9, 10, 11, 12});
    Tensor c(2, 2);
    matmul(a, b, c);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(Matmul, AccumulateAddsIntoOutput)
{
    auto a = Tensor::fromValues(1, 1, {2});
    auto b = Tensor::fromValues(1, 1, {3});
    auto c = Tensor::full(1, 1, 10.0f);
    matmul(a, b, c, /*accumulate=*/true);
    EXPECT_FLOAT_EQ(c.at(0, 0), 16.0f);
}

TEST(Matmul, TransAMatchesExplicitTranspose)
{
    Rng rng(7);
    auto a = Tensor::uniform(4, 3, rng);
    auto b = Tensor::uniform(4, 5, rng);
    Tensor out(3, 5);
    matmulTransA(a, b, out);
    // Reference: build aT explicitly.
    Tensor at(3, 4);
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 3; ++j)
            at.at(j, i) = a.at(i, j);
    Tensor ref(3, 5);
    matmul(at, b, ref);
    for (int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_NEAR(out.data()[i], ref.data()[i], 1e-5);
}

TEST(Matmul, TransBMatchesExplicitTranspose)
{
    Rng rng(8);
    auto a = Tensor::uniform(4, 3, rng);
    auto b = Tensor::uniform(5, 3, rng);
    Tensor out(4, 5);
    matmulTransB(a, b, out);
    Tensor bt(3, 5);
    for (int64_t i = 0; i < 5; ++i)
        for (int64_t j = 0; j < 3; ++j)
            bt.at(j, i) = b.at(i, j);
    Tensor ref(4, 5);
    matmul(a, bt, ref);
    for (int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_NEAR(out.data()[i], ref.data()[i], 1e-5);
}

TEST(AllocationObserver, TracksAllocAndFree)
{
    DeviceMemoryModel device;
    {
        DeviceMemoryModel::Scope scope(device);
        Tensor t(10, 10); // 400 bytes
        EXPECT_EQ(device.liveBytes(), 400);
        EXPECT_EQ(device.peakBytes(), 400);
    }
    EXPECT_EQ(device.liveBytes(), 0);
    EXPECT_EQ(device.peakBytes(), 400);
}

TEST(AllocationObserver, SharedStorageFreedOnce)
{
    DeviceMemoryModel device;
    {
        DeviceMemoryModel::Scope scope(device);
        Tensor a(4, 4);
        Tensor b = a; // shallow copy shares storage
        EXPECT_EQ(device.liveBytes(), 64);
    }
    EXPECT_EQ(device.liveBytes(), 0);
}

TEST(AllocationObserver, FreeRoutedToAllocatingObserver)
{
    // A tensor allocated inside a scope but destroyed after the scope
    // ends must still decrement the model it was charged to.
    DeviceMemoryModel device;
    Tensor escaped;
    {
        DeviceMemoryModel::Scope scope(device);
        escaped = Tensor(8, 8);
    }
    EXPECT_EQ(device.liveBytes(), 256);
    escaped = Tensor();
    EXPECT_EQ(device.liveBytes(), 0);
}

TEST(AllocationObserver, ScopeRestoresPrevious)
{
    DeviceMemoryModel outer, inner;
    DeviceMemoryModel::Scope outer_scope(outer);
    {
        DeviceMemoryModel::Scope inner_scope(inner);
        Tensor t(2, 2);
        EXPECT_EQ(inner.liveBytes(), 16);
        EXPECT_EQ(outer.liveBytes(), 0);
    }
    Tensor t(2, 2);
    EXPECT_EQ(outer.liveBytes(), 16);
}

TEST(AllocationObserver, AdoptTakesTheBufferAndChargesWhereAdopted)
{
    // The buffer itself becomes the storage (no copy), charged to the
    // observer and category current at adoption, without touching the
    // tensor heap counter.
    std::vector<float> values = {1, 2, 3, 4, 5, 6};
    const float* buffer = values.data();
    DeviceMemoryModel device;
    const int64_t heap_allocs = tensorHeapAllocCount();
    {
        DeviceMemoryModel::Scope scope(device);
        obs::MemCategoryScope category(obs::MemCategory::InputFeatures);
        const Tensor t = Tensor::adopt(2, 3, std::move(values));
        EXPECT_EQ(t.data(), buffer);
        EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
        EXPECT_EQ(device.liveBytes(obs::MemCategory::InputFeatures), 24);
    }
    EXPECT_EQ(device.liveBytes(), 0);
    EXPECT_EQ(tensorHeapAllocCount(), heap_allocs);
}

} // namespace
} // namespace betty
