/**
 * @file
 * Runtime kernel dispatch tests (kernels/dispatch.h): strict
 * BETTY_KERNELS parsing (malformed values are fatal, naming the
 * variable), the auto default, the avx2-unavailable fallback with its
 * single-warning / counter contract, auto resolution on both kinds of
 * hardware, and backend caching.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "kernels/dispatch.h"

namespace betty::kernels {
namespace {

/** Restores a clean dispatch state no matter how a test exits. */
class DispatchTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        ::unsetenv("BETTY_KERNELS");
        setCpuSupportsAvx2ForTest(-1);
        resetKernelModeForTest();
    }
};

TEST_F(DispatchTest, ParseAcceptsExactlyTheThreeModes)
{
    KernelMode mode = KernelMode::Auto;
    EXPECT_TRUE(parseKernelMode("scalar", &mode));
    EXPECT_EQ(mode, KernelMode::Scalar);
    EXPECT_TRUE(parseKernelMode("avx2", &mode));
    EXPECT_EQ(mode, KernelMode::Avx2);
    EXPECT_TRUE(parseKernelMode("auto", &mode));
    EXPECT_EQ(mode, KernelMode::Auto);

    EXPECT_FALSE(parseKernelMode("", &mode));
    EXPECT_FALSE(parseKernelMode("AVX2", &mode));
    EXPECT_FALSE(parseKernelMode("sse", &mode));
    EXPECT_FALSE(parseKernelMode("scalar ", &mode));
    EXPECT_FALSE(parseKernelMode("avx512", &mode));
}

TEST_F(DispatchTest, ModeAndBackendNames)
{
    EXPECT_STREQ(kernelModeName(KernelMode::Scalar), "scalar");
    EXPECT_STREQ(kernelModeName(KernelMode::Avx2), "avx2");
    EXPECT_STREQ(kernelModeName(KernelMode::Auto), "auto");
    EXPECT_STREQ(backendName(Backend::Scalar), "scalar");
    EXPECT_STREQ(backendName(Backend::Avx2), "avx2");
}

TEST_F(DispatchTest, DefaultModeIsAuto)
{
    ::unsetenv("BETTY_KERNELS");
    resetKernelModeForTest();
    EXPECT_EQ(kernelMode(), KernelMode::Auto);
    setCpuSupportsAvx2ForTest(0);
    EXPECT_EQ(activeBackend(), Backend::Scalar);
    if (builtWithAvx2()) {
        setCpuSupportsAvx2ForTest(1);
        EXPECT_EQ(activeBackend(), Backend::Avx2);
    }
}

TEST_F(DispatchTest, EnvironmentSelectsTheMode)
{
    ::setenv("BETTY_KERNELS", "auto", 1);
    resetKernelModeForTest();
    EXPECT_EQ(kernelMode(), KernelMode::Auto);

    ::setenv("BETTY_KERNELS", "avx2", 1);
    resetKernelModeForTest();
    EXPECT_EQ(kernelMode(), KernelMode::Avx2);
}

TEST_F(DispatchTest, MalformedEnvironmentValueIsFatal)
{
    ::setenv("BETTY_KERNELS", "turbo", 1);
    resetKernelModeForTest();
    EXPECT_DEATH(kernelMode(), "BETTY_KERNELS");
}

TEST_F(DispatchTest, ScalarModeNeverUsesAvx2)
{
    setCpuSupportsAvx2ForTest(1);
    setKernelMode(KernelMode::Scalar);
    EXPECT_EQ(activeBackend(), Backend::Scalar);
}

TEST_F(DispatchTest, Avx2ModeUsesAvx2WhenAvailable)
{
    if (!builtWithAvx2())
        GTEST_SKIP() << "binary built without AVX2 support";
    setCpuSupportsAvx2ForTest(1);
    setKernelMode(KernelMode::Avx2);
    EXPECT_EQ(activeBackend(), Backend::Avx2);
}

TEST_F(DispatchTest, Avx2ModeFallsBackOnceWhenCpuLacksAvx2)
{
    // Pretend the CPU has no AVX2: the request degrades to the
    // scalar reference with exactly one fallback tally per
    // resolution, not one per kernel call (the backend is cached).
    setCpuSupportsAvx2ForTest(0);
    setKernelMode(KernelMode::Avx2);
    const int64_t before = dispatchFallbackCount();
    EXPECT_EQ(activeBackend(), Backend::Scalar);
    EXPECT_EQ(dispatchFallbackCount(), before + 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(activeBackend(), Backend::Scalar);
    EXPECT_EQ(dispatchFallbackCount(), before + 1);
}

TEST_F(DispatchTest, AutoPicksByCpuCapability)
{
    setCpuSupportsAvx2ForTest(0);
    setKernelMode(KernelMode::Auto);
    const int64_t before = dispatchFallbackCount();
    EXPECT_EQ(activeBackend(), Backend::Scalar);
    // auto degrades silently: no fallback is counted.
    EXPECT_EQ(dispatchFallbackCount(), before);

    if (builtWithAvx2()) {
        setCpuSupportsAvx2ForTest(1);
        setKernelMode(KernelMode::Auto);
        EXPECT_EQ(activeBackend(), Backend::Avx2);
    }
}

TEST_F(DispatchTest, SetKernelModeReResolvesTheBackend)
{
    if (!builtWithAvx2())
        GTEST_SKIP() << "binary built without AVX2 support";
    setCpuSupportsAvx2ForTest(1);
    setKernelMode(KernelMode::Avx2);
    EXPECT_EQ(activeBackend(), Backend::Avx2);
    setKernelMode(KernelMode::Scalar);
    EXPECT_EQ(activeBackend(), Backend::Scalar);
    setKernelMode(KernelMode::Auto);
    EXPECT_EQ(activeBackend(), Backend::Avx2);
}

TEST_F(DispatchTest, CpuOverrideRestores)
{
    const bool real = []() {
        setCpuSupportsAvx2ForTest(-1);
        return cpuSupportsAvx2();
    }();
    setCpuSupportsAvx2ForTest(0);
    EXPECT_FALSE(cpuSupportsAvx2());
    setCpuSupportsAvx2ForTest(1);
    EXPECT_TRUE(cpuSupportsAvx2());
    setCpuSupportsAvx2ForTest(-1);
    EXPECT_EQ(cpuSupportsAvx2(), real);
}

} // namespace
} // namespace betty::kernels
