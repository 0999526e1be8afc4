/**
 * @file
 * Differential kernel-equivalence tier (`ctest -L kernels`,
 * docs/KERNELS.md): the AVX2 backend must agree with the scalar
 * reference bit for bit, everywhere — GEMMs, Sum/Mean/Max
 * aggregation (argmax and NaN ordering included), row movement and
 * the elementwise kernels. Shapes are randomized across remainder
 * lanes, empty rows, and single-row blocks; targeted cases pin
 * gemmTransB's k order and the zero-skip of gemm / gemmTransA; the
 * end-to-end tests require equal losses and gradients of a real
 * model between kernel modes.
 *
 * Every equivalence test skips (vacuously passes) on hardware or
 * toolchains without AVX2 — the dispatch tier covers that fallback.
 * The lane-count tier runs each available backend: a GEMM or a
 * forward aggregation split over the pool's lanes must be
 * bit-identical to the same backend on one lane. A source index out
 * of range must panic under either backend at any width.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "core/micro_batch.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/autograd.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

bool
avx2Available()
{
    return kernels::builtWithAvx2() && kernels::cpuSupportsAvx2();
}

/** Run @p fn under each backend; returns {scalar, avx2} outputs. */
template <typename Fn>
std::pair<std::vector<float>, std::vector<float>>
runBothBackends(size_t out_elems, Fn&& fn)
{
    std::vector<float> scalar_out(out_elems, 0.0f);
    std::vector<float> avx2_out(out_elems, 0.0f);
    kernels::setKernelMode(kernels::KernelMode::Scalar);
    fn(scalar_out.data());
    kernels::setKernelMode(kernels::KernelMode::Avx2);
    fn(avx2_out.data());
    kernels::resetKernelModeForTest();
    return {std::move(scalar_out), std::move(avx2_out)};
}

/** Bitwise equality that treats every NaN as equal to every NaN. */
void
expectBitExact(const std::vector<float>& ref,
               const std::vector<float>& got)
{
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        if (std::isnan(ref[i]) && std::isnan(got[i]))
            continue;
        uint32_t rb, gb;
        std::memcpy(&rb, &ref[i], 4);
        std::memcpy(&gb, &got[i], 4);
        ASSERT_EQ(rb, gb) << "elem " << i << ": " << ref[i] << " vs "
                          << got[i];
    }
}

std::vector<float>
randomValues(Rng& rng, int64_t n, float lo = -2.0f, float hi = 2.0f)
{
    std::vector<float> values(static_cast<size_t>(n));
    for (auto& v : values)
        v = float(rng.uniformReal(lo, hi));
    return values;
}

/** Random CSR block: returns {sources, offsets} over @p rows input
 * rows, deliberately including empty and single-edge segments. */
std::pair<std::vector<int64_t>, std::vector<int64_t>>
randomCsr(Rng& rng, int64_t segments, int64_t rows)
{
    std::vector<int64_t> sources;
    std::vector<int64_t> offsets{0};
    for (int64_t s = 0; s < segments; ++s) {
        // ~1/4 empty, ~1/4 single-edge, rest up to 9 edges.
        const int64_t pick = rng.uniformInt(4);
        const int64_t deg = pick == 0   ? 0
                            : pick == 1 ? 1
                                        : rng.uniformInt(8) + 2;
        for (int64_t e = 0; e < deg; ++e)
            sources.push_back(rng.uniformInt(rows));
        offsets.push_back(int64_t(sources.size()));
    }
    return {std::move(sources), std::move(offsets)};
}

class KernelEquivalence : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!avx2Available())
            GTEST_SKIP() << "AVX2 unavailable; covered by the "
                            "dispatch fallback tier";
    }

    void TearDown() override { kernels::resetKernelModeForTest(); }
};

TEST_F(KernelEquivalence, GemmRandomShapesBitExact)
{
    Rng rng(101);
    for (int trial = 0; trial < 30; ++trial) {
        // Shapes straddle the 32-column tile, the 8-lane block, and
        // the scalar tail (n in [1, 40]).
        const int64_t m = rng.uniformInt(17) + 1;
        const int64_t k = rng.uniformInt(33) + 1;
        const int64_t n = rng.uniformInt(40) + 1;
        auto a = randomValues(rng, m * k);
        auto b = randomValues(rng, k * n);
        // Plant zeros so the sparsity skip takes both arms.
        for (size_t i = 0; i < a.size(); i += 3)
            a[i] = 0.0f;
        auto [ref, got] = runBothBackends(
            size_t(m * n), [&](float* out) {
                kernels::gemm(a.data(), b.data(), out, m, k, n);
            });
        expectBitExact(ref, got);
    }
}

TEST_F(KernelEquivalence, GemmTransABitExact)
{
    // Every m in [1, 15] and n in [1, 41] runs the AVX2 kernel's 4-row
    // by 16-column register tile, its leftover rows and its column
    // tails (8-column tiles and the scalar remainder). A third of A is
    // +0.0 or -0.0, and some B rows hold Inf and NaN, so a tile that
    // applied the update of a zero would put a NaN where the reference
    // keeps a finite value, or turn a -0.0 of C into +0.0. A few NaNs
    // in A are not zeros: their updates must run.
    Rng rng(102);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::nanf("");
    for (int64_t m = 1; m <= 15; ++m) {
        for (int64_t n = 1; n <= 41; ++n) {
            SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n);
            const int64_t k = rng.uniformInt(9) + 2;
            auto a = randomValues(rng, k * m); // stored k x m
            for (auto& v : a) {
                const int64_t pick = rng.uniformInt(6);
                if (pick < 2)
                    v = pick == 0 ? 0.0f : -0.0f;
            }
            if (rng.uniformInt(4) == 0)
                a[size_t(rng.uniformInt(k * m))] = nan;
            auto b = randomValues(rng, k * n);
            // B's row 0 is Inf and row k - 1 NaN; A's matching rows
            // are zero in every other output row, so those C rows
            // stay finite only if the zeros are skipped.
            for (int64_t j = 0; j < n; ++j) {
                b[size_t(j)] = j % 2 ? inf : -inf;
                b[size_t((k - 1) * n + j)] = nan;
            }
            for (int64_t i = 0; i < m; i += 2) {
                a[size_t(i)] = i % 4 ? -0.0f : 0.0f;
                a[size_t((k - 1) * m + i)] = 0.0f;
            }
            auto seed_c = randomValues(rng, m * n);
            for (size_t e = 0; e < seed_c.size(); e += 3)
                seed_c[e] = -0.0f;
            auto [ref, got] = runBothBackends(
                size_t(m * n), [&](float* out) {
                    std::copy(seed_c.begin(), seed_c.end(), out);
                    kernels::gemmTransA(a.data(), b.data(), out, m, k,
                                        n);
                });
            expectBitExact(ref, got);
        }
    }
}

TEST_F(KernelEquivalence, GemmTransBBitExact)
{
    Rng rng(103);
    for (int trial = 0; trial < 30; ++trial) {
        // n in [1, 40] straddles the 32-column tile, the 4-column
        // block and the scalar tail.
        const int64_t m = rng.uniformInt(17) + 1;
        const int64_t k = rng.uniformInt(40) + 1;
        const int64_t n = rng.uniformInt(40) + 1;
        auto a = randomValues(rng, m * k);
        auto b = randomValues(rng, n * k);
        auto [ref, got] = runBothBackends(
            size_t(m * n), [&](float* out) {
                kernels::gemmTransB(a.data(), b.data(), out, m, k, n);
            });
        expectBitExact(ref, got);
    }
}

TEST_F(KernelEquivalence, GemmTransBKeepsTheReferenceOrder)
{
    // The reference sums each output element in one double, in k
    // order: after the leading 1.0 every 2^-60 term rounds away, and
    // the final 1 + 2^-24 is a tie that rounds to 1.0f. A sum split
    // over lanes adds the 257 terms of 2^-60 up first, lands above
    // the tie and rounds to 1 + 2^-23 instead.
    const int64_t m = 3, k = 2056;
    std::vector<float> a(size_t(m * k), 0.0f);
    for (int64_t i = 0; i < m; ++i) {
        float* row = a.data() + i * k;
        row[0] = 1.0f;
        row[8] = std::ldexp(1.0f, -24);
        for (int64_t kk = 1; kk < k; kk += 8)
            row[kk] = std::ldexp(1.0f, -60);
    }
    // Around the 32-column tile, its 4-column block and scalar tail.
    for (const int64_t n : {1, 3, 4, 5, 31, 32, 33, 36, 39, 64, 71}) {
        SCOPED_TRACE(testing::Message() << "n=" << n);
        const std::vector<float> b(size_t(n * k), 1.0f);
        auto [ref, got] = runBothBackends(
            size_t(m * n), [&](float* out) {
                kernels::gemmTransB(a.data(), b.data(), out, m, k, n);
            });
        EXPECT_EQ(ref, std::vector<float>(size_t(m * n), 1.0f));
        expectBitExact(ref, got);
    }
}

TEST_F(KernelEquivalence, ZeroEntriesOfASkipInfAndNanInB)
{
    // A zero entry of A skips its term in gemm and gemmTransA, so the
    // Inf and NaN rows of B never reach C, and a C row whose A row is
    // all zeros keeps its values bit for bit, -0.0 included (adding
    // a 0 * b term would turn -0.0 into +0.0).
    Rng rng(111);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::nanf("");
    const int64_t m = 6, k = 9;
    for (const int64_t n : {5, 8, 13, 32, 45}) {
        SCOPED_TRACE(testing::Message() << "n=" << n);
        auto a = randomValues(rng, m * k);
        auto b = randomValues(rng, k * n);
        for (int64_t j = 0; j < n; ++j) {
            b[size_t(2 * n + j)] = j % 2 ? inf : -inf;
            b[size_t(5 * n + j)] = nan;
        }
        for (int64_t i = 0; i < m; ++i) {
            a[size_t(i * k + 2)] = 0.0f;
            a[size_t(i * k + 5)] = -0.0f;
        }
        std::fill_n(a.begin(), k, 0.0f);
        auto seed_c = randomValues(rng, m * n);
        for (int64_t j = 0; j < m * n; j += 3)
            seed_c[size_t(j)] = -0.0f;
        std::vector<float> a_t(a.size()); // a stored k x m
        for (int64_t i = 0; i < m; ++i)
            for (int64_t kk = 0; kk < k; ++kk)
                a_t[size_t(kk * m + i)] = a[size_t(i * k + kk)];

        for (const bool trans_a : {false, true}) {
            auto [ref, got] = runBothBackends(
                size_t(m * n), [&](float* out) {
                    std::copy(seed_c.begin(), seed_c.end(), out);
                    if (trans_a)
                        kernels::gemmTransA(a_t.data(), b.data(), out,
                                            m, k, n);
                    else
                        kernels::gemm(a.data(), b.data(), out, m, k, n);
                });
            expectBitExact(ref, got);
            for (const float v : got)
                ASSERT_TRUE(std::isfinite(v));
            expectBitExact(
                std::vector<float>(seed_c.begin(), seed_c.begin() + n),
                std::vector<float>(got.begin(), got.begin() + n));
        }
    }
}

TEST_F(KernelEquivalence, GemmAccumulatesIntoExistingOutput)
{
    Rng rng(104);
    const int64_t m = 5, k = 7, n = 19;
    auto a = randomValues(rng, m * k);
    auto b = randomValues(rng, k * n);
    auto seed_c = randomValues(rng, m * n);
    auto [ref, got] =
        runBothBackends(size_t(m * n), [&](float* out) {
            std::copy(seed_c.begin(), seed_c.end(), out);
            kernels::gemm(a.data(), b.data(), out, m, k, n);
        });
    expectBitExact(ref, got);
}

TEST_F(KernelEquivalence, GatherAggregateSumBitExact)
{
    Rng rng(105);
    for (int trial = 0; trial < 30; ++trial) {
        const int64_t rows = rng.uniformInt(40) + 1;
        const int64_t cols = rng.uniformInt(70) + 1;
        const int64_t segments = rng.uniformInt(12) + 1;
        auto x = randomValues(rng, rows * cols);
        auto [sources, offsets] = randomCsr(rng, segments, rows);
        auto [ref, got] = runBothBackends(
            size_t(segments * cols), [&](float* out) {
                kernels::gatherAggregate(
                    x.data(), rows, cols, sources.data(),
                    offsets.data(), segments, kernels::Reduce::Sum,
                    out);
            });
        expectBitExact(ref, got);
    }
}

TEST_F(KernelEquivalence, GatherAggregateMeanBitExact)
{
    Rng rng(106);
    for (int trial = 0; trial < 30; ++trial) {
        const int64_t rows = rng.uniformInt(40) + 1;
        const int64_t cols = rng.uniformInt(70) + 1;
        const int64_t segments = rng.uniformInt(12) + 1;
        auto x = randomValues(rng, rows * cols);
        auto [sources, offsets] = randomCsr(rng, segments, rows);
        auto [ref, got] = runBothBackends(
            size_t(segments * cols), [&](float* out) {
                kernels::gatherAggregate(
                    x.data(), rows, cols, sources.data(),
                    offsets.data(), segments, kernels::Reduce::Mean,
                    out);
            });
        expectBitExact(ref, got);
    }
}

TEST_F(KernelEquivalence, GatherAggregateMaxBitExactWithArgmax)
{
    Rng rng(107);
    for (int trial = 0; trial < 30; ++trial) {
        const int64_t rows = rng.uniformInt(40) + 1;
        const int64_t cols = rng.uniformInt(70) + 1;
        const int64_t segments = rng.uniformInt(12) + 1;
        auto x = randomValues(rng, rows * cols);
        // Duplicate some rows so first-wins tie-breaking is exercised.
        if (rows > 1)
            std::copy_n(x.begin(), cols, x.begin() + cols);
        auto [sources, offsets] = randomCsr(rng, segments, rows);
        std::vector<int64_t> ref_arg(size_t(segments * cols), -2);
        std::vector<int64_t> got_arg(size_t(segments * cols), -2);
        kernels::setKernelMode(kernels::KernelMode::Scalar);
        std::vector<float> ref(size_t(segments * cols));
        kernels::gatherAggregate(x.data(), rows, cols, sources.data(),
                                 offsets.data(), segments,
                                 kernels::Reduce::Max, ref.data(),
                                 ref_arg.data());
        kernels::setKernelMode(kernels::KernelMode::Avx2);
        std::vector<float> got(size_t(segments * cols));
        kernels::gatherAggregate(x.data(), rows, cols, sources.data(),
                                 offsets.data(), segments,
                                 kernels::Reduce::Max, got.data(),
                                 got_arg.data());
        kernels::resetKernelModeForTest();
        expectBitExact(ref, got);
        EXPECT_EQ(ref_arg, got_arg);
    }
}

TEST_F(KernelEquivalence, NanAndInfPropagateIdenticallyInAggregates)
{
    // The aggregate kernels follow IEEE propagation: NaN contaminates
    // Sum/Mean; Max keeps a leading NaN (nothing compares greater)
    // and ignores a later one (v > best is false) — the scalar chain
    // and the AVX2 blend must agree lane-for-lane.
    const int64_t rows = 6, cols = 11, segments = 3;
    std::vector<float> x(size_t(rows * cols), 1.0f);
    const float nan = std::nanf("");
    const float inf = std::numeric_limits<float>::infinity();
    x[0 * cols + 0] = nan;   // row 0 leads segment 0
    x[1 * cols + 3] = nan;   // row 1 follows in segment 0
    x[2 * cols + 5] = inf;
    x[3 * cols + 7] = -inf;
    std::vector<int64_t> sources{0, 1, 2, 3, 4};
    std::vector<int64_t> offsets{0, 2, 4, 5};
    for (auto reduce : {kernels::Reduce::Sum, kernels::Reduce::Mean,
                        kernels::Reduce::Max}) {
        std::vector<int64_t> ref_arg(size_t(segments * cols));
        std::vector<int64_t> got_arg(size_t(segments * cols));
        const bool is_max = reduce == kernels::Reduce::Max;
        auto [ref, got] = runBothBackends(
            size_t(segments * cols), [&](float* out) {
                std::vector<int64_t>& arg =
                    kernels::activeBackend() ==
                            kernels::Backend::Avx2
                        ? got_arg
                        : ref_arg;
                kernels::gatherAggregate(
                    x.data(), rows, cols, sources.data(),
                    offsets.data(), segments, reduce, out,
                    is_max ? arg.data() : nullptr);
            });
        expectBitExact(ref, got);
        if (is_max) {
            EXPECT_EQ(ref_arg, got_arg);
        }
    }
}

TEST_F(KernelEquivalence, AggregateBackwardSumAndMeanBitExact)
{
    Rng rng(108);
    for (int trial = 0; trial < 20; ++trial) {
        const int64_t rows = rng.uniformInt(30) + 1;
        const int64_t cols = rng.uniformInt(40) + 1;
        const int64_t segments = rng.uniformInt(10) + 1;
        auto grad_out = randomValues(rng, segments * cols);
        auto [sources, offsets] = randomCsr(rng, segments, rows);
        for (bool mean : {false, true}) {
            auto [ref, got] = runBothBackends(
                size_t(rows * cols), [&](float* gx) {
                    kernels::gatherAggregateBackward(
                        grad_out.data(), cols, sources.data(),
                        offsets.data(), segments, mean, gx);
                });
            expectBitExact(ref, got);
        }
    }
}

TEST_F(KernelEquivalence, RowMovementAndElementwiseBitExact)
{
    Rng rng(109);
    const int64_t rows = 23, cols = 37; // straddles the 8-lane edge
    auto x = randomValues(rng, rows * cols);
    std::vector<int64_t> idx;
    for (int64_t i = 0; i < 50; ++i)
        idx.push_back(rng.uniformInt(rows));

    auto [gather_ref, gather_got] = runBothBackends(
        idx.size() * size_t(cols), [&](float* out) {
            kernels::gatherRows(x.data(), rows, cols, idx.data(),
                                int64_t(idx.size()), out);
        });
    expectBitExact(gather_ref, gather_got);

    auto grad = randomValues(rng, int64_t(idx.size()) * cols);
    auto [scatter_ref, scatter_got] = runBothBackends(
        size_t(rows * cols), [&](float* gx) {
            kernels::scatterAddRows(grad.data(), cols, idx.data(),
                                    int64_t(idx.size()), gx);
        });
    expectBitExact(scatter_ref, scatter_got);

    const int64_t n = 1003; // 125 full lanes + 3 tail
    auto base = randomValues(rng, n);
    auto other = randomValues(rng, n);
    auto [add_ref, add_got] =
        runBothBackends(size_t(n), [&](float* y) {
            std::copy(base.begin(), base.end(), y);
            kernels::addInPlace(y, other.data(), n);
            kernels::addScaledInPlace(y, other.data(), -0.37f, n);
            kernels::scaleInPlace(y, 1.7f, n);
        });
    expectBitExact(add_ref, add_got);
}

/** The three GEMM entry points, for the lane-count tier. */
enum class GemmVariant { Plain, TransA, TransB };

/**
 * c = 0.25 + op(a, b) through one GEMM variant, one call per
 * @p rows_per_call output rows (a is m x k, or k x m for TransA; b
 * holds k * n values). With rows_per_call = m it is a single call.
 */
std::vector<float>
runGemm(GemmVariant variant, const std::vector<float>& a,
        const std::vector<float>& b, int64_t m, int64_t k, int64_t n,
        int64_t rows_per_call)
{
    std::vector<float> c(size_t(m * n), 0.25f);
    for (int64_t lo = 0; lo < m; lo += rows_per_call) {
        const int64_t rows = std::min(rows_per_call, m - lo);
        float* out = c.data() + lo * n;
        switch (variant) {
          case GemmVariant::Plain:
            kernels::gemm(a.data() + lo * k, b.data(), out, rows, k, n);
            break;
          case GemmVariant::TransA: {
            // Output rows [lo, lo + rows) are columns of the stored A.
            std::vector<float> cols(size_t(k * rows));
            for (int64_t kk = 0; kk < k; ++kk)
                std::copy_n(a.data() + kk * m + lo, rows,
                            cols.data() + kk * rows);
            kernels::gemmTransA(cols.data(), b.data(), out, rows, k, n);
            break;
          }
          case GemmVariant::TransB:
            kernels::gemmTransB(a.data() + lo * k, b.data(), out, rows,
                                k, n);
            break;
        }
    }
    return c;
}

class GemmLanes : public ::testing::Test
{
  protected:
    void SetUp() override { metricsWereOn_ = obs::Metrics::enabled(); }

    void TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
        kernels::resetKernelModeForTest();
        obs::Metrics::setEnabled(metricsWereOn_);
    }

    bool metricsWereOn_ = false;
};

TEST_F(GemmLanes, BitIdenticalAtEveryLaneCountUnderEachBackend)
{
    // On 1 lane the split result must equal the same rows computed
    // inline block by block; on 2, 3 and 8 lanes, the 1-lane result.
    // n = 45 covers the AVX2 32- and 16-column tiles, an 8-lane block
    // and a scalar tail; odd k leave a remainder in gemmTransB's dot.
    // The three depths give blocks of 323, 314 and 277 rows: none is a
    // multiple of gemmTransA's 4-row tile, so every block ends in rows
    // of its one-row loop, each with a different count.
    const int64_t n = 45;
    std::vector<kernels::KernelMode> modes = {kernels::KernelMode::Scalar};
    if (avx2Available())
        modes.push_back(kernels::KernelMode::Avx2);
    obs::Metrics::setEnabled(true);
    const obs::Counter& parallel_fors =
        obs::Metrics::counter("pool.parallel_fors");

    Rng rng(110);
    for (const int64_t k : {36, 37, 42}) {
        const int64_t block = kernels::gemmBlockRows(k, n);
        ASSERT_GT(block, 2);
        ASSERT_NE(block % 4, 0) << "k=" << k;
        // Below one block, one block and one row less (both inline),
        // one row more than a block, and many blocks with a remainder.
        const std::vector<int64_t> shapes = {block / 2, block - 1, block,
                                             block + 1, 5 * block + 7};
        auto a = randomValues(rng, shapes.back() * k);
        // Half of A is exact zeros, so the zero-skip of gemm and
        // gemmTransA takes both arms inside every block.
        for (size_t i = 0; i < a.size(); i += 2)
            a[i] = 0.0f;
        const auto b = randomValues(rng, k * n);

        std::map<std::tuple<int, int, int64_t>, std::vector<float>> serial;
        for (const int32_t lanes : {1, 2, 3, 8}) {
            ThreadPool::setGlobalThreads(lanes);
            for (const kernels::KernelMode mode : modes) {
                kernels::setKernelMode(mode);
                for (const GemmVariant variant :
                     {GemmVariant::Plain, GemmVariant::TransA,
                      GemmVariant::TransB}) {
                    for (const int64_t m : shapes) {
                        SCOPED_TRACE(testing::Message()
                                     << kernels::kernelModeName(mode)
                                     << " variant " << int(variant)
                                     << " k=" << k << " m=" << m
                                     << " lanes=" << lanes);
                        const int64_t before = parallel_fors.value();
                        auto c = runGemm(variant, a, b, m, k, n, m);
                        // Non-vacuous: shapes past one block really
                        // went through the pool, the rest ran inline.
                        if (m > block) {
                            EXPECT_GT(parallel_fors.value(), before);
                        } else {
                            EXPECT_EQ(parallel_fors.value(), before);
                        }
                        const auto key =
                            std::make_tuple(int(mode), int(variant), m);
                        if (lanes == 1) {
                            // One call per block: each runs inline.
                            expectBitExact(
                                runGemm(variant, a, b, m, k, n, block),
                                c);
                            serial[key] = std::move(c);
                        } else {
                            expectBitExact(serial.at(key), c);
                        }
                    }
                }
            }
        }
    }
}

/** Aggregation outputs: the rows, and argmax for Max. */
struct AggregateResult
{
    std::vector<float> out;
    std::vector<int64_t> argmax;
};

/**
 * gatherAggregate over the first @p segments segments of a CSR block,
 * one call per @p segments_per_call segments. Offsets are absolute, so
 * each call passes the same sources (null for the identity) and its
 * own slice of offsets, out and argmax.
 */
AggregateResult
runAggregate(const std::vector<float>& x, int64_t rows, int64_t cols,
             const int64_t* sources, const std::vector<int64_t>& offsets,
             int64_t segments, kernels::Reduce reduce,
             int64_t segments_per_call)
{
    const bool is_max = reduce == kernels::Reduce::Max;
    AggregateResult r{std::vector<float>(size_t(segments * cols), 0.25f),
                      std::vector<int64_t>(
                          is_max ? size_t(segments * cols) : 0, -2)};
    for (int64_t lo = 0; lo < segments; lo += segments_per_call) {
        const int64_t count = std::min(segments_per_call, segments - lo);
        kernels::gatherAggregate(
            x.data(), rows, cols, sources, offsets.data() + lo, count,
            reduce, r.out.data() + lo * cols,
            is_max ? r.argmax.data() + lo * cols : nullptr);
    }
    return r;
}

/** The lane-count tier of the aggregation kernels. */
class AggregateLanes : public GemmLanes
{
};

TEST_F(AggregateLanes, BitIdenticalAtEveryLaneCountUnderEachBackend)
{
    // gatherAggregate splits its segments into blocks over the pool:
    // on 1 lane the result must equal the same segments aggregated one
    // block per call, and on 2, 3 and 8 lanes the 1-lane result, for
    // Sum, Mean and Max (argmax too), with sources and with the
    // identity that segmentMax passes. 45 columns cover the AVX2
    // 32-column tile, an 8-lane block and a scalar tail. Both blocks
    // have empty and one-edge segments.
    const int64_t rows = 12000, cols = 45, max_segments = 8000;
    Rng rng(112);
    const auto x = randomValues(rng, rows * cols);
    const auto [sources, offsets] = randomCsr(rng, max_segments, rows);
    // For the identity, segment s reads the next s % 4 rows of x.
    std::vector<int64_t> identity_offsets{0};
    for (int64_t s = 0; s < max_segments; ++s)
        identity_offsets.push_back(identity_offsets.back() + s % 4);
    ASSERT_LE(identity_offsets.back(), rows);

    // Below one block, the largest one-block shape, just past it, and
    // many blocks whose last one is short.
    const auto shapes_for = [&](const std::vector<int64_t>& off) {
        const auto grain = [&](int64_t segments) {
            return kernels::aggregateBlockSegments(
                segments, off[size_t(segments)], cols);
        };
        int64_t first_split = 2;
        while (grain(first_split) >= first_split)
            ++first_split;
        int64_t many = max_segments;
        while (many % grain(many) == 0)
            --many;
        EXPECT_LT(4 * grain(many), many);
        return std::vector<int64_t>{first_split / 3, first_split - 1,
                                    first_split, many};
    };

    std::vector<kernels::KernelMode> modes = {kernels::KernelMode::Scalar};
    if (avx2Available())
        modes.push_back(kernels::KernelMode::Avx2);
    obs::Metrics::setEnabled(true);
    const obs::Counter& parallel_fors =
        obs::Metrics::counter("pool.parallel_fors");
    for (const kernels::KernelMode mode : modes) {
        kernels::setKernelMode(mode);
        for (const kernels::Reduce reduce :
             {kernels::Reduce::Sum, kernels::Reduce::Mean,
              kernels::Reduce::Max}) {
            for (const bool identity : {false, true}) {
                const int64_t* src = identity ? nullptr : sources.data();
                const auto& off = identity ? identity_offsets : offsets;
                for (const int64_t segments : shapes_for(off)) {
                    const int64_t grain = kernels::aggregateBlockSegments(
                        segments, off[size_t(segments)], cols);
                    AggregateResult serial;
                    for (const int32_t lanes : {1, 2, 3, 8}) {
                        SCOPED_TRACE(testing::Message()
                                     << kernels::kernelModeName(mode)
                                     << " reduce " << int(reduce)
                                     << " identity " << identity
                                     << " segments=" << segments
                                     << " lanes=" << lanes);
                        ThreadPool::setGlobalThreads(lanes);
                        const int64_t before = parallel_fors.value();
                        auto r = runAggregate(x, rows, cols, src, off,
                                              segments, reduce, segments);
                        // Non-vacuous: split shapes went through the
                        // pool, one-block shapes ran inline.
                        if (segments > grain) {
                            EXPECT_GT(parallel_fors.value(), before);
                        } else {
                            EXPECT_EQ(parallel_fors.value(), before);
                        }
                        if (lanes == 1) {
                            // One call per block: each runs inline.
                            serial = runAggregate(x, rows, cols, src, off,
                                                  segments, reduce, grain);
                        }
                        expectBitExact(serial.out, r.out);
                        EXPECT_EQ(serial.argmax, r.argmax);
                    }
                }
            }
        }
    }

    // The backward stays on the calling thread: two segments may
    // share a source row, so a split by segments would race on it.
    const auto grad_out = randomValues(rng, max_segments * cols);
    std::vector<float> grad_x(size_t(rows * cols), 0.0f);
    for (const kernels::KernelMode mode : modes) {
        kernels::setKernelMode(mode);
        for (const bool mean : {false, true}) {
            const int64_t before = parallel_fors.value();
            kernels::gatherAggregateBackward(
                grad_out.data(), cols, sources.data(), offsets.data(),
                max_segments, mean, grad_x.data());
            EXPECT_EQ(parallel_fors.value(), before);
        }
    }
}

TEST(AggregateSources, OutOfRangeSourcePanicsUnderEitherBackendAtAnyWidth)
{
    // gatherAggregate checks every source once per call, before any
    // block runs, so a bad index panics under either backend and at
    // any width, not only where a vector loop happens to read it.
    const int64_t rows = 4;
    const std::vector<int64_t> sources{0, 3, 7, 1};
    const std::vector<int64_t> offsets{0, 2, 4};
    std::vector<kernels::KernelMode> modes = {kernels::KernelMode::Scalar};
    if (avx2Available())
        modes.push_back(kernels::KernelMode::Avx2);
    for (const kernels::KernelMode mode : modes) {
        for (const kernels::Reduce reduce :
             {kernels::Reduce::Sum, kernels::Reduce::Mean,
              kernels::Reduce::Max}) {
            for (const int64_t cols : {1, 7, 8, 16, 31, 32, 33}) {
                SCOPED_TRACE(testing::Message()
                             << kernels::kernelModeName(mode)
                             << " reduce " << int(reduce)
                             << " cols=" << cols);
                const std::vector<float> x(size_t(rows * cols), 1.0f);
                std::vector<float> out(size_t(2 * cols));
                std::vector<int64_t> argmax(size_t(2 * cols));
                EXPECT_DEATH(
                    {
                        kernels::setKernelMode(mode);
                        kernels::gatherAggregate(
                            x.data(), rows, cols, sources.data(),
                            offsets.data(), 2, reduce, out.data(),
                            argmax.data());
                    },
                    "source index out of range");
            }
        }
        // The identity reads rows offsets[0] .. offsets[segments].
        const std::vector<float> x(size_t(rows * 8), 1.0f);
        const std::vector<int64_t> past_rows{0, 3, 5};
        std::vector<float> out(16);
        EXPECT_DEATH(
            {
                kernels::setKernelMode(mode);
                kernels::gatherAggregate(x.data(), rows, 8, nullptr,
                                         past_rows.data(), 2,
                                         kernels::Reduce::Sum,
                                         out.data());
            },
            "source index out of range");
    }
    kernels::resetKernelModeForTest();
}

/** Shared fixture for the end-to-end parity tests. */
struct TrainSetup
{
    TrainSetup()
        : dataset(loadCatalogDataset("arxiv_like", 0.02, 31)),
          sampler(dataset.graph, {4, 6}, 32)
    {
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 64);
        batch = sampler.sample(seeds);
    }

    GraphSage makeModel(AggregatorKind aggregator)
    {
        SageConfig cfg;
        cfg.inputDim = dataset.featureDim();
        cfg.hiddenDim = 16;
        cfg.numClasses = dataset.numClasses;
        cfg.numLayers = 2;
        cfg.aggregator = aggregator;
        cfg.seed = 77;
        return GraphSage(cfg);
    }

    Dataset dataset;
    NeighborSampler sampler;
    MultiLayerBatch batch;
};

/** One forward/backward of a fresh model under @p mode; returns
 * {loss, param gradients}. */
std::pair<float, std::vector<Tensor>>
lossAndGrads(TrainSetup& setup, AggregatorKind aggregator,
             kernels::KernelMode mode)
{
    kernels::setKernelMode(mode);
    GraphSage model = setup.makeModel(aggregator);
    Tensor feats(int64_t(setup.batch.inputNodes().size()),
                 setup.dataset.featureDim());
    for (size_t i = 0; i < setup.batch.inputNodes().size(); ++i)
        std::copy_n(setup.dataset.features.data() +
                        setup.batch.inputNodes()[i] *
                            setup.dataset.featureDim(),
                    setup.dataset.featureDim(),
                    feats.data() +
                        int64_t(i) * setup.dataset.featureDim());
    std::vector<int32_t> labels;
    for (int64_t v : setup.batch.outputNodes())
        labels.push_back(setup.dataset.labels[size_t(v)]);
    const auto logits =
        model.forward(setup.batch, ag::constant(std::move(feats)));
    const auto loss =
        ag::softmaxCrossEntropy(logits, std::move(labels));
    ag::backward(loss);
    std::vector<Tensor> grads;
    for (const auto& p : model.parameters())
        grads.push_back(p->grad.empty()
                            ? Tensor::zeros(p->value.rows(),
                                            p->value.cols())
                            : p->grad.clone());
    kernels::resetKernelModeForTest();
    return {loss->value.at(0, 0), std::move(grads)};
}

class KernelEndToEnd
    : public ::testing::TestWithParam<AggregatorKind>
{
  protected:
    void SetUp() override
    {
        if (!avx2Available())
            GTEST_SKIP() << "AVX2 unavailable";
    }

    void TearDown() override { kernels::resetKernelModeForTest(); }
};

TEST_P(KernelEndToEnd, GradientEquivalenceAcrossBackends)
{
    TrainSetup setup;
    auto [scalar_loss, scalar_grads] = lossAndGrads(
        setup, GetParam(), kernels::KernelMode::Scalar);
    auto [avx2_loss, avx2_grads] =
        lossAndGrads(setup, GetParam(), kernels::KernelMode::Avx2);

    EXPECT_EQ(scalar_loss, avx2_loss);
    ASSERT_EQ(scalar_grads.size(), avx2_grads.size());
    const auto values = [](const Tensor& t) {
        return std::vector<float>(t.data(), t.data() + t.numel());
    };
    for (size_t i = 0; i < scalar_grads.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "param " << i);
        expectBitExact(values(scalar_grads[i]), values(avx2_grads[i]));
    }
}

INSTANTIATE_TEST_SUITE_P(Aggregators, KernelEndToEnd,
                         ::testing::Values(AggregatorKind::Mean,
                                           AggregatorKind::Sum,
                                           AggregatorKind::Pool));

TEST_F(KernelEquivalence, EndToEndLossParityOverEpochs)
{
    // Full Trainer loop (arena, pipelining, micro-batches) under each
    // backend: per-epoch losses must be equal — the backends are
    // interchangeable for training, bit for bit.
    std::vector<std::vector<double>> losses;
    for (auto mode : {kernels::KernelMode::Scalar,
                      kernels::KernelMode::Avx2}) {
        kernels::setKernelMode(mode);
        TrainSetup setup;
        GraphSage model = setup.makeModel(AggregatorKind::Mean);
        Adam opt(model.parameters(), 0.01f);
        Trainer trainer(setup.dataset, model, opt);
        const auto micros = extractMicroBatches(
            setup.batch,
            BettyPartitioner().partition(setup.batch, 4));
        std::vector<double> epoch_losses;
        for (int epoch = 0; epoch < 3; ++epoch)
            epoch_losses.push_back(
                trainer.trainMicroBatches(micros).loss);
        losses.push_back(std::move(epoch_losses));
        kernels::resetKernelModeForTest();
    }
    EXPECT_EQ(losses[0], losses[1]);
}

} // namespace
} // namespace betty
