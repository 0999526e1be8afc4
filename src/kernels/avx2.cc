/**
 * @file
 * AVX2 backend. This translation unit is the only one compiled with
 * -mavx2 (see src/kernels/CMakeLists.txt); nothing here runs unless
 * dispatch.cc verified the CPU reports AVX2.
 *
 * Numeric design (docs/KERNELS.md): every kernel is bit-exact with
 * the scalar reference. Vector lanes run across output columns, never
 * across the reduction axis, so each element sees its contributions
 * in exactly the scalar sequence, and every multiply-add is a
 * multiply then an add, rounded twice like the scalar `c += a * b`
 * (the build enables no FMA). gemmTransB keeps the reference's one
 * double accumulator per output element, in k order.
 */
#include "kernels/kernels_internal.h"

#ifdef BETTY_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace betty::kernels::detail {

namespace {

/** Source row of edge @p e (mirror of the scalar backend's helper). */
inline int64_t
sourceRow(const int64_t* sources, int64_t e)
{
    return sources ? sources[e] : e;
}

/** acc + a * b, rounded after the multiply and again after the add,
 * exactly like the scalar `acc += a * b` (never fused). */
inline __m256
mulAdd(__m256 acc, __m256 a, __m256 b)
{
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

/** The double-precision mulAdd of gemmTransB's accumulators. */
inline __m256d
mulAdd(__m256d acc, __m256d a, __m256d b)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
}

/** c[0..4) += float(sum[0..4)): each lane like the scalar
 * `c += static_cast<float>(acc)`. */
inline void
addRounded(float* c, __m256d sum)
{
    _mm_storeu_ps(c, _mm_add_ps(_mm_loadu_ps(c), _mm256_cvtpd_ps(sum)));
}

/**
 * crow[j, n) += A's row · B over the whole k loop, where arow[kk · step]
 * is that row's k-th entry: 32-column register tiles, then 8-column
 * ones, then the scalar tail. Each C tile stays in registers across
 * all of k, so each element is written once instead of k times and B
 * streams through cache row by row. The aval == 0 skip (ReLU
 * sparsity) is preserved.
 */
inline void
gemmRow(const float* arow, int64_t step, const float* b, float* crow,
        int64_t k, int64_t n, int64_t j)
{
    for (; j + 32 <= n; j += 32) {
        float* ctile = crow + j;
        __m256 c0 = _mm256_loadu_ps(ctile);
        __m256 c1 = _mm256_loadu_ps(ctile + 8);
        __m256 c2 = _mm256_loadu_ps(ctile + 16);
        __m256 c3 = _mm256_loadu_ps(ctile + 24);
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aval = arow[kk * step];
            if (aval == 0.0f)
                continue;
            const __m256 av = _mm256_set1_ps(aval);
            const float* btile = b + kk * n + j;
            c0 = mulAdd(c0, av, _mm256_loadu_ps(btile));
            c1 = mulAdd(c1, av, _mm256_loadu_ps(btile + 8));
            c2 = mulAdd(c2, av, _mm256_loadu_ps(btile + 16));
            c3 = mulAdd(c3, av, _mm256_loadu_ps(btile + 24));
        }
        _mm256_storeu_ps(ctile, c0);
        _mm256_storeu_ps(ctile + 8, c1);
        _mm256_storeu_ps(ctile + 16, c2);
        _mm256_storeu_ps(ctile + 24, c3);
    }
    for (; j + 8 <= n; j += 8) {
        __m256 c0 = _mm256_loadu_ps(crow + j);
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aval = arow[kk * step];
            if (aval == 0.0f)
                continue;
            c0 = mulAdd(c0, _mm256_set1_ps(aval),
                        _mm256_loadu_ps(b + kk * n + j));
        }
        _mm256_storeu_ps(crow + j, c0);
    }
    if (j < n) {
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aval = arow[kk * step];
            if (aval == 0.0f)
                continue;
            const float* brow = b + kk * n;
            for (int64_t jj = j; jj < n; ++jj)
                crow[jj] += aval * brow[jj];
        }
    }
}

} // namespace

void
gemmAvx2(const float* a, const float* b, float* c, int64_t m,
         int64_t k, int64_t n)
{
    for (int64_t i = 0; i < m; ++i)
        gemmRow(a + i * k, 1, b, c + i * n, k, n, 0);
}

namespace {

/** Bit r set when a[r] is ±0.0, for r < 4 (a NaN is not zero). */
inline int
zeroMask4(const float* a)
{
    return _mm_movemask_ps(
        _mm_cmpeq_ps(_mm_loadu_ps(a), _mm_setzero_ps()));
}

/**
 * Rows [i, i + 4) and columns [j, j + 16) of gemmTransA's C, held in
 * eight ymm accumulators for the whole k loop and stored once. Per k
 * it loads two vectors of B's row k and broadcasts the four contiguous
 * floats a[k·m + i ...]. A zero in A (either sign) skips its row's
 * update for that k, as in the scalar reference, so an Inf or NaN in
 * B never reaches C and a -0.0 in C stays -0.0.
 */
inline void
transATile4x16(const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n, int64_t i, int64_t j)
{
    float* c0 = c + i * n + j;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    __m256 c00 = _mm256_loadu_ps(c0), c01 = _mm256_loadu_ps(c0 + 8);
    __m256 c10 = _mm256_loadu_ps(c1), c11 = _mm256_loadu_ps(c1 + 8);
    __m256 c20 = _mm256_loadu_ps(c2), c21 = _mm256_loadu_ps(c2 + 8);
    __m256 c30 = _mm256_loadu_ps(c3), c31 = _mm256_loadu_ps(c3 + 8);
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* ak = a + kk * m + i;
        const __m256 b0 = _mm256_loadu_ps(b + kk * n + j);
        const __m256 b1 = _mm256_loadu_ps(b + kk * n + j + 8);
        const int zeros = zeroMask4(ak);
        if (!(zeros & 1)) {
            const __m256 av = _mm256_broadcast_ss(ak);
            c00 = mulAdd(c00, av, b0);
            c01 = mulAdd(c01, av, b1);
        }
        if (!(zeros & 2)) {
            const __m256 av = _mm256_broadcast_ss(ak + 1);
            c10 = mulAdd(c10, av, b0);
            c11 = mulAdd(c11, av, b1);
        }
        if (!(zeros & 4)) {
            const __m256 av = _mm256_broadcast_ss(ak + 2);
            c20 = mulAdd(c20, av, b0);
            c21 = mulAdd(c21, av, b1);
        }
        if (!(zeros & 8)) {
            const __m256 av = _mm256_broadcast_ss(ak + 3);
            c30 = mulAdd(c30, av, b0);
            c31 = mulAdd(c31, av, b1);
        }
    }
    _mm256_storeu_ps(c0, c00);
    _mm256_storeu_ps(c0 + 8, c01);
    _mm256_storeu_ps(c1, c10);
    _mm256_storeu_ps(c1 + 8, c11);
    _mm256_storeu_ps(c2, c20);
    _mm256_storeu_ps(c2 + 8, c21);
    _mm256_storeu_ps(c3, c30);
    _mm256_storeu_ps(c3 + 8, c31);
}

} // namespace

void
gemmTransAAvx2(const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n, int64_t row_lo, int64_t row_hi)
{
    // Output row i is column i of the stored A (k x m), read down its
    // stride m. Four rows at a time take 4 x 16 register tiles; their
    // last n % 16 columns, and the rows left over, take gemm's one-row
    // loop. Every element still sees its k terms in order.
    int64_t i = row_lo;
    for (; i + 4 <= row_hi; i += 4) {
        int64_t j = 0;
        for (; j + 16 <= n; j += 16)
            transATile4x16(a, b, c, m, k, n, i, j);
        for (int64_t r = i; j < n && r < i + 4; ++r)
            gemmRow(a + r, m, b, c + r * n, k, n, j);
    }
    for (; i < row_hi; ++i)
        gemmRow(a + i, m, b, c + i * n, k, n, 0);
}

void
gemmTransBAvx2(const float* a, const double* bt, float* c, int64_t m,
               int64_t k, int64_t n)
{
    // bt holds B transposed (k x n) and widened to double, so the
    // lanes run across output columns. Each lane is one output
    // element's double accumulator: it sums the exact float x float
    // products in k order, and only the finished sum is rounded to
    // float and added to C, as in the scalar reference. A 32-column
    // tile keeps eight independent accumulator chains in flight.
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        int64_t j = 0;
        for (; j + 32 <= n; j += 32) {
            __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
            __m256d s2 = _mm256_setzero_pd(), s3 = _mm256_setzero_pd();
            __m256d s4 = _mm256_setzero_pd(), s5 = _mm256_setzero_pd();
            __m256d s6 = _mm256_setzero_pd(), s7 = _mm256_setzero_pd();
            for (int64_t kk = 0; kk < k; ++kk) {
                const __m256d av = _mm256_set1_pd(double(arow[kk]));
                const double* btile = bt + kk * n + j;
                s0 = mulAdd(s0, av, _mm256_loadu_pd(btile));
                s1 = mulAdd(s1, av, _mm256_loadu_pd(btile + 4));
                s2 = mulAdd(s2, av, _mm256_loadu_pd(btile + 8));
                s3 = mulAdd(s3, av, _mm256_loadu_pd(btile + 12));
                s4 = mulAdd(s4, av, _mm256_loadu_pd(btile + 16));
                s5 = mulAdd(s5, av, _mm256_loadu_pd(btile + 20));
                s6 = mulAdd(s6, av, _mm256_loadu_pd(btile + 24));
                s7 = mulAdd(s7, av, _mm256_loadu_pd(btile + 28));
            }
            addRounded(crow + j, s0);
            addRounded(crow + j + 4, s1);
            addRounded(crow + j + 8, s2);
            addRounded(crow + j + 12, s3);
            addRounded(crow + j + 16, s4);
            addRounded(crow + j + 20, s5);
            addRounded(crow + j + 24, s6);
            addRounded(crow + j + 28, s7);
        }
        for (; j + 4 <= n; j += 4) {
            __m256d s0 = _mm256_setzero_pd();
            for (int64_t kk = 0; kk < k; ++kk)
                s0 = mulAdd(s0, _mm256_set1_pd(double(arow[kk])),
                            _mm256_loadu_pd(bt + kk * n + j));
            addRounded(crow + j, s0);
        }
        for (; j < n; ++j) {
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += double(arow[kk]) * bt[kk * n + j];
            crow[j] += static_cast<float>(acc);
        }
    }
}

void
gatherAggregateAvx2(const float* x, int64_t rows, int64_t cols,
                    const int64_t* sources, const int64_t* offsets,
                    int64_t segments, Reduce reduce, float* out,
                    int64_t* argmax)
{
    if (reduce == Reduce::Max) {
        BETTY_ASSERT(rows <= std::numeric_limits<int32_t>::max(),
                     "Max aggregation row index exceeds 32-bit lane");
        for (int64_t s = 0; s < segments; ++s) {
            const int64_t begin = offsets[s], end = offsets[s + 1];
            float* orow = out + s * cols;
            int64_t* arow = argmax ? argmax + s * cols : nullptr;
            int64_t j = 0;
            for (; j + 8 <= cols; j += 8) {
                // Lane semantics mirror the scalar chain exactly:
                // take the first edge unconditionally (idx still -1),
                // then strict v > best — so a leading NaN sticks and
                // later NaNs lose, matching the reference bit-for-bit.
                __m256 best = _mm256_setzero_ps();
                __m256i idx = _mm256_set1_epi32(-1);
                for (int64_t e = begin; e < end; ++e) {
                    const int64_t src = sourceRow(sources, e);
                    const __m256 v =
                        _mm256_loadu_ps(x + src * cols + j);
                    const __m256 first = _mm256_castsi256_ps(
                        _mm256_cmpeq_epi32(idx,
                                           _mm256_set1_epi32(-1)));
                    const __m256 gt =
                        _mm256_cmp_ps(v, best, _CMP_GT_OQ);
                    const __m256 take = _mm256_or_ps(first, gt);
                    best = _mm256_blendv_ps(best, v, take);
                    idx = _mm256_blendv_epi8(
                        idx, _mm256_set1_epi32(int32_t(src)),
                        _mm256_castps_si256(take));
                }
                // Empty segments: idx lanes stay -1 and best stays 0,
                // so the masked store below writes the zero row.
                const __m256 valid = _mm256_castsi256_ps(
                    _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1)));
                _mm256_storeu_ps(
                    orow + j,
                    _mm256_and_ps(best, valid));
                if (arow) {
                    const __m128i lo = _mm256_castsi256_si128(idx);
                    const __m128i hi =
                        _mm256_extracti128_si256(idx, 1);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(arow + j),
                        _mm256_cvtepi32_epi64(lo));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(arow + j + 4),
                        _mm256_cvtepi32_epi64(hi));
                }
            }
            for (; j < cols; ++j) {
                float best = 0.0f;
                int64_t best_row = -1;
                for (int64_t e = begin; e < end; ++e) {
                    const int64_t src = sourceRow(sources, e);
                    const float v = x[src * cols + j];
                    if (best_row < 0 || v > best) {
                        best = v;
                        best_row = src;
                    }
                }
                orow[j] = best_row >= 0 ? best : 0.0f;
                if (arow)
                    arow[j] = best_row;
            }
        }
        return;
    }

    const bool mean = reduce == Reduce::Mean;
    for (int64_t s = 0; s < segments; ++s) {
        const int64_t begin = offsets[s], end = offsets[s + 1];
        const int64_t deg = end - begin;
        const float scale =
            mean && deg > 0 ? 1.0f / float(deg) : 1.0f;
        const __m256 sv = _mm256_set1_ps(scale);
        float* orow = out + s * cols;
        int64_t j = 0;
        // A 32-column tile accumulates in registers across all of the
        // segment's edges — the fused gather never materializes the
        // [edges, cols] matrix, and per-element edge order is the
        // scalar order.
        for (; j + 32 <= cols; j += 32) {
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            for (int64_t e = begin; e < end; ++e) {
                const float* xtile =
                    x + sourceRow(sources, e) * cols + j;
                a0 = mulAdd(a0, sv, _mm256_loadu_ps(xtile));
                a1 = mulAdd(a1, sv, _mm256_loadu_ps(xtile + 8));
                a2 = mulAdd(a2, sv, _mm256_loadu_ps(xtile + 16));
                a3 = mulAdd(a3, sv, _mm256_loadu_ps(xtile + 24));
            }
            _mm256_storeu_ps(orow + j, a0);
            _mm256_storeu_ps(orow + j + 8, a1);
            _mm256_storeu_ps(orow + j + 16, a2);
            _mm256_storeu_ps(orow + j + 24, a3);
        }
        for (; j + 8 <= cols; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            for (int64_t e = begin; e < end; ++e) {
                const int64_t src = sourceRow(sources, e);
                acc = mulAdd(acc, sv,
                             _mm256_loadu_ps(x + src * cols + j));
            }
            _mm256_storeu_ps(orow + j, acc);
        }
        if (j < cols) {
            for (int64_t jj = j; jj < cols; ++jj)
                orow[jj] = 0.0f;
            for (int64_t e = begin; e < end; ++e) {
                const float* xrow = x + sourceRow(sources, e) * cols;
                for (int64_t jj = j; jj < cols; ++jj)
                    orow[jj] += scale * xrow[jj];
            }
        }
    }
}

void
gatherAggregateBackwardAvx2(const float* grad_out, int64_t cols,
                            const int64_t* sources,
                            const int64_t* offsets, int64_t segments,
                            bool mean, float* grad_x)
{
    for (int64_t s = 0; s < segments; ++s) {
        const int64_t begin = offsets[s], end = offsets[s + 1];
        const int64_t deg = end - begin;
        if (deg == 0)
            continue;
        const float scale = mean ? 1.0f / float(deg) : 1.0f;
        const __m256 sv = _mm256_set1_ps(scale);
        const float* grow = grad_out + s * cols;
        for (int64_t e = begin; e < end; ++e) {
            float* xrow = grad_x + sourceRow(sources, e) * cols;
            int64_t j = 0;
            for (; j + 8 <= cols; j += 8)
                _mm256_storeu_ps(xrow + j,
                                 mulAdd(_mm256_loadu_ps(xrow + j), sv,
                                        _mm256_loadu_ps(grow + j)));
            for (; j < cols; ++j)
                xrow[j] += scale * grow[j];
        }
    }
}

void
addInPlaceAvx2(float* y, const float* x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i),
                                       _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        y[i] += x[i];
}

void
addScaledInPlaceAvx2(float* y, const float* x, float alpha, int64_t n)
{
    const __m256 av = _mm256_set1_ps(alpha);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i, mulAdd(_mm256_loadu_ps(y + i), av,
                                       _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scaleInPlaceAvx2(float* y, float alpha, int64_t n)
{
    const __m256 av = _mm256_set1_ps(alpha);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            y + i, _mm256_mul_ps(av, _mm256_loadu_ps(y + i)));
    for (; i < n; ++i)
        y[i] *= alpha;
}

} // namespace betty::kernels::detail

#endif // BETTY_KERNELS_HAVE_AVX2
