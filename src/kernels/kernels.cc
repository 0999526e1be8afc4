/**
 * @file
 * Kernel dispatch wrappers plus the scalar reference backend.
 *
 * The scalar loops are the pre-kernel tensor.cc / autograd.cc bodies
 * moved here verbatim — including the zero-skip in gemm/gemmTransA
 * and the double accumulator in gemmTransB — so the scalar path stays
 * bit-identical to every recorded golden hash. Do not "clean up"
 * these loops; numeric equivalence is load-bearing.
 */
#include "kernels/kernels.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "kernels/arena.h"
#include "kernels/dispatch.h"
#include "kernels/kernels_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty::kernels {

namespace detail {

void
gemmScalar(const float* a, const float* b, float* c, int64_t m,
           int64_t k, int64_t n)
{
    // i-k-j loop order streams B and C rows; good cache behaviour for
    // the tall-skinny shapes (many nodes x small hidden) GNN training
    // produces. The aval == 0 skip exploits ReLU sparsity.
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aval = arow[kk];
            if (aval == 0.0f)
                continue;
            const float* brow = b + kk * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
}

void
gemmTransAScalar(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, int64_t row_lo, int64_t row_hi)
{
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * m;
        const float* brow = b + kk * n;
        for (int64_t i = row_lo; i < row_hi; ++i) {
            const float aval = arow[i];
            if (aval == 0.0f)
                continue;
            float* crow = c + i * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
}

void
gemmTransBScalar(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n)
{
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += double(arow[kk]) * double(brow[kk]);
            crow[j] += static_cast<float>(acc);
        }
    }
}

namespace {

/** Source row of edge @p e: indirect through sources when present,
 * else the contiguous-segment identity (segmentSum/Mean/Max). */
inline int64_t
sourceRow(const int64_t* sources, int64_t e)
{
    return sources ? sources[e] : e;
}

} // namespace

void
gatherAggregateScalar(const float* x, int64_t /*rows*/, int64_t cols,
                      const int64_t* sources, const int64_t* offsets,
                      int64_t segments, Reduce reduce, float* out,
                      int64_t* argmax)
{
    if (reduce == Reduce::Max) {
        for (int64_t s = 0; s < segments; ++s) {
            for (int64_t j = 0; j < cols; ++j) {
                float best = 0.0f;
                int64_t best_row = -1;
                for (int64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
                    const int64_t src = sourceRow(sources, e);
                    const float v = x[src * cols + j];
                    if (best_row < 0 || v > best) {
                        best = v;
                        best_row = src;
                    }
                }
                out[s * cols + j] = best_row >= 0 ? best : 0.0f;
                if (argmax)
                    argmax[s * cols + j] = best_row;
            }
        }
        return;
    }
    const bool mean = reduce == Reduce::Mean;
    for (int64_t s = 0; s < segments; ++s) {
        float* orow = out + s * cols;
        for (int64_t j = 0; j < cols; ++j)
            orow[j] = 0.0f;
        const int64_t deg = offsets[s + 1] - offsets[s];
        if (deg == 0)
            continue;
        const float scale = mean ? 1.0f / float(deg) : 1.0f;
        for (int64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
            const float* xrow = x + sourceRow(sources, e) * cols;
            for (int64_t j = 0; j < cols; ++j)
                orow[j] += scale * xrow[j];
        }
    }
}

void
gatherAggregateBackwardScalar(const float* grad_out, int64_t cols,
                              const int64_t* sources,
                              const int64_t* offsets, int64_t segments,
                              bool mean, float* grad_x)
{
    for (int64_t s = 0; s < segments; ++s) {
        const int64_t deg = offsets[s + 1] - offsets[s];
        if (deg == 0)
            continue;
        const float scale = mean ? 1.0f / float(deg) : 1.0f;
        const float* grow = grad_out + s * cols;
        for (int64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
            float* xrow = grad_x + sourceRow(sources, e) * cols;
            for (int64_t j = 0; j < cols; ++j)
                xrow[j] += scale * grow[j];
        }
    }
}

void
addInPlaceScalar(float* y, const float* x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] += x[i];
}

void
addScaledInPlaceScalar(float* y, const float* x, float alpha,
                       int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scaleInPlaceScalar(float* y, float alpha, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] *= alpha;
}

} // namespace detail

namespace {

/** Shared dispatch predicate: one cached-atomic load per call. */
inline bool
useAvx2()
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    return activeBackend() == Backend::Avx2;
#else
    return false;
#endif
}

/**
 * FLOPs of one parallel GEMM block. A compile-time constant, so block
 * boundaries depend only on the shape (docs/PARALLELISM.md rule 1).
 */
constexpr int64_t kGemmBlockFlops = int64_t(1) << 20;

/**
 * Run @p rows(lo, hi) over the output rows [0, m) of a GEMM, one block
 * of gemmBlockRows(k, n) rows per chunk of the global pool. Each
 * output row is written by exactly one chunk, which runs the backend's
 * own k order for it, so c is bit-identical for any lane count.
 */
template <typename Rows>
void
forEachRowBlock(int64_t m, int64_t k, int64_t n, const Rows& rows)
{
    const int64_t grain = gemmBlockRows(k, n);
    if (m <= grain)
        return rows(0, m);
    // Passed by reference, so the std::function holds one pointer
    // in place rather than copying the captures to the heap.
    ThreadPool::global().parallelFor(
        0, m, grain, [&rows](int64_t lo, int64_t hi) { rows(lo, hi); });
}

/**
 * Edge-column work, (edges + segments) · cols, of one parallel block
 * of gatherAggregate. A compile-time constant, so block boundaries
 * depend only on the shape (docs/PARALLELISM.md rule 1).
 */
constexpr int64_t kAggregateBlockWork = int64_t(1) << 17;

/** Panics unless every edge of a gatherAggregate call reads a row of
 * x in [0, rows). Null sources read rows offsets[0] .. offsets[segments]. */
void
checkSources(const int64_t* sources, const int64_t* offsets,
             int64_t segments, int64_t rows)
{
    const int64_t begin = offsets[0], end = offsets[segments];
    bool in_range = true;
    if (!sources)
        in_range = begin >= end || (begin >= 0 && end <= rows);
    else
        // One unsigned compare per edge also rejects negatives.
        for (int64_t e = begin; e < end; ++e)
            in_range &= uint64_t(sources[e]) < uint64_t(rows);
    BETTY_ASSERT(in_range, "source index out of range");
}

} // namespace

int64_t
aggregateBlockSegments(int64_t segments, int64_t edges, int64_t cols)
{
    const int64_t blocks = std::max<int64_t>(
        1, (edges + segments) * cols / kAggregateBlockWork);
    return std::max<int64_t>(1, (segments + blocks - 1) / blocks);
}

int64_t
gemmBlockRows(int64_t k, int64_t n)
{
    return std::max<int64_t>(
        1, kGemmBlockFlops / std::max<int64_t>(1, 2 * k * n));
}

void
gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
     int64_t n)
{
    BETTY_TRACE_SPAN_CAT("kernel/gemm", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.gemm.calls");
    static obs::Counter& flops = obs::Metrics::counter("kernel.gemm.flops");
    calls.add(1);
    flops.add(2 * m * k * n);
    [[maybe_unused]] const bool avx2 = useAvx2();
    forEachRowBlock(m, k, n, [=](int64_t lo, int64_t hi) {
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gemmAvx2(a + lo * k, b, c + lo * n, hi - lo,
                                    k, n);
#endif
        detail::gemmScalar(a + lo * k, b, c + lo * n, hi - lo, k, n);
    });
}

void
gemmTransA(const float* a, const float* b, float* c, int64_t m,
           int64_t k, int64_t n)
{
    BETTY_TRACE_SPAN_CAT("kernel/gemm_ta", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.gemm.calls");
    static obs::Counter& flops = obs::Metrics::counter("kernel.gemm.flops");
    calls.add(1);
    flops.add(2 * m * k * n);
    [[maybe_unused]] const bool avx2 = useAvx2();
    forEachRowBlock(m, k, n, [=](int64_t lo, int64_t hi) {
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gemmTransAAvx2(a, b, c, m, k, n, lo, hi);
#endif
        detail::gemmTransAScalar(a, b, c, m, k, n, lo, hi);
    });
}

void
gemmTransB(const float* a, const float* b, float* c, int64_t m,
           int64_t k, int64_t n)
{
    BETTY_TRACE_SPAN_CAT("kernel/gemm_tb", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.gemm.calls");
    static obs::Counter& flops = obs::Metrics::counter("kernel.gemm.flops");
    calls.add(1);
    flops.add(2 * m * k * n);
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2()) {
        // The AVX2 loop runs across output columns, so it reads B
        // transposed and widened to double. The calling thread packs
        // it once per call into a buffer it keeps: a warm caller
        // allocates nothing, and nothing comes from the arena, so the
        // arena's counters are the same under both backends. The
        // packed matrix starts on a cache line, like tensor storage
        // (the buffer has one to spare): at malloc's 16-byte alignment
        // half of the kernel's 32-byte loads could straddle two lines,
        // so where the heap put the buffer would set the kernel's
        // speed for a whole run.
        thread_local std::vector<double> packed;
        const size_t count = size_t(k * n);
        packed.resize(count + size_t(kArenaAlign) / sizeof(double));
        void* start = packed.data();
        size_t space = packed.size() * sizeof(double);
        double* bt = static_cast<double*>(std::align(
            size_t(kArenaAlign), count * sizeof(double), start, space));
        for (int64_t j = 0; j < n; ++j)
            for (int64_t kk = 0; kk < k; ++kk)
                bt[kk * n + j] = double(b[j * k + kk]);
        return forEachRowBlock(m, k, n, [=](int64_t lo, int64_t hi) {
            detail::gemmTransBAvx2(a + lo * k, bt, c + lo * n, hi - lo,
                                   k, n);
        });
    }
#endif
    forEachRowBlock(m, k, n, [=](int64_t lo, int64_t hi) {
        detail::gemmTransBScalar(a + lo * k, b, c + lo * n, hi - lo, k,
                                 n);
    });
}

void
gatherAggregate(const float* x, int64_t rows, int64_t cols,
                const int64_t* sources, const int64_t* offsets,
                int64_t segments, Reduce reduce, float* out,
                int64_t* argmax)
{
    BETTY_ASSERT(reduce != Reduce::Max || argmax != nullptr,
                 "Max aggregation needs an argmax buffer");
    BETTY_TRACE_SPAN_CAT("kernel/gather_aggregate", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.agg.calls");
    static obs::Counter& edges = obs::Metrics::counter("kernel.agg.edges");
    calls.add(1);
    if (segments <= 0)
        return;
    const int64_t edge_count = offsets[segments];
    edges.add(edge_count);
    checkSources(sources, offsets, segments, rows);
    // Blocks of whole segments: each output row has one owner and sees
    // its edges in order. Offsets are absolute edge positions, so every
    // block shares sources (and the identity of null sources).
    [[maybe_unused]] const bool avx2 = useAvx2();
    const auto run = [=](int64_t lo, int64_t hi) {
        int64_t* block_argmax = argmax ? argmax + lo * cols : nullptr;
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gatherAggregateAvx2(
                x, rows, cols, sources, offsets + lo, hi - lo, reduce,
                out + lo * cols, block_argmax);
#endif
        detail::gatherAggregateScalar(x, rows, cols, sources,
                                      offsets + lo, hi - lo, reduce,
                                      out + lo * cols, block_argmax);
    };
    const int64_t grain =
        aggregateBlockSegments(segments, edge_count, cols);
    if (segments <= grain)
        return run(0, segments);
    ThreadPool::global().parallelFor(
        0, segments, grain,
        [&run](int64_t lo, int64_t hi) { run(lo, hi); });
}

void
gatherAggregateBackward(const float* grad_out, int64_t cols,
                        const int64_t* sources, const int64_t* offsets,
                        int64_t segments, bool mean, float* grad_x)
{
    BETTY_TRACE_SPAN_CAT("kernel/gather_aggregate_bwd", "compute");
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::gatherAggregateBackwardAvx2(
            grad_out, cols, sources, offsets, segments, mean, grad_x);
#endif
    detail::gatherAggregateBackwardScalar(grad_out, cols, sources,
                                          offsets, segments, mean,
                                          grad_x);
}

void
gatherRows(const float* x, int64_t rows, int64_t cols,
           const int64_t* indices, int64_t count, float* out)
{
    BETTY_TRACE_SPAN_CAT("kernel/gather_rows", "gather");
    static obs::Counter& gathered =
        obs::Metrics::counter("kernel.gather.rows");
    gathered.add(count);
    // Row copies are pure bandwidth; memcpy already saturates it, so
    // both backends share this path (bit-exact by construction).
    for (int64_t i = 0; i < count; ++i) {
        const int64_t src = indices[i];
        BETTY_ASSERT(src >= 0 && src < rows, "gatherRows index ", src,
                     " out of range");
        __builtin_memcpy(out + i * cols, x + src * cols,
                         size_t(cols) * sizeof(float));
    }
}

void
scatterAddRows(const float* grad, int64_t cols, const int64_t* indices,
               int64_t count, float* grad_x)
{
    for (int64_t i = 0; i < count; ++i) {
        const float* grow = grad + i * cols;
        float* xrow = grad_x + indices[i] * cols;
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (useAvx2()) {
            detail::addInPlaceAvx2(xrow, grow, cols);
            continue;
        }
#endif
        detail::addInPlaceScalar(xrow, grow, cols);
    }
}

void
addInPlace(float* y, const float* x, int64_t n)
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::addInPlaceAvx2(y, x, n);
#endif
    detail::addInPlaceScalar(y, x, n);
}

void
addScaledInPlace(float* y, const float* x, float alpha, int64_t n)
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::addScaledInPlaceAvx2(y, x, alpha, n);
#endif
    detail::addScaledInPlaceScalar(y, x, alpha, n);
}

void
scaleInPlace(float* y, float alpha, int64_t n)
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::scaleInPlaceAvx2(y, alpha, n);
#endif
    detail::scaleInPlaceScalar(y, alpha, n);
}

} // namespace betty::kernels
