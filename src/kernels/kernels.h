/**
 * @file
 * The compute hot-path kernels behind tensor/tensor.cc and
 * tensor/autograd.cc, dispatched at runtime between the scalar
 * reference backend and the AVX2 backend (kernels/dispatch.h).
 *
 * Everything here works on raw row-major float32 buffers so both the
 * Tensor layer and the trainer's host-side staging gather
 * (train/trainer.cc) can call in without materializing wrappers.
 *
 * Numeric contract (docs/KERNELS.md): every kernel is bit-identical
 * across backends, and the scalar backend is bit-identical to the
 * pre-kernel code. The AVX2 backend keeps each output element's
 * scalar operation sequence: vector lanes run across output columns,
 * never along the reduction axis; every multiply-add rounds twice
 * (no FMA); gemmTransB sums each element in one double, in k order;
 * and gemm / gemmTransA skip the terms of zero entries of A, so an
 * Inf or NaN opposite such a zero never reaches C. gemmTransA holds a
 * tile of C in registers across all of k and makes that skip per
 * (row, k), exactly as the reference does.
 */
#ifndef BETTY_KERNELS_KERNELS_H
#define BETTY_KERNELS_KERNELS_H

#include <cstdint>

namespace betty::kernels {

/** Reduction of a fused gather-aggregate (nn Mean/Sum/Pool paths). */
enum class Reduce { Sum, Mean, Max };

/** @name Cache-blocked GEMM
 * All variants ACCUMULATE into @p c — callers zero it first when
 * overwrite semantics are wanted (that is what the tensor.cc
 * matmul* entry points do). Shapes use the non-transposed logical
 * dimensions: c is m x n.
 */
/** @{ */

/** c[m,n] += a[m,k] * b[k,n]. */
void gemm(const float* a, const float* b, float* c, int64_t m,
          int64_t k, int64_t n);

/** c[m,n] += aT[k,m]ᵀ * b[k,n] (a stored k x m). */
void gemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/** c[m,n] += a[m,k] * bT[n,k]ᵀ (b stored n x k). */
void gemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/**
 * Output rows per parallel block of a GEMM with reduction depth @p k
 * and @p n output columns (in every variant a row costs 2 * k * n
 * FLOPs). Each variant splits c into blocks of this many whole rows
 * and runs them on ThreadPool::global(); with m no larger than one
 * block it runs inline on the caller. Every output row has one owner
 * and keeps its backend's k order, so results are bit-identical at
 * any lane count (docs/KERNELS.md "Parallel execution").
 */
int64_t gemmBlockRows(int64_t k, int64_t n);

/** @} */

/** @name Fused gather-aggregate over CSR blocks
 * out[s,:] = reduce over edges e in [offsets[s], offsets[s+1]) of
 * x[sources[e],:] — the DGL-style fused message-passing kernel: the
 * [edges, cols] gather is never materialized. offsets has
 * segments + 1 entries; empty segments produce zero rows. Mean
 * scales every contribution by 1/degree as it accumulates (matching
 * the historical autograd op bit-for-bit on the scalar path). Max
 * records the winning source row per (segment, column) in
 * @p argmax (segments * cols entries, -1 for empty segments) for
 * the backward pass.
 *
 * Every source row is checked against [0, rows) once per call, on
 * the calling thread, under either backend; null sources stand for
 * the identity (edge e reads row e). The segments are then split
 * into blocks of aggregateBlockSegments() whole segments that run on
 * ThreadPool::global(); a call of one block runs inline. Each output
 * row has one owner and sees its edges in order, so results are
 * bit-identical at any lane count.
 */
/** @{ */

void gatherAggregate(const float* x, int64_t rows, int64_t cols,
                     const int64_t* sources,
                     const int64_t* offsets, int64_t segments,
                     Reduce reduce, float* out,
                     int64_t* argmax = nullptr);

/**
 * Segments per parallel block of a gatherAggregate call over
 * @p segments segments, @p edges edges and @p cols columns: about
 * (edges + segments) · cols / 2^17 blocks of equal segment count.
 */
int64_t aggregateBlockSegments(int64_t segments, int64_t edges,
                               int64_t cols);

/**
 * Backward of Sum/Mean: grad_x[sources[e],:] += scale * grad_out[s,:].
 * Runs on the calling thread, since two segments may share a source
 * row. It does not check @p sources: the autograd ops pass the
 * sources and offsets their forward gatherAggregate call checked.
 */
void gatherAggregateBackward(const float* grad_out, int64_t cols,
                             const int64_t* sources,
                             const int64_t* offsets,
                             int64_t segments, bool mean,
                             float* grad_x);

/** @} */

/** @name Row movement */
/** @{ */

/** out[i,:] = x[indices[i],:]; indices are asserted in [0, rows). */
void gatherRows(const float* x, int64_t rows, int64_t cols,
                const int64_t* indices, int64_t count, float* out);

/** grad_x[indices[i],:] += grad[i,:] (gatherRows backward). */
void scatterAddRows(const float* grad, int64_t cols,
                    const int64_t* indices, int64_t count,
                    float* grad_x);

/** @} */

/** @name Elementwise (bit-exact across backends) */
/** @{ */

/** y[i] += x[i]. */
void addInPlace(float* y, const float* x, int64_t n);

/** y[i] += alpha * x[i] (mul then add — no FMA, to stay bit-exact
 * with the scalar reference). */
void addScaledInPlace(float* y, const float* x, float alpha,
                      int64_t n);

/** y[i] *= alpha. */
void scaleInPlace(float* y, float alpha, int64_t n);

/** @} */

} // namespace betty::kernels

#endif // BETTY_KERNELS_KERNELS_H
