/**
 * @file
 * Backend entry points shared between kernels.cc (dispatch + scalar
 * reference) and avx2.cc (vectorized). Not installed — include only
 * from within src/kernels/.
 */
#ifndef BETTY_KERNELS_KERNELS_INTERNAL_H
#define BETTY_KERNELS_KERNELS_INTERNAL_H

#include <cstdint>

#include "kernels/kernels.h"

namespace betty::kernels::detail {

/** @name Scalar reference backend (kernels.cc)
 * Loop-for-loop identical to the pre-kernel tensor.cc / autograd.cc
 * code; the golden-hash tiers and differential tests anchor on it.
 */
/** @{ */
void gemmScalar(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
/** Output rows [row_lo, row_hi) of gemmTransA (a is k x m). */
void gemmTransAScalar(const float* a, const float* b, float* c,
                      int64_t m, int64_t k, int64_t n, int64_t row_lo,
                      int64_t row_hi);
void gemmTransBScalar(const float* a, const float* b, float* c,
                      int64_t m, int64_t k, int64_t n);
void gatherAggregateScalar(const float* x, int64_t rows, int64_t cols,
                           const int64_t* sources,
                           const int64_t* offsets, int64_t segments,
                           Reduce reduce, float* out, int64_t* argmax);
void gatherAggregateBackwardScalar(const float* grad_out, int64_t cols,
                                   const int64_t* sources,
                                   const int64_t* offsets,
                                   int64_t segments, bool mean,
                                   float* grad_x);
void addInPlaceScalar(float* y, const float* x, int64_t n);
void addScaledInPlaceScalar(float* y, const float* x, float alpha,
                            int64_t n);
void scaleInPlaceScalar(float* y, float alpha, int64_t n);
/** @} */

#ifdef BETTY_KERNELS_HAVE_AVX2
/** @name AVX2 backend (avx2.cc, compiled with -mavx2)
 * Bit-exact with the scalar reference, per the kernels.h contract.
 */
/** @{ */
void gemmAvx2(const float* a, const float* b, float* c, int64_t m,
              int64_t k, int64_t n);
/** Output rows [row_lo, row_hi) of gemmTransA (a is k x m). */
void gemmTransAAvx2(const float* a, const float* b, float* c,
                    int64_t m, int64_t k, int64_t n, int64_t row_lo,
                    int64_t row_hi);
/** @p bt is B transposed (k x n) and widened to double. */
void gemmTransBAvx2(const float* a, const double* bt, float* c,
                    int64_t m, int64_t k, int64_t n);
void gatherAggregateAvx2(const float* x, int64_t rows, int64_t cols,
                         const int64_t* sources,
                         const int64_t* offsets, int64_t segments,
                         Reduce reduce, float* out, int64_t* argmax);
void gatherAggregateBackwardAvx2(const float* grad_out, int64_t cols,
                                 const int64_t* sources,
                                 const int64_t* offsets,
                                 int64_t segments, bool mean,
                                 float* grad_x);
void addInPlaceAvx2(float* y, const float* x, int64_t n);
void addScaledInPlaceAvx2(float* y, const float* x, float alpha,
                          int64_t n);
void scaleInPlaceAvx2(float* y, float alpha, int64_t n);
/** @} */
#endif // BETTY_KERNELS_HAVE_AVX2

} // namespace betty::kernels::detail

#endif // BETTY_KERNELS_KERNELS_INTERNAL_H
