/**
 * @file
 * Runtime CPU dispatch for the compute kernels (docs/KERNELS.md).
 *
 * Two backends implement every kernel in kernels/kernels.h, with
 * bit-identical results:
 *
 *  - Scalar: the original loops, moved verbatim from tensor.cc /
 *    autograd.cc. This is the reference the kernel tests compare
 *    against, and the only backend on CPUs without AVX2.
 *  - Avx2: AVX2 vectorized (kernels/avx2.cc), compiled only when the
 *    toolchain supports -mavx2 and selected only when the running
 *    CPU reports AVX2.
 *
 * Selection, with flag > environment > default precedence via
 * util/env_config.h:
 *
 *   BETTY_KERNELS=auto     avx2 when available, else scalar silently
 *                          (default)
 *   BETTY_KERNELS=scalar   always the reference path
 *   BETTY_KERNELS=avx2     vectorized path; if the binary or CPU
 *                          lacks AVX2, falls back to scalar with a
 *                          single warnOnce
 *
 * Any other value is fatal (strict parsing, like every BETTY_* knob).
 * The resolved backend is cached; setKernelMode() (tests, CLI flags)
 * re-resolves. kernel.backend_avx2 gauges the active backend and
 * kernel.dispatch.fallbacks counts avx2-requested-but-unavailable
 * resolutions (at most one warning is printed per process).
 */
#ifndef BETTY_KERNELS_DISPATCH_H
#define BETTY_KERNELS_DISPATCH_H

#include <string>

namespace betty::kernels {

/** What the user asked for (BETTY_KERNELS / --kernels). */
enum class KernelMode { Scalar, Avx2, Auto };

/** What the process actually runs. */
enum class Backend { Scalar, Avx2 };

/** Strict vocabulary parse; returns false on anything unknown. */
bool parseKernelMode(const std::string& text, KernelMode* out);

/** "scalar" | "avx2" | "auto". */
const char* kernelModeName(KernelMode mode);

/** "scalar" | "avx2". */
const char* backendName(Backend backend);

/**
 * The requested mode: the last setKernelMode() value, else
 * BETTY_KERNELS, else Auto. A set-but-malformed environment value
 * is fatal, naming the variable.
 */
KernelMode kernelMode();

/** Override the mode (CLI flags, tests) and re-resolve the backend. */
void setKernelMode(KernelMode mode);

/** True if this binary contains the AVX2 kernel translation unit. */
bool builtWithAvx2();

/** True if the running CPU reports AVX2. */
bool cpuSupportsAvx2();

/**
 * The backend the current mode resolves to. Cached after the first
 * call (one atomic load per kernel invocation); re-resolved by
 * setKernelMode(). Requesting avx2 without hardware/toolchain
 * support warns once per process and resolves to Scalar.
 */
Backend activeBackend();

/**
 * Test hook: force cpuSupportsAvx2() to @p supported (-1 restores
 * the real CPUID answer) and re-resolve. Lets the fallback path run
 * on AVX2 hardware.
 */
void setCpuSupportsAvx2ForTest(int supported);

/** Test hook: forget any cached/set mode so the next kernelMode()
 * call re-reads BETTY_KERNELS (death tests for malformed values). */
void resetKernelModeForTest();

/** Lifetime count of avx2-requested-but-unavailable resolutions. */
int64_t dispatchFallbackCount();

} // namespace betty::kernels

#endif // BETTY_KERNELS_DISPATCH_H
