#include "kernels/dispatch.h"

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "util/env_config.h"
#include "util/logging.h"

namespace betty::kernels {

namespace {

/** -1 = unresolved; else int(Backend). */
std::atomic<int> g_backend{-1};

/** -1 = read BETTY_KERNELS on first use; else int(KernelMode). */
std::atomic<int> g_mode{-1};

/** -1 = ask the CPU; 0/1 = forced by setCpuSupportsAvx2ForTest. */
std::atomic<int> g_cpu_override{-1};

std::atomic<int64_t> g_fallbacks{0};

KernelMode
modeFromEnv()
{
    const std::string text =
        envcfg::envString("BETTY_KERNELS", "auto");
    KernelMode mode;
    if (!parseKernelMode(text, &mode))
        fatal("malformed BETTY_KERNELS='", text,
              "': expected scalar, avx2, or auto");
    return mode;
}

Backend
resolve(KernelMode mode)
{
    const bool available = builtWithAvx2() && cpuSupportsAvx2();
    switch (mode) {
      case KernelMode::Scalar:
        return Backend::Scalar;
      case KernelMode::Avx2:
        if (available)
            return Backend::Avx2;
        g_fallbacks.fetch_add(1, std::memory_order_relaxed);
        obs::Metrics::counter("kernel.dispatch.fallbacks").add(1);
        warnOnce("BETTY_KERNELS=avx2 requested but ",
                 builtWithAvx2()
                     ? "this CPU lacks AVX2"
                     : "this binary was built without AVX2 support",
                 "; falling back to the scalar reference kernels");
        return Backend::Scalar;
      case KernelMode::Auto:
        return available ? Backend::Avx2 : Backend::Scalar;
    }
    panic("unreachable kernel mode");
}

} // namespace

bool
parseKernelMode(const std::string& text, KernelMode* out)
{
    if (text == "scalar")
        *out = KernelMode::Scalar;
    else if (text == "avx2")
        *out = KernelMode::Avx2;
    else if (text == "auto")
        *out = KernelMode::Auto;
    else
        return false;
    return true;
}

const char*
kernelModeName(KernelMode mode)
{
    switch (mode) {
      case KernelMode::Scalar: return "scalar";
      case KernelMode::Avx2: return "avx2";
      case KernelMode::Auto: return "auto";
    }
    return "?";
}

const char*
backendName(Backend backend)
{
    return backend == Backend::Avx2 ? "avx2" : "scalar";
}

KernelMode
kernelMode()
{
    int mode = g_mode.load(std::memory_order_acquire);
    if (mode < 0) {
        mode = int(modeFromEnv());
        g_mode.store(mode, std::memory_order_release);
    }
    return KernelMode(mode);
}

void
setKernelMode(KernelMode mode)
{
    g_mode.store(int(mode), std::memory_order_release);
    g_backend.store(-1, std::memory_order_release);
}

bool
builtWithAvx2()
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    return true;
#else
    return false;
#endif
}

bool
cpuSupportsAvx2()
{
    const int forced = g_cpu_override.load(std::memory_order_acquire);
    if (forced >= 0)
        return forced != 0;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

Backend
activeBackend()
{
    int backend = g_backend.load(std::memory_order_acquire);
    if (backend < 0) {
        backend = int(resolve(kernelMode()));
        g_backend.store(backend, std::memory_order_release);
        obs::Metrics::gauge("kernel.backend_avx2")
            .set(backend == int(Backend::Avx2) ? 1 : 0);
    }
    return Backend(backend);
}

void
setCpuSupportsAvx2ForTest(int supported)
{
    g_cpu_override.store(supported, std::memory_order_release);
    g_backend.store(-1, std::memory_order_release);
}

void
resetKernelModeForTest()
{
    g_mode.store(-1, std::memory_order_release);
    g_backend.store(-1, std::memory_order_release);
}

int64_t
dispatchFallbackCount()
{
    return g_fallbacks.load(std::memory_order_relaxed);
}

} // namespace betty::kernels
