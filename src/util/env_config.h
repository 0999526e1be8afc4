/**
 * @file
 * Shared parsing for the BETTY_* configuration knobs.
 *
 * The bench harness, train_cli, the thread pool and the observability
 * collectors all read the same environment variables (BETTY_THREADS,
 * BETTY_DEVICES, BETTY_BENCH_SCALE, BETTY_DEVICE_GIB, BETTY_CACHE_GIB,
 * BETTY_TRACE_RING, BETTY_FR_CAPACITY), and the CLI surfaces most of
 * them as flags too. This header is the single place that defines
 * their precedence and validation:
 *
 *   flag > environment > built-in default
 *
 * Malformed values are rejected loudly (fatal naming the offending
 *_variable/flag), never silently coerced: `BETTY_THREADS=abc` used to
 * mean 1 thread via strtol's zero return — now it is a startup error.
 *
 * Layering: util only.
 */
#ifndef BETTY_UTIL_ENV_CONFIG_H
#define BETTY_UTIL_ENV_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace betty::envcfg {

/**
 * Parse @p text as a whole-string base-10 integer. Rejects empty
 * input, partial parses ("4x"), and out-of-range values.
 */
bool parseInt(const std::string& text, int64_t* out);

/**
 * Parse @p text as a whole-string finite double. Rejects empty input,
 * partial parses ("0.5gb"), and non-finite spellings ("nan", "inf") —
 * no capacity or scale knob has a meaningful non-finite value.
 */
bool parseDouble(const std::string& text, double* out);

/**
 * Parse @p text as comma-separated parseInt() fields ("5,10", "-1,25").
 * Rejects empty input, empty fields ("5,,10", "5,") and any malformed
 * field ("5,abc"); @p out is untouched on failure. Range checks are the
 * caller's (a negative fanout means "all neighbours").
 */
bool parseIntList(const std::string& text, std::vector<int64_t>* out);

/**
 * The integer value of environment variable @p name, or @p fallback
 * when unset. A set-but-malformed value is fatal.
 */
int64_t envInt(const char* name, int64_t fallback);

/** Double-valued twin of envInt (same malformed-value policy). */
double envDouble(const char* name, double fallback);

/** String value of @p name, or @p fallback when unset. */
std::string envString(const char* name, const std::string& fallback);

/**
 * Resolve an integer knob with flag > env > default precedence.
 * @p flag_value is the flag's raw text ("" = flag absent; malformed
 * text is fatal, blaming @p flag_name).
 */
int64_t resolveInt(const std::string& flag_value,
                   const char* flag_name, const char* env_name,
                   int64_t fallback);

/** Double-valued twin of resolveInt. */
double resolveDouble(const std::string& flag_value,
                     const char* flag_name, const char* env_name,
                     double fallback);

/** String-valued twin ("" = flag absent; no validation here). */
std::string resolveString(const std::string& flag_value,
                          const char* env_name,
                          const std::string& fallback);

// ----------------------------------------------- the shared knobs

/** Global ThreadPool lanes: BETTY_THREADS, >= 1 (default 1). */
int32_t threads();

/** Simulated accelerators: BETTY_DEVICES, >= 1 (default 1). */
int32_t devices();

/** Dataset scale multiplier: BETTY_BENCH_SCALE, > 0 (default 1.0). */
double benchScale();

/** Simulated accelerator bytes: BETTY_DEVICE_GIB (default 0.25). */
int64_t deviceCapacityBytes();

/** Feature-cache reservation bytes: BETTY_CACHE_GIB (default 0.05). */
int64_t cacheCapacityBytes();

/**
 * Per-thread trace ring capacity (events): BETTY_TRACE_RING, >= 1
 * (default 65536). Read once when the trace registry initializes;
 * obs::Trace::setRingCapacity() (the --trace-ring flag) overrides it.
 */
int64_t traceRingCapacity();

/** GiB -> bytes, matching betty::gib() (util cannot include it). */
constexpr int64_t
gibToBytes(double g)
{
    return int64_t(g * 1024.0 * 1024.0 * 1024.0);
}

} // namespace betty::envcfg

#endif // BETTY_UTIL_ENV_CONFIG_H
