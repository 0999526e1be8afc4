#include "util/env_config.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace betty::envcfg {

bool
parseInt(const std::string& text, int64_t* out)
{
    // strtoll silently skips leading whitespace; whole-string means
    // whole string, so reject it up front.
    if (text.empty() || std::isspace((unsigned char)text[0]))
        return false;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || !end || *end != '\0')
        return false;
    *out = int64_t(parsed);
    return true;
}

bool
parseDouble(const std::string& text, double* out)
{
    if (text.empty() || std::isspace((unsigned char)text[0]))
        return false;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || !end || *end != '\0' ||
        !std::isfinite(parsed))
        return false;
    *out = parsed;
    return true;
}

bool
parseIntList(const std::string& text, std::vector<int64_t>* out)
{
    std::vector<int64_t> values;
    size_t start = 0;
    for (;;) {
        const size_t comma = text.find(',', start);
        int64_t value = 0;
        if (!parseInt(text.substr(start, comma - start), &value))
            return false;
        values.push_back(value);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *out = std::move(values);
    return true;
}

int64_t
envInt(const char* name, int64_t fallback)
{
    const char* env = std::getenv(name);
    if (!env)
        return fallback;
    int64_t value = 0;
    if (!parseInt(env, &value))
        fatal("malformed ", name, "='", env,
              "': expected an integer");
    return value;
}

double
envDouble(const char* name, double fallback)
{
    const char* env = std::getenv(name);
    if (!env)
        return fallback;
    double value = 0.0;
    if (!parseDouble(env, &value))
        fatal("malformed ", name, "='", env,
              "': expected a finite number");
    return value;
}

std::string
envString(const char* name, const std::string& fallback)
{
    const char* env = std::getenv(name);
    return env ? std::string(env) : fallback;
}

int64_t
resolveInt(const std::string& flag_value, const char* flag_name,
           const char* env_name, int64_t fallback)
{
    if (!flag_value.empty()) {
        int64_t value = 0;
        if (!parseInt(flag_value, &value))
            fatal("malformed ", flag_name, "='", flag_value,
                  "': expected an integer");
        return value;
    }
    return envInt(env_name, fallback);
}

double
resolveDouble(const std::string& flag_value, const char* flag_name,
              const char* env_name, double fallback)
{
    if (!flag_value.empty()) {
        double value = 0.0;
        if (!parseDouble(flag_value, &value))
            fatal("malformed ", flag_name, "='", flag_value,
                  "': expected a finite number");
        return value;
    }
    return envDouble(env_name, fallback);
}

std::string
resolveString(const std::string& flag_value, const char* env_name,
              const std::string& fallback)
{
    if (!flag_value.empty())
        return flag_value;
    return envString(env_name, fallback);
}

int32_t
threads()
{
    const int64_t value = envInt("BETTY_THREADS", 1);
    if (value < 1)
        fatal("BETTY_THREADS=", value, " out of range: need >= 1");
    return int32_t(value);
}

int32_t
devices()
{
    const int64_t value = envInt("BETTY_DEVICES", 1);
    if (value < 1)
        fatal("BETTY_DEVICES=", value, " out of range: need >= 1");
    return int32_t(value);
}

double
benchScale()
{
    const double value = envDouble("BETTY_BENCH_SCALE", 1.0);
    if (value <= 0.0)
        fatal("BETTY_BENCH_SCALE=", value, " out of range: need > 0");
    return value;
}

int64_t
deviceCapacityBytes()
{
    return gibToBytes(envDouble("BETTY_DEVICE_GIB", 0.25));
}

int64_t
cacheCapacityBytes()
{
    return gibToBytes(envDouble("BETTY_CACHE_GIB", 0.05));
}

std::string
cachePolicyName()
{
    return envString("BETTY_CACHE_POLICY", "lru");
}

int64_t
traceRingCapacity()
{
    const int64_t value = envInt("BETTY_TRACE_RING", 1 << 16);
    if (value < 1)
        fatal("BETTY_TRACE_RING=", value, " out of range: need >= 1");
    return value;
}

} // namespace betty::envcfg
