/**
 * @file
 * The shared configuration-knob parser (util/env_config.h).
 *
 * The contract under test: flag > environment > built-in default
 * precedence, whole-string parsing (no partial parses, no silent
 * zero), and loud rejection of malformed values — a misspelled
 * BETTY_THREADS must be a startup error naming the variable, never a
 * silent fallback to 1 thread.
 */
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/env_config.h"

namespace betty::envcfg {
namespace {

/** RAII setenv/unsetenv so tests cannot leak into each other. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name)) {
            had_old_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_old_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_old_ = false;
};

TEST(ParseInt, AcceptsWholeStringIntegers)
{
    int64_t out = 0;
    EXPECT_TRUE(parseInt("42", &out));
    EXPECT_EQ(out, 42);
    EXPECT_TRUE(parseInt("-7", &out));
    EXPECT_EQ(out, -7);
    EXPECT_TRUE(parseInt("0", &out));
    EXPECT_EQ(out, 0);
}

TEST(ParseInt, RejectsEmptyPartialAndOverflow)
{
    int64_t out = 0;
    EXPECT_FALSE(parseInt("", &out));
    EXPECT_FALSE(parseInt("4x", &out));
    EXPECT_FALSE(parseInt("x4", &out));
    EXPECT_FALSE(parseInt("4.5", &out));
    EXPECT_FALSE(parseInt(" 4", &out)); // no silent whitespace skip
    EXPECT_FALSE(parseInt("99999999999999999999999", &out));
}

TEST(ParseDouble, AcceptsWholeStringFiniteDoubles)
{
    double out = 0.0;
    EXPECT_TRUE(parseDouble("0.5", &out));
    EXPECT_DOUBLE_EQ(out, 0.5);
    EXPECT_TRUE(parseDouble("-2", &out));
    EXPECT_DOUBLE_EQ(out, -2.0);
    EXPECT_TRUE(parseDouble("1e-3", &out));
    EXPECT_DOUBLE_EQ(out, 1e-3);
}

TEST(ParseDouble, RejectsEmptyPartialAndNonFinite)
{
    double out = 0.0;
    EXPECT_FALSE(parseDouble("", &out));
    EXPECT_FALSE(parseDouble("0.5gb", &out));
    EXPECT_FALSE(parseDouble("nan", &out));
    EXPECT_FALSE(parseDouble("inf", &out));
    EXPECT_FALSE(parseDouble("-inf", &out));
    EXPECT_FALSE(parseDouble("1e999", &out)); // overflows to inf
}

TEST(ParseIntList, AcceptsCommaSeparatedIntegers)
{
    std::vector<int64_t> out;
    EXPECT_TRUE(parseIntList("5,10", &out));
    EXPECT_EQ(out, (std::vector<int64_t>{5, 10}));
    EXPECT_TRUE(parseIntList("7", &out));
    EXPECT_EQ(out, std::vector<int64_t>{7});
    // Negative fanouts ("all neighbours") are the caller's to judge.
    EXPECT_TRUE(parseIntList("-1,25,0", &out));
    EXPECT_EQ(out, (std::vector<int64_t>{-1, 25, 0}));
}

TEST(ParseIntList, RejectsEmptyAndMalformedFieldsLeavingOutputAlone)
{
    std::vector<int64_t> out = {3, 4};
    for (const char* text :
         {"", ",", "5,", ",5", "5,,10", "5,abc", "5, 10", "5x,10",
          "4.5", "5;10", "99999999999999999999999,1"})
        EXPECT_FALSE(parseIntList(text, &out)) << "'" << text << "'";
    EXPECT_EQ(out, (std::vector<int64_t>{3, 4}));
}

TEST(EnvInt, FallsBackWhenUnsetAndReadsWhenSet)
{
    ScopedEnv unset("BETTY_TEST_KNOB", nullptr);
    EXPECT_EQ(envInt("BETTY_TEST_KNOB", 17), 17);
    ScopedEnv set("BETTY_TEST_KNOB", "23");
    EXPECT_EQ(envInt("BETTY_TEST_KNOB", 17), 23);
}

TEST(EnvInt, MalformedValueIsFatalNamingTheVariable)
{
    ScopedEnv set("BETTY_TEST_KNOB", "abc");
    EXPECT_DEATH(envInt("BETTY_TEST_KNOB", 1), "BETTY_TEST_KNOB");
}

TEST(EnvDouble, MalformedValueIsFatalNamingTheVariable)
{
    ScopedEnv set("BETTY_TEST_KNOB", "0.5gb");
    EXPECT_DEATH(envDouble("BETTY_TEST_KNOB", 1.0),
                 "BETTY_TEST_KNOB");
}

TEST(Resolve, FlagBeatsEnvBeatsDefault)
{
    ScopedEnv set("BETTY_TEST_KNOB", "5");
    EXPECT_EQ(resolveInt("9", "--knob", "BETTY_TEST_KNOB", 1), 9);
    EXPECT_EQ(resolveInt("", "--knob", "BETTY_TEST_KNOB", 1), 5);
    ScopedEnv unset("BETTY_TEST_KNOB", nullptr);
    EXPECT_EQ(resolveInt("", "--knob", "BETTY_TEST_KNOB", 1), 1);

    ScopedEnv setd("BETTY_TEST_KNOB", "0.25");
    EXPECT_DOUBLE_EQ(
        resolveDouble("0.75", "--knob", "BETTY_TEST_KNOB", 1.0),
        0.75);
    EXPECT_DOUBLE_EQ(
        resolveDouble("", "--knob", "BETTY_TEST_KNOB", 1.0), 0.25);
}

TEST(Resolve, MalformedFlagIsFatalNamingTheFlag)
{
    EXPECT_DEATH(resolveInt("4x", "--knob", "BETTY_TEST_KNOB", 1),
                 "--knob");
    EXPECT_DEATH(
        resolveDouble("nan", "--knob", "BETTY_TEST_KNOB", 1.0),
        "--knob");
}

TEST(Resolve, StringPrecedence)
{
    ScopedEnv set("BETTY_TEST_KNOB", "from-env");
    EXPECT_EQ(resolveString("from-flag", "BETTY_TEST_KNOB", "dflt"),
              "from-flag");
    EXPECT_EQ(resolveString("", "BETTY_TEST_KNOB", "dflt"),
              "from-env");
    ScopedEnv unset("BETTY_TEST_KNOB", nullptr);
    EXPECT_EQ(resolveString("", "BETTY_TEST_KNOB", "dflt"), "dflt");
}

TEST(Knobs, DefaultsMatchTheDocumentedValues)
{
    ScopedEnv t("BETTY_THREADS", nullptr);
    ScopedEnv s("BETTY_BENCH_SCALE", nullptr);
    ScopedEnv d("BETTY_DEVICE_GIB", nullptr);
    ScopedEnv c("BETTY_CACHE_GIB", nullptr);
    EXPECT_EQ(threads(), 1);
    EXPECT_DOUBLE_EQ(benchScale(), 1.0);
    EXPECT_EQ(deviceCapacityBytes(), gibToBytes(0.25));
    EXPECT_EQ(cacheCapacityBytes(), gibToBytes(0.05));
    ScopedEnv r("BETTY_TRACE_RING", nullptr);
    EXPECT_EQ(traceRingCapacity(), 1 << 16);
}

TEST(Knobs, TraceRingReadsTheEnvironment)
{
    ScopedEnv r("BETTY_TRACE_RING", "1024");
    EXPECT_EQ(traceRingCapacity(), 1024);
}

TEST(Knobs, OutOfDomainValuesAreFatal)
{
    {
        ScopedEnv t("BETTY_THREADS", "0");
        EXPECT_DEATH(threads(), "BETTY_THREADS");
    }
    {
        ScopedEnv s("BETTY_BENCH_SCALE", "-1");
        EXPECT_DEATH(benchScale(), "BETTY_BENCH_SCALE");
    }
    {
        ScopedEnv r("BETTY_TRACE_RING", "0");
        EXPECT_DEATH(traceRingCapacity(), "BETTY_TRACE_RING");
    }
    {
        ScopedEnv r("BETTY_TRACE_RING", "64k");
        EXPECT_DEATH(traceRingCapacity(), "BETTY_TRACE_RING");
    }
}

} // namespace
} // namespace betty::envcfg
