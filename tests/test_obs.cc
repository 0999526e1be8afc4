/**
 * @file
 * Tests for the observability subsystem (src/obs/): trace spans and
 * ring buffers, the metrics registry and its histogram percentiles,
 * estimator residuals over the memory profiler's records, the JSON
 * writer, parser and file helpers every export goes through, and the
 * logging-level / warn-once helpers from util/logging.h.
 *
 * The collectors are process-global, so every test starts from a
 * known state (ObsTest fixture) and the metric names it registers are
 * unique to the test.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

using obs::Histogram;
using obs::JsonValue;
using obs::Metrics;
using obs::parseJson;

class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::Trace::setEnabled(false);
        obs::Trace::clear();
        obs::Metrics::setEnabled(false);
        obs::Metrics::reset();
    }

    void
    TearDown() override
    {
        obs::Trace::setEnabled(false);
        obs::Trace::clear();
        obs::Metrics::setEnabled(false);
        obs::Metrics::reset();
    }
};

/** Record one micro-batch's predicted and measured total peak. */
void
recordPeaks(int64_t predicted, int64_t actual)
{
    obs::MicroBatchMemRecord record;
    record.predictedTotalPeak = predicted;
    record.actualTotalPeak = actual;
    obs::memProfiler().record(record);
}

/** Events in the current snapshot carrying @p name. */
std::vector<obs::TraceEvent>
eventsNamed(const char* name)
{
    std::vector<obs::TraceEvent> matched;
    for (const auto& event : obs::Trace::snapshot())
        if (std::string(event.name) == name)
            matched.push_back(event);
    return matched;
}

TEST_F(ObsTest, DisabledSpanRecordsNothing)
{
    const size_t before = obs::Trace::snapshot().size();
    for (int i = 0; i < 100; ++i) {
        BETTY_TRACE_SPAN("obs_test/disabled");
    }
    EXPECT_EQ(obs::Trace::snapshot().size(), before);
}

TEST_F(ObsTest, SpanCountsMatchScopes)
{
    obs::Trace::setEnabled(true);
    for (int i = 0; i < 5; ++i) {
        BETTY_TRACE_SPAN("obs_test/counted");
    }
    EXPECT_EQ(eventsNamed("obs_test/counted").size(), 5u);
}

TEST_F(ObsTest, NestedSpansAreContainedAndOrdered)
{
    obs::Trace::setEnabled(true);
    {
        BETTY_TRACE_SPAN("obs_test/outer");
        {
            BETTY_TRACE_SPAN("obs_test/inner");
        }
    }
    const auto outer = eventsNamed("obs_test/outer");
    const auto inner = eventsNamed("obs_test/inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    // The inner span completes first, so it is recorded first.
    EXPECT_GE(inner[0].startUs, outer[0].startUs);
    EXPECT_LE(inner[0].startUs + inner[0].durUs,
              outer[0].startUs + outer[0].durUs);
    EXPECT_GE(outer[0].durUs, inner[0].durUs);
}

TEST_F(ObsTest, LaneScopeOverridesAndRestores)
{
    obs::Trace::setEnabled(true);
    const int32_t base_lane = obs::Trace::currentLane();
    {
        obs::TraceLaneScope lane(1007, "device7");
        EXPECT_EQ(obs::Trace::currentLane(), 1007);
        BETTY_TRACE_SPAN("obs_test/laned");
    }
    EXPECT_EQ(obs::Trace::currentLane(), base_lane);
    const auto laned = eventsNamed("obs_test/laned");
    ASSERT_EQ(laned.size(), 1u);
    EXPECT_EQ(laned[0].lane, 1007);
}

TEST_F(ObsTest, LanesDoNotDependOnThreadStartUpOrder)
{
    obs::Trace::setEnabled(true);
    // A thread outside any pool takes the next free lane when it
    // first records; pool workers have fixed lanes and take none.
    int32_t before = -1;
    std::thread([&] { before = obs::Trace::currentLane(); }).join();

    std::vector<int32_t> worker_lanes;
    int32_t caller = -1;
    std::thread([&] {
        {
            // Both workers record before this thread does.
            ThreadPool pool(3);
            std::vector<std::future<int32_t>> lanes;
            for (int i = 0; i < 16; ++i)
                lanes.push_back(pool.submit([] {
                    BETTY_TRACE_SPAN("obs_test/worker");
                    return obs::Trace::currentLane();
                }));
            for (auto& lane : lanes)
                worker_lanes.push_back(lane.get());
        }
        caller = obs::Trace::currentLane();
    }).join();
    EXPECT_EQ(caller, before + 1);

    const int32_t base = obs::Trace::kPoolWorkerLaneBase;
    for (const int32_t lane : worker_lanes) {
        EXPECT_GE(lane, base + 1);
        EXPECT_LE(lane, base + 2);
    }
    JsonValue doc;
    ASSERT_TRUE(parseJson(obs::Trace::chromeTraceJson(), doc, nullptr));
    int named_workers = 0;
    for (const auto& event : doc.find("traceEvents")->array) {
        const JsonValue* tid = event.find("tid");
        if (event.find("name")->string != "thread_name" || !tid)
            continue;
        const int64_t worker = tid->asInt() - base;
        if (worker == 1 || worker == 2) {
            EXPECT_EQ(event.find("args")->find("name")->string,
                      "pool/worker-" + std::to_string(worker));
            ++named_workers;
        }
    }
    EXPECT_EQ(named_workers, 2);
}

TEST_F(ObsTest, MultiThreadSpansAllRetained)
{
    obs::Trace::setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                BETTY_TRACE_SPAN("obs_test/mt");
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(eventsNamed("obs_test/mt").size(),
              size_t(kThreads * kSpansPerThread));
}

TEST_F(ObsTest, RingOverflowKeepsNewestAndCountsDropped)
{
    obs::Trace::setEnabled(true);
    const int64_t dropped_before = obs::Trace::droppedEvents();
    // Capacity applies to buffers of threads that have not recorded
    // yet, so exercise overflow on a fresh thread.
    obs::Trace::setRingCapacity(8);
    std::thread recorder([] {
        for (int i = 0; i < 20; ++i) {
            BETTY_TRACE_SPAN("obs_test/overflow");
        }
    });
    recorder.join();
    obs::Trace::setRingCapacity(1 << 16);
    EXPECT_EQ(eventsNamed("obs_test/overflow").size(), 8u);
    EXPECT_EQ(obs::Trace::droppedEvents() - dropped_before, 12);
}

TEST_F(ObsTest, ChromeTraceJsonParsesWithMetadataAndSpans)
{
    obs::Trace::setEnabled(true);
    {
        obs::TraceLaneScope lane(1003, "device3");
        BETTY_TRACE_SPAN("obs_test/chrome");
    }
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(obs::Trace::chromeTraceJson(), doc, &error))
        << error;
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_process_name = false;
    bool saw_device3 = false;
    bool saw_span = false;
    for (const auto& event : events->array) {
        const JsonValue* name = event.find("name");
        const JsonValue* phase = event.find("ph");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(phase, nullptr);
        if (phase->string == "M" && name->string == "process_name")
            saw_process_name = true;
        if (phase->string == "M" && name->string == "thread_name") {
            const JsonValue* args = event.find("args");
            ASSERT_NE(args, nullptr);
            const JsonValue* lane_name = args->find("name");
            if (lane_name && lane_name->string == "device3")
                saw_device3 = true;
        }
        if (phase->string == "X" &&
            name->string == "obs_test/chrome") {
            saw_span = true;
            EXPECT_EQ(event.find("tid")->asInt(), 1003);
            EXPECT_GE(event.find("dur")->asInt(), 0);
        }
    }
    EXPECT_TRUE(saw_process_name);
    EXPECT_TRUE(saw_device3);
    EXPECT_TRUE(saw_span);
}

TEST_F(ObsTest, DisabledMetricsAreNoOps)
{
    obs::Counter& counter = obs::Metrics::counter("obs_test.noop_c");
    obs::Gauge& gauge = obs::Metrics::gauge("obs_test.noop_g");
    obs::Histogram& histogram =
        obs::Metrics::histogram("obs_test.noop_h", {1.0});
    counter.add(5);
    gauge.set(5);
    gauge.max(5);
    histogram.observe(0.5);
    recordPeaks(100, 90);
    EXPECT_EQ(counter.value(), 0);
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(histogram.count(), 0);
    EXPECT_TRUE(obs::memProfiler().records().empty());
}

TEST_F(ObsTest, CounterAndGaugeBasics)
{
    obs::Metrics::setEnabled(true);
    obs::Counter& counter = obs::Metrics::counter("obs_test.basic_c");
    counter.add(3);
    counter.increment();
    EXPECT_EQ(counter.value(), 4);
    // Same name resolves to the same counter.
    EXPECT_EQ(obs::Metrics::counter("obs_test.basic_c").value(), 4);

    obs::Gauge& gauge = obs::Metrics::gauge("obs_test.basic_g");
    gauge.set(10);
    gauge.max(7); // below current: no effect
    EXPECT_EQ(gauge.value(), 10);
    gauge.max(25);
    EXPECT_EQ(gauge.value(), 25);
}

TEST_F(ObsTest, HistogramBucketBoundaries)
{
    obs::Metrics::setEnabled(true);
    obs::Histogram& histogram =
        obs::Metrics::histogram("obs_test.bounds_h", {1.0, 2.0, 4.0});
    ASSERT_EQ(histogram.bounds().size(), 3u);

    histogram.observe(0.5); // bucket 0
    histogram.observe(1.0); // bucket 0: value <= bounds[0]
    histogram.observe(1.5); // bucket 1
    histogram.observe(4.0); // bucket 2 (boundary is inclusive)
    histogram.observe(100.0); // overflow bucket

    EXPECT_EQ(histogram.bucketCount(0), 2);
    EXPECT_EQ(histogram.bucketCount(1), 1);
    EXPECT_EQ(histogram.bucketCount(2), 1);
    EXPECT_EQ(histogram.bucketCount(3), 1);
    EXPECT_EQ(histogram.count(), 5);
    EXPECT_DOUBLE_EQ(histogram.sum(), 107.0);
}

TEST(HistogramPercentile, InterpolatesWithinBuckets)
{
    Metrics::setEnabled(true);
    Histogram hist({1.0, 2.0, 4.0});
    // 10 observations in [1, 2), none elsewhere: every mid quantile
    // interpolates inside that bucket.
    for (int i = 0; i < 10; ++i)
        hist.observe(1.5);
    EXPECT_EQ(hist.count(), 10);
    EXPECT_DOUBLE_EQ(hist.sum(), 15.0);
    EXPECT_TRUE(hist.bucketsConsistent());
    const double p50 = hist.percentile(0.5);
    EXPECT_GT(p50, 1.0);
    EXPECT_LE(p50, 2.0);
    const double p95 = hist.percentile(0.95);
    EXPECT_GE(p95, p50);
    EXPECT_LE(p95, 2.0);
    Metrics::setEnabled(false);
}

TEST(HistogramPercentile, OverflowBucketClampsToLastBound)
{
    Metrics::setEnabled(true);
    Histogram hist({1.0, 2.0});
    hist.observe(100.0); // lands in the overflow bucket
    EXPECT_DOUBLE_EQ(hist.percentile(0.99), 2.0);
    Metrics::setEnabled(false);
}

TEST_F(ObsTest, ResidualMath)
{
    obs::Metrics::setEnabled(true);
    recordPeaks(120, 100); // +20, +0.2
    recordPeaks(80, 100);  // -20, -0.2
    recordPeaks(50, 0);    // excluded from relative stats

    const auto entries = obs::memProfiler().records();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].residualBytes(), 20);
    EXPECT_DOUBLE_EQ(entries[0].relativeError(), 0.2);
    EXPECT_EQ(entries[1].residualBytes(), -20);
    EXPECT_DOUBLE_EQ(entries[1].relativeError(), -0.2);
    EXPECT_DOUBLE_EQ(entries[2].relativeError(), 0.0);

    const auto summary = obs::residualSummary(entries);
    EXPECT_EQ(summary.count, 3);
    EXPECT_DOUBLE_EQ(summary.meanAbsBytes, 30.0);
    EXPECT_DOUBLE_EQ(summary.meanAbsRelative, 0.2);
    EXPECT_DOUBLE_EQ(summary.maxAbsRelative, 0.2);
    EXPECT_DOUBLE_EQ(summary.bias, 0.0);
}

TEST_F(ObsTest, MetricsJsonRoundTrip)
{
    obs::Metrics::setEnabled(true);
    obs::Metrics::counter("obs_test.rt_c").add(7);
    obs::Metrics::gauge("obs_test.rt_g").set(42);
    obs::Metrics::histogram("obs_test.rt_h", {1.0, 2.0}).observe(1.5);
    recordPeaks(110, 100);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(obs::Metrics::snapshotJson(), doc, &error))
        << error;

    const JsonValue* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* rt_c = counters->find("obs_test.rt_c");
    ASSERT_NE(rt_c, nullptr);
    EXPECT_EQ(rt_c->asInt(), 7);

    const JsonValue* gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->find("obs_test.rt_g")->asInt(), 42);

    const JsonValue* histograms = doc.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue* rt_h = histograms->find("obs_test.rt_h");
    ASSERT_NE(rt_h, nullptr);
    ASSERT_EQ(rt_h->find("bounds")->array.size(), 2u);
    ASSERT_EQ(rt_h->find("counts")->array.size(), 3u);
    EXPECT_EQ(rt_h->find("counts")->array[1].asInt(), 1);
    EXPECT_EQ(rt_h->find("count")->asInt(), 1);
    EXPECT_DOUBLE_EQ(rt_h->find("sum")->number, 1.5);

    const JsonValue* residuals = doc.find("estimator_residuals");
    ASSERT_NE(residuals, nullptr);
    const JsonValue* res_entries = residuals->find("entries");
    ASSERT_NE(res_entries, nullptr);
    ASSERT_EQ(res_entries->array.size(), 1u);
    EXPECT_EQ(
        res_entries->array[0].find("predicted_bytes")->asInt(), 110);
    EXPECT_EQ(res_entries->array[0].find("actual_bytes")->asInt(),
              100);
    const JsonValue* summary = residuals->find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("count")->asInt(), 1);
}

TEST_F(ObsTest, MetricsResetClearsValuesKeepsRegistrations)
{
    obs::Metrics::setEnabled(true);
    obs::Counter& counter = obs::Metrics::counter("obs_test.reset_c");
    counter.add(9);
    recordPeaks(10, 10);
    obs::Metrics::reset();
    EXPECT_EQ(counter.value(), 0);
    EXPECT_TRUE(obs::memProfiler().records().empty());
    // Still the same registered object.
    EXPECT_EQ(&obs::Metrics::counter("obs_test.reset_c"), &counter);
}

TEST_F(ObsTest, JsonParserAcceptsAndRejects)
{
    JsonValue doc;
    EXPECT_TRUE(parseJson(
        R"({"a": [1, 2.5, -3e2], "b": "x\n\"y\"", "c": true,
            "d": null, "e": {}})",
        doc));
    EXPECT_EQ(doc.find("a")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.find("a")->array[2].number, -300.0);
    EXPECT_EQ(doc.find("b")->string, "x\n\"y\"");
    EXPECT_TRUE(doc.find("c")->boolean);
    EXPECT_TRUE(doc.find("d")->isNull());
    EXPECT_TRUE(doc.find("e")->isObject());

    std::string error;
    EXPECT_FALSE(parseJson("{\"a\": }", doc, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{} trailing", doc));
    EXPECT_FALSE(parseJson("[1, 2", doc));
    EXPECT_FALSE(parseJson("", doc));
}

TEST(JsonParser, RejectsNestingBeyondTheDepthCap)
{
    // Every level is one parser recursion: uncapped, this document
    // overflows the stack.
    const size_t levels = 100000;
    const std::string deep =
        std::string(levels, '[') + std::string(levels, ']');
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson(deep, doc, &error));
    EXPECT_NE(error.find("nesting deeper than 256 levels"),
              std::string::npos)
        << error;

    const size_t cap = size_t(obs::kMaxJsonDepth);
    EXPECT_TRUE(parseJson(std::string(cap, '[') + std::string(cap, ']'),
                          doc, &error))
        << error;
}

TEST(JsonWriter, OutputRoundTripsThroughTheParser)
{
    const std::string tricky = "q\"b\\n\nt\t\x01 end";
    const int64_t above_2_53 = (int64_t(1) << 53) + 1;
    obs::JsonWriter out;
    out.beginObject();
    out.key(tricky).string(tricky);
    out.key("empty_object").beginObject().endObject();
    out.key("empty_array").beginArray().endArray();
    out.key("nested").beginArray();
    out.beginObject().key("inner").beginArray().integer(1);
    out.beginArray().endArray().endArray().endObject();
    out.endArray();
    out.key("negative_zero").number(-0.0);
    out.key("huge").number(1e300);
    out.key("third").number(1.0 / 3.0);
    out.key("above_2_53").integer(above_2_53);
    out.key("int64_min").integer(std::numeric_limits<int64_t>::min());
    out.key("flag").boolean(false);
    out.key("inf").number(std::numeric_limits<double>::infinity());
    out.endObject();
    const std::string text = out.take();
    ASSERT_EQ(text.back(), '\n');

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error << "\n" << text;
    ASSERT_NE(doc.find(tricky), nullptr) << text;
    EXPECT_EQ(doc.find(tricky)->string, tricky);
    EXPECT_TRUE(doc.find("empty_object")->isObject());
    EXPECT_TRUE(doc.find("empty_object")->object.empty());
    EXPECT_TRUE(doc.find("empty_array")->isArray());
    EXPECT_TRUE(doc.find("empty_array")->array.empty());
    const JsonValue& nested = *doc.find("nested");
    ASSERT_EQ(nested.array.size(), 1u);
    const JsonValue* inner = nested.array[0].find("inner");
    ASSERT_NE(inner, nullptr);
    ASSERT_EQ(inner->array.size(), 2u);
    EXPECT_EQ(inner->array[0].asInt(), 1);
    EXPECT_TRUE(inner->array[1].isArray());
    const double negative_zero = doc.find("negative_zero")->number;
    EXPECT_EQ(negative_zero, 0.0);
    EXPECT_TRUE(std::signbit(negative_zero));
    EXPECT_EQ(doc.find("huge")->number, 1e300);
    EXPECT_EQ(doc.find("third")->number, 1.0 / 3.0);
    // The document model holds doubles; the text keeps every digit.
    EXPECT_NE(text.find("\"above_2_53\": 9007199254740993"),
              std::string::npos)
        << text;
    EXPECT_EQ(doc.find("above_2_53")->number, double(above_2_53));
    EXPECT_NE(text.find("\"int64_min\": -9223372036854775808"),
              std::string::npos)
        << text;
    EXPECT_FALSE(doc.find("flag")->boolean);
    // Non-finite values stay visible so readers can reject them.
    EXPECT_TRUE(std::isinf(doc.find("inf")->number));
}

TEST(JsonFile, WriteReportsFailureAndReadRoundTrips)
{
    // A document this small sits in stdio's buffer until fclose, so
    // a full disk only shows when the file is closed.
    EXPECT_FALSE(obs::writeJsonFile("/dev/full", "{}\n"));
    EXPECT_FALSE(obs::writeJsonFile("/nonexistent-dir/out.json", "{}\n"));

    const std::string path = ::testing::TempDir() + "obs_json_file.json";
    ASSERT_TRUE(obs::writeJsonFile(path, "{\"a\": [1, 2]}\n"));
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::readJsonFile(path, doc, &error)) << error;
    EXPECT_EQ(doc.find("a")->array.size(), 2u);

    ASSERT_TRUE(obs::writeJsonFile(path, "{\"a\": "));
    EXPECT_FALSE(obs::readJsonFile(path, doc, &error));
    EXPECT_NE(error.find("is not valid JSON"), std::string::npos) << error;

    std::remove(path.c_str());
    EXPECT_FALSE(obs::readJsonFile(path, doc, &error));
    EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST_F(ObsTest, MemCategoryScopeNestsAndRestores)
{
    EXPECT_EQ(obs::currentMemCategory(),
              obs::MemCategory::Uncategorized);
    {
        obs::MemCategoryScope outer(obs::MemCategory::Hidden);
        EXPECT_EQ(obs::currentMemCategory(), obs::MemCategory::Hidden);
        {
            obs::MemCategoryScope inner(
                obs::MemCategory::Aggregator);
            EXPECT_EQ(obs::currentMemCategory(),
                      obs::MemCategory::Aggregator);
        }
        EXPECT_EQ(obs::currentMemCategory(), obs::MemCategory::Hidden);
    }
    EXPECT_EQ(obs::currentMemCategory(),
              obs::MemCategory::Uncategorized);
}

TEST_F(ObsTest, MemCategoryNamesAreStableAndDistinct)
{
    std::vector<std::string> names;
    for (size_t c = 0; c < obs::kMemCategoryCount; ++c)
        names.push_back(
            obs::memCategoryName(obs::MemCategory(c)));
    EXPECT_EQ(names.front(), "parameters");
    EXPECT_EQ(names.back(), "uncategorized");
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
        << "category names must be distinct (they key JSON objects)";
}

TEST_F(ObsTest, MemProfilerRecordsOnlyWhenEnabled)
{
    obs::MicroBatchMemRecord record;
    record.actualTotalPeak = 100;
    obs::memProfiler().record(record);
    EXPECT_TRUE(obs::memProfiler().records().empty())
        << "disabled metrics must make record() a no-op";

    obs::Metrics::setEnabled(true);
    obs::memProfiler().record(record);
    ASSERT_EQ(obs::memProfiler().records().size(), 1u);
    EXPECT_EQ(obs::memProfiler().records()[0].actualTotalPeak, 100);
}

TEST_F(ObsTest, MemProfilerJsonRoundTrip)
{
    obs::Metrics::setEnabled(true);
    obs::MicroBatchMemRecord record;
    record.predicted[size_t(obs::MemCategory::InputFeatures)] = 120;
    record.actualPeak[size_t(obs::MemCategory::InputFeatures)] = 100;
    record.predictedTotalPeak = 120;
    record.actualTotalPeak = 100;
    obs::memProfiler().record(record);

    obs::JsonWriter out;
    obs::writeMemoryProfile(out, obs::memProfiler().records());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(out.take(), doc, &error)) << error;
    const JsonValue* batches = doc.find("micro_batches");
    ASSERT_NE(batches, nullptr);
    ASSERT_EQ(batches->array.size(), 1u);
    const JsonValue* categories =
        batches->array[0].find("categories");
    ASSERT_NE(categories, nullptr);
    const JsonValue* features = categories->find("input_features");
    ASSERT_NE(features, nullptr);
    EXPECT_EQ(features->find("predicted_bytes")->asInt(), 120);
    EXPECT_EQ(features->find("actual_bytes")->asInt(), 100);
    EXPECT_EQ(features->find("residual_bytes")->asInt(), 20);
    const JsonValue* peaks = doc.find("category_peaks");
    ASSERT_NE(peaks, nullptr);
    EXPECT_EQ(peaks->find("input_features")->asInt(), 100);
}

TEST_F(ObsTest, TraceCounterEventsAppearInChromeJson)
{
    obs::Trace::setEnabled(true);
    obs::Trace::recordCounter("obs_test/counter",
                              {{"hidden", 64}, {"gradients", 32}});
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(obs::Trace::chromeTraceJson(), doc, &error))
        << error;
    EXPECT_EQ(doc.find("schema_version")->asInt(),
              obs::kObsSchemaVersion);
    bool saw_counter = false;
    for (const auto& event : doc.find("traceEvents")->array) {
        if (event.find("ph")->string != "C" ||
            event.find("name")->string != "obs_test/counter")
            continue;
        saw_counter = true;
        const JsonValue* args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->find("hidden")->asInt(), 64);
        EXPECT_EQ(args->find("gradients")->asInt(), 32);
    }
    EXPECT_TRUE(saw_counter);
}

TEST_F(ObsTest, ExportsCarrySchemaVersionAndRunMeta)
{
    obs::Metrics::setEnabled(true);
    obs::setRunMeta("binary", "test_obs");
    const std::string snapshot = obs::Metrics::snapshotJson();
    obs::clearRunMeta();

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(snapshot, doc, &error)) << error;
    EXPECT_EQ(doc.find("schema_version")->asInt(),
              obs::kObsSchemaVersion);
    const JsonValue* meta = doc.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("binary")->string, "test_obs");
    ASSERT_NE(meta->find("timestamp"), nullptr);
    // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
    const std::string& stamp = meta->find("timestamp")->string;
    ASSERT_EQ(stamp.size(), 20u);
    EXPECT_EQ(stamp[10], 'T');
    EXPECT_EQ(stamp.back(), 'Z');
    ASSERT_NE(doc.find("memory_profile"), nullptr);
}

TEST_F(ObsTest, RunReportJsonRoundTrip)
{
    obs::RunReport report;
    report.setBinary("test_obs");
    report.setDataset("synthetic", 100, 400, 4, 16);
    report.setConfig("epochs", "2");
    report.setConfig("epochs", "3"); // updates, no duplicate
    obs::RunReportEpoch epoch;
    epoch.epoch = 0;
    epoch.k = 4;
    epoch.loss = 1.5;
    epoch.peakBytes = 2048;
    report.addEpoch(epoch);
    obs::MemTimelineSample sample;
    sample.tsUs = 7;
    sample.live[size_t(obs::MemCategory::Hidden)] = 30;
    sample.live[size_t(obs::MemCategory::Blocks)] = 12;
    sample.totalLive = 42;
    report.setTimeline({sample});
    report.setOomEvents(1);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report.toJson(), doc, &error)) << error;
    EXPECT_EQ(doc.find("schema_version")->asInt(),
              obs::kObsSchemaVersion);
    EXPECT_EQ(doc.find("binary")->string, "test_obs");
    EXPECT_EQ(doc.find("dataset")->find("nodes")->asInt(), 100);

    const JsonValue* config = doc.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->find("epochs")->string, "3");
    ASSERT_EQ(config->object.size(), 1u) << "setConfig must dedup";

    const JsonValue* epochs = doc.find("epochs");
    ASSERT_EQ(epochs->array.size(), 1u);
    EXPECT_EQ(epochs->array[0].find("k")->asInt(), 4);
    EXPECT_EQ(epochs->array[0].find("peak_bytes")->asInt(), 2048);

    const JsonValue* timeline = doc.find("timeline");
    ASSERT_EQ(timeline->array.size(), 1u);
    EXPECT_EQ(
        timeline->array[0].find("total_live_bytes")->asInt(), 42);
    const JsonValue* categories =
        timeline->array[0].find("categories");
    ASSERT_NE(categories, nullptr);
    EXPECT_EQ(categories->find("hidden")->asInt(), 30);
    EXPECT_EQ(categories->find("blocks")->asInt(), 12);

    EXPECT_EQ(doc.find("summary")->find("peak_bytes")->asInt(), 2048);
    EXPECT_EQ(doc.find("summary")->find("oom_events")->asInt(), 1);
}

TEST(ObsLoggingTest, LogLevelFiltersWarnings)
{
    setLogLevel(LogLevel::Silent);
    testing::internal::CaptureStderr();
    warn("obs_test: should be filtered");
    warnOnce("obs_test: also filtered");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    warn("obs_test: visible at warn level");
    const std::string captured = testing::internal::GetCapturedStderr();
    EXPECT_NE(captured.find("visible at warn level"),
              std::string::npos);
    setLogLevel(LogLevel::Info);
}

TEST(ObsLoggingTest, WarnOnceDeduplicatesByMessage)
{
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        warnOnce("obs_test: dedup-by-message");
    warnOnce("obs_test: a different message");
    const std::string captured = testing::internal::GetCapturedStderr();
    EXPECT_EQ(captured,
              "warn: obs_test: dedup-by-message\n"
              "warn: obs_test: a different message\n");
    setLogLevel(LogLevel::Info);
}

TEST(ObsLoggingTest, WarnOnceMacroFiresPerCallSite)
{
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        BETTY_WARN_ONCE("obs_test: macro call site, i=", i);
    const std::string captured = testing::internal::GetCapturedStderr();
    // One line total even though the message text varies.
    EXPECT_EQ(captured, "warn: obs_test: macro call site, i=0\n");
    setLogLevel(LogLevel::Info);
}

} // namespace
} // namespace betty
