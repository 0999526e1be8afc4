/**
 * @file
 * The critical-path analyzer (obs/critpath/).
 *
 * Three layers:
 *   - a hand-built golden pipeline DAG whose critical path, category
 *     attribution, and what-if projections are known in closed form;
 *   - property tests over randomly generated pipelined schedules:
 *     cp <= wall, cp >= the longest step, category shares sum to 1,
 *     what-if at scale 1.0 is the exact identity, and a smaller scale
 *     never lengthens the projected makespan;
 *   - a live recording through the real ThreadPool at 4 threads:
 *     spans carry ids and categories, spawn/join flow edges exist,
 *     and the analysis passes its own consistency gate — also when
 *     the snapshot is taken while a pool task is still in its span.
 *
 * The typed-error taxonomy (dangling edge vs. cycle vs. schema) is
 * covered here at the API level; the betty_report CLI surface of the
 * same errors is exercised by the fixture tests in
 * tools/CMakeLists.txt over tests/data/critpath/.
 */
#include <cmath>
#include <future>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critpath/critical_path.h"
#include "obs/critpath/span_graph.h"
#include "obs/critpath/whatif.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace betty::obs::critpath {
namespace {

GraphSpan
span(uint64_t id, const char* name, const char* category,
     int32_t lane, int64_t start_us, int64_t dur_us)
{
    GraphSpan s;
    s.id = id;
    s.name = name;
    s.category = category ? category : "";
    s.lane = lane;
    s.startUs = start_us;
    s.durUs = dur_us;
    return s;
}

/** validate + segment a graph, failing the test on any error. */
SegmentGraph
mustBuild(SpanGraph* graph)
{
    CritpathError error;
    EXPECT_TRUE(validateSpanGraph(graph, &error)) << error.message;
    SegmentGraph segments;
    EXPECT_TRUE(buildSegmentGraph(*graph, &segments, &error))
        << error.message;
    return segments;
}

/**
 * The canonical two-lane pipeline (trainer's prefetch -> compute):
 *
 *   lane 0 (producer): P1 transfer [0,10)   P2 transfer [10,20)
 *   lane 1 (consumer): C1 compute  [10,25)  C2 compute  [25,40)
 *   flows: P1 -> C1 @10, P2 -> C2 @20
 *
 * Critical path: P1, C1, C2 (C2's binding predecessor is C1, which
 * ends at its start; P2 finished 5us earlier). cp = wall = 40us,
 * attribution: compute 30us (75%), transfer 10us (25%).
 */
SpanGraph
goldenPipeline()
{
    SpanGraph graph;
    graph.spans = {
        span(1, "train/prefetch", "transfer", 0, 0, 10),
        span(2, "train/prefetch", "transfer", 0, 10, 10),
        span(3, "train/forward", "compute", 1, 10, 15),
        span(4, "train/forward", "compute", 1, 25, 15),
    };
    graph.flows = {{1, 3, 10}, {2, 4, 20}};
    return graph;
}

TEST(GoldenDag, CriticalPathAndAttribution)
{
    SpanGraph graph = goldenPipeline();
    const SegmentGraph segments = mustBuild(&graph);
    const CriticalPathResult result =
        analyzeCriticalPath(graph, segments);

    EXPECT_EQ(result.wallUs, 40);
    EXPECT_EQ(result.cpUs, 40);
    EXPECT_DOUBLE_EQ(result.coverage, 1.0);

    int64_t compute_us = 0, transfer_us = 0, other_us = 0;
    for (const CategoryShare& share : result.categories) {
        if (share.category == "compute")
            compute_us = share.us;
        else if (share.category == "transfer")
            transfer_us = share.us;
        else
            other_us += share.us;
    }
    EXPECT_EQ(compute_us, 30);
    EXPECT_EQ(transfer_us, 10);
    EXPECT_EQ(other_us, 0);

    std::vector<std::string> violations;
    EXPECT_TRUE(validateCriticalPath(result, &violations))
        << (violations.empty() ? "" : violations.front());
}

TEST(GoldenDag, WhatIfProjectionsMatchClosedForm)
{
    SpanGraph graph = goldenPipeline();
    const SegmentGraph segments = mustBuild(&graph);

    // Halving transfers: P1 [0,5), P2 [5,10); C1 starts at 5, C2 at
    // max(C1 end 20, P2 end 10) = 20, finishing at 35.
    const WhatIfResult transfer_half =
        projectWhatIf(graph, segments, {"transfer", 0.5});
    EXPECT_DOUBLE_EQ(transfer_half.baselineModelUs, 40.0);
    EXPECT_DOUBLE_EQ(transfer_half.projectedUs, 35.0);

    // Halving compute: C1 [10,17.5), C2 starts at max(17.5, P2 end
    // 20) = 20 — the pipeline flips to transfer-bound.
    const WhatIfResult compute_half =
        projectWhatIf(graph, segments, {"compute", 0.5});
    EXPECT_DOUBLE_EQ(compute_half.projectedUs, 27.5);

    // Scaling a category the trace does not contain changes nothing.
    const WhatIfResult absent =
        projectWhatIf(graph, segments, {"sample", 0.25});
    EXPECT_DOUBLE_EQ(absent.projectedUs, absent.baselineModelUs);
}

TEST(GoldenDag, ExplicitStallSpansModelAsPureWaiting)
{
    // A consumer that wraps its wait in a "stall" span (the trainer's
    // train/pipeline_wait): lane 1 waits [0,10) for P1, computes
    // [10,20). Faster transfer must shorten the projected makespan —
    // the wait is synchronization, not fixed work.
    SpanGraph graph;
    graph.spans = {
        span(1, "train/prefetch", "transfer", 0, 0, 10),
        span(2, "train/pipeline_wait", "stall", 1, 0, 10),
        span(3, "train/forward", "compute", 1, 10, 10),
    };
    graph.flows = {{1, 3, 10}};
    const SegmentGraph segments = mustBuild(&graph);

    const WhatIfResult faster =
        projectWhatIf(graph, segments, {"transfer", 0.5});
    EXPECT_DOUBLE_EQ(faster.baselineModelUs, 20.0);
    EXPECT_DOUBLE_EQ(faster.projectedUs, 15.0);
}

// ------------------------------------------------- property tests

/**
 * A random but realistic pipelined schedule: a producer lane hands
 * off to a consumer lane stage by stage (consumer i starts when both
 * consumer i-1 and producer i are done), plus an independent third
 * lane of sequential work.
 */
SpanGraph
randomPipeline(std::mt19937_64& rng)
{
    std::uniform_int_distribution<int64_t> dur(1, 100);
    std::uniform_int_distribution<int64_t> gap(0, 20);
    std::uniform_int_distribution<int> stages(2, 12);

    SpanGraph graph;
    uint64_t next_id = 1;
    const int n = stages(rng);

    std::vector<int64_t> producer_end(size_t(n), 0);
    int64_t cursor = 0;
    for (int i = 0; i < n; ++i) {
        const int64_t d = dur(rng);
        graph.spans.push_back(span(next_id++, "train/prefetch",
                                   "transfer", 0, cursor, d));
        cursor += d;
        producer_end[size_t(i)] = cursor;
        cursor += gap(rng);
    }

    int64_t consumer_cursor = 0;
    for (int i = 0; i < n; ++i) {
        const int64_t start =
            std::max(consumer_cursor, producer_end[size_t(i)]);
        const int64_t d = dur(rng);
        graph.spans.push_back(span(next_id, "train/forward",
                                   "compute", 1, start, d));
        graph.flows.push_back({uint64_t(i + 1), next_id,
                               producer_end[size_t(i)]});
        ++next_id;
        consumer_cursor = start + d;
    }

    int64_t side_cursor = gap(rng);
    for (int i = 0; i < n / 2; ++i) {
        const int64_t d = dur(rng);
        graph.spans.push_back(span(next_id++, "sample/neighbor",
                                   "sample", 2, side_cursor, d));
        side_cursor += d + gap(rng);
    }
    return graph;
}

TEST(Properties, RandomSchedulesSatisfyTheInvariants)
{
    std::mt19937_64 rng(20260807);
    for (int trial = 0; trial < 50; ++trial) {
        SpanGraph graph = randomPipeline(rng);
        const SegmentGraph segments = mustBuild(&graph);
        const CriticalPathResult result =
            analyzeCriticalPath(graph, segments);

        std::vector<std::string> violations;
        EXPECT_TRUE(validateCriticalPath(result, &violations))
            << "trial " << trial << ": "
            << (violations.empty() ? "" : violations.front());
        EXPECT_LE(result.cpUs, result.wallUs) << "trial " << trial;
        EXPECT_GE(result.cpUs, result.longestStepUs)
            << "trial " << trial;

        double share_sum = 0.0;
        for (const CategoryShare& share : result.categories)
            share_sum += share.share;
        EXPECT_NEAR(share_sum, 1.0, 1e-9) << "trial " << trial;
    }
}

TEST(Properties, WhatIfIdentityAndMonotonicity)
{
    std::mt19937_64 rng(7);
    const char* const categories[] = {"transfer", "compute",
                                      "sample"};
    for (int trial = 0; trial < 50; ++trial) {
        SpanGraph graph = randomPipeline(rng);
        const SegmentGraph segments = mustBuild(&graph);
        for (const char* category : categories) {
            // Identity: scale 1.0 replays the identical schedule
            // (same floating-point operations), bit-exact.
            const WhatIfResult identity =
                projectWhatIf(graph, segments, {category, 1.0});
            EXPECT_EQ(identity.projectedUs, identity.baselineModelUs)
                << "trial " << trial << " " << category;
            EXPECT_DOUBLE_EQ(identity.projectedSpeedupPct, 0.0);

            // Monotone: a smaller scale never lengthens the
            // makespan, a larger one never shortens it.
            double previous = 0.0;
            for (const double scale : {0.1, 0.5, 1.0, 2.0}) {
                const WhatIfResult projected = projectWhatIf(
                    graph, segments, {category, scale});
                EXPECT_GE(projected.projectedUs, previous)
                    << "trial " << trial << " " << category << " x"
                    << scale;
                previous = projected.projectedUs;
            }
        }
    }
}

// ----------------------------------------------- typed error paths

TEST(Validation, DanglingEdgeIsTypedInALosslessTrace)
{
    SpanGraph graph;
    graph.spans = {span(1, "a", "compute", 0, 0, 10)};
    graph.flows = {{1, 99, 10}};
    CritpathError error;
    EXPECT_FALSE(validateSpanGraph(&graph, &error));
    EXPECT_EQ(error.kind, CritpathErrorKind::DanglingEdge);
    EXPECT_NE(error.message.find("99"), std::string::npos);
}

TEST(Validation, DanglingEdgeIsPrunedWhenEventsWereDropped)
{
    SpanGraph graph;
    graph.spans = {span(1, "a", "compute", 0, 0, 10)};
    graph.flows = {{1, 99, 10}};
    graph.droppedEvents = 3;
    CritpathError error;
    EXPECT_TRUE(validateSpanGraph(&graph, &error)) << error.message;
    EXPECT_TRUE(graph.flows.empty());
    EXPECT_EQ(graph.prunedFlows, 1);
}

TEST(Validation, DuplicateIdsAndNegativeDurationsAreMalformed)
{
    {
        SpanGraph graph;
        graph.spans = {span(1, "a", "compute", 0, 0, 10),
                       span(1, "b", "compute", 1, 0, 10)};
        CritpathError error;
        EXPECT_FALSE(validateSpanGraph(&graph, &error));
        EXPECT_EQ(error.kind, CritpathErrorKind::Malformed);
    }
    {
        SpanGraph graph;
        graph.spans = {span(1, "a", "compute", 0, 0, -5)};
        CritpathError error;
        EXPECT_FALSE(validateSpanGraph(&graph, &error));
        EXPECT_EQ(error.kind, CritpathErrorKind::Malformed);
    }
}

TEST(Validation, TimeInconsistentFlowsAreACycle)
{
    // B finished long before A started, yet one edge claims A feeds
    // B and another claims B feeds A: segment-level cycle.
    SpanGraph graph;
    graph.spans = {span(1, "a", "compute", 0, 50, 50),
                   span(2, "b", "compute", 1, 0, 30)};
    graph.flows = {{1, 2, 100}, {2, 1, 30}};
    CritpathError error;
    ASSERT_TRUE(validateSpanGraph(&graph, &error)) << error.message;
    SegmentGraph segments;
    EXPECT_FALSE(buildSegmentGraph(graph, &segments, &error));
    EXPECT_EQ(error.kind, CritpathErrorKind::Cycle);
}

TEST(TraceJson, SchemaErrorsAreTyped)
{
    JsonValue doc;
    std::string parse_error;
    SpanGraph graph;
    CritpathError error;

    ASSERT_TRUE(
        parseJson("{\"traceEvents\":[]}", doc, &parse_error));
    EXPECT_FALSE(buildFromTraceJson(doc, &graph, &error));
    EXPECT_EQ(error.kind, CritpathErrorKind::MissingSchema);

    ASSERT_TRUE(parseJson(
        "{\"schema_version\":99,\"traceEvents\":[]}", doc,
        &parse_error));
    EXPECT_FALSE(buildFromTraceJson(doc, &graph, &error));
    EXPECT_EQ(error.kind, CritpathErrorKind::BadSchema);
}

TEST(TraceJson, RoundTripsTheLiveTraceExport)
{
    Trace::clear();
    Trace::setEnabled(true);
    uint64_t producer_id = 0;
    {
        TraceSpan producer("train/prefetch", "transfer");
        producer_id = producer.id();
    }
    {
        TraceSpan consumer("train/forward", "compute");
        Trace::recordFlow(producer_id, consumer.id());
    }
    const std::string json = Trace::chromeTraceJson();
    Trace::setEnabled(false);
    Trace::clear();

    JsonValue doc;
    std::string parse_error;
    ASSERT_TRUE(parseJson(json, doc, &parse_error)) << parse_error;
    SpanGraph graph;
    CritpathError error;
    ASSERT_TRUE(buildFromTraceJson(doc, &graph, &error))
        << error.message;
    EXPECT_EQ(graph.spans.size(), 2u);
    ASSERT_EQ(graph.flows.size(), 1u);
    EXPECT_EQ(graph.flows[0].from, producer_id);
    EXPECT_EQ(spanCategory(graph.spans[0]), "transfer");
}

// ------------------------------------------------- live recording

TEST(LiveTrace, PipelinedPoolRunPassesTheConsistencyGate)
{
    ThreadPool::setGlobalThreads(4);
    Trace::clear();
    Trace::setEnabled(true);
    {
        TraceSpan root("epoch/sample", "sample");
        ThreadPool::global().parallelFor(
            0, 64, 4, [](int64_t lo, int64_t hi) {
                volatile int64_t sink = 0;
                for (int64_t i = lo; i < hi; ++i)
                    for (int64_t j = 0; j < 2000; ++j)
                        sink = sink + i * j;
            });
    }
    SpanGraph graph = buildFromLiveTrace();
    Trace::setEnabled(false);
    Trace::clear();
    ThreadPool::setGlobalThreads(1);

    // Every span got a nonzero id; the chunks inherited the sample
    // category; spawn and join edges both exist.
    ASSERT_GT(graph.spans.size(), 1u);
    bool chunk_categorized = false;
    for (const GraphSpan& s : graph.spans) {
        EXPECT_NE(s.id, 0u);
        if (s.name == "pool/chunk" &&
            spanCategory(s) == "sample")
            chunk_categorized = true;
    }
    EXPECT_TRUE(chunk_categorized);
    EXPECT_GE(graph.flows.size(), 2u);

    const SegmentGraph segments = mustBuild(&graph);
    const CriticalPathResult result =
        analyzeCriticalPath(graph, segments);
    std::vector<std::string> violations;
    EXPECT_TRUE(validateCriticalPath(result, &violations))
        << (violations.empty() ? "" : violations.front());
    EXPECT_GT(result.cpUs, 0);
    EXPECT_LE(result.cpUs, result.wallUs);
}

TEST(LiveTrace, SnapshotWhileATaskIsInsideItsSpanHasNoDanglingEdge)
{
    // A pool task's spawn edge must not reach the trace before the
    // task's span does. Hold a task inside its pool/task span while
    // the graph is built: the snapshot must be consistent without it.
    ThreadPool::setGlobalThreads(2);
    Trace::clear();
    Trace::setEnabled(true);
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::future<void> task;
    {
        TraceSpan root("epoch/sample", "sample");
        task = ThreadPool::global().submit([&entered, released] {
            entered.set_value();
            released.wait();
        });
    }
    entered.get_future().wait();
    SpanGraph held = buildFromLiveTrace();
    release.set_value();
    task.get();
    ThreadPool::setGlobalThreads(1); // joins the worker: span closed
    SpanGraph finished = buildFromLiveTrace();
    Trace::setEnabled(false);
    Trace::clear();

    CritpathError error;
    EXPECT_EQ(held.droppedEvents, 0);
    EXPECT_TRUE(held.flows.empty());
    EXPECT_TRUE(validateSpanGraph(&held, &error)) << error.message;
    EXPECT_EQ(finished.flows.size(), 1u);
    EXPECT_TRUE(validateSpanGraph(&finished, &error)) << error.message;
}

} // namespace
} // namespace betty::obs::critpath
