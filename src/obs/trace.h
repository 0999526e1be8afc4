/**
 * @file
 * Scoped trace spans exported as Chrome trace_event JSON.
 *
 * Betty's performance story is about where time goes — sampling vs.
 * REG construction vs. K-way partitioning vs. transfer vs. compute
 * (paper §4.3–§4.4) — so the hot paths are bracketed with
 * BETTY_TRACE_SPAN("phase/name") markers. Each span records into a
 * per-thread ring buffer; Trace::chromeTraceJson() merges the buffers
 * into a JSON document that chrome://tracing or
 * https://ui.perfetto.dev can open directly.
 *
 * Spans additionally carry a process-unique id, an optional category
 * tag ("compute", "transfer", ...), and may be connected by explicit
 * dependency (flow) edges recorded with Trace::recordFlow() — the raw
 * material obs/critpath/ builds its span dependency DAG and
 * critical-path attribution from. Flow edges are emitted only where a
 * dependency is real: thread-pool task spawn and join, the trainer's
 * prefetch(k+1) -> compute(k) pipeline handoff, micro-batch ordering
 * within an epoch, and resilient-trainer replan boundaries.
 *
 * Cost model: collection is off by default, and a disabled span costs
 * exactly one relaxed atomic load and branch in its constructor (no
 * allocation, no lock, no clock read) — cheap enough to leave in
 * per-micro-batch and per-partition-phase code permanently. When
 * enabled, recording is lock-free: each thread appends to its own
 * fixed-capacity ring (oldest events are overwritten once full, and
 * counted as dropped). Ring capacity comes from BETTY_TRACE_RING
 * (util/env_config.h) unless overridden with setRingCapacity().
 *
 * Lanes ("tid" in the Chrome JSON) never depend on the order threads
 * start in: pool worker N always records on lane kPoolWorkerLaneBase
 * + N, and every other thread takes the next of 0, 1, 2, ... when it
 * first records, so the thread that drives a run records on lane 0.
 * Simulated devices execute serially on one OS thread; TraceLaneScope
 * reassigns the lane so each device still gets its own swimlane in
 * the viewer.
 */
#ifndef BETTY_OBS_TRACE_H
#define BETTY_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace betty::obs {

/** One completed span, timestamps in microseconds since trace start. */
struct TraceEvent
{
    /** Span label; must point at storage that outlives the trace
     * (string literals in practice). */
    const char* name = nullptr;

    /** Attribution category ("compute", "transfer", "gather",
     * "sample", "partition", "stall"); nullptr = uncategorized.
     * String literal, stored by pointer like @ref name. */
    const char* category = nullptr;

    /** Process-unique span id (never 0 for recorded spans); flow
     * edges reference spans by this id. */
    uint64_t id = 0;

    /** Start time, microseconds since the process time anchor. */
    int64_t startUs = 0;

    /** Duration in microseconds. */
    int64_t durUs = 0;

    /** Swimlane ("tid" in the exported JSON): the recording thread's
     * lane (file comment), unless overridden by TraceLaneScope. */
    int32_t lane = 0;
};

/**
 * One dependency (flow) edge between two spans: work recorded as span
 * @ref toSpan could not proceed past @ref tsUs until span @ref
 * fromSpan had reached it (task spawn, pipeline handoff, join,
 * ordering). Exported in the Chrome JSON both as a top-level "flows"
 * array (machine-readable, for betty_report critpath) and as ph
 * "s"/"f" event pairs (Perfetto arrows).
 */
struct FlowEdge
{
    /** Producing span's id. */
    uint64_t fromSpan = 0;

    /** Consuming span's id. */
    uint64_t toSpan = 0;

    /** When the dependency bound, microseconds since the process time
     * anchor: spawn time for spawn edges, wait-return time for
     * join/handoff edges. */
    int64_t tsUs = 0;
};

/**
 * One multi-value counter sample (Chrome ph="C" event). Perfetto
 * renders each track as a stacked area chart with one band per value
 * key — the per-category memory lanes of docs/OBSERVABILITY.md.
 */
struct CounterSample
{
    /** Track label; string literal (stored by pointer, like spans). */
    const char* track = nullptr;

    /** Sample time, microseconds since the process time anchor. */
    int64_t tsUs = 0;

    /** Swimlane the sample belongs to (device lane in practice). */
    int32_t lane = 0;

    /** (key literal, value) pairs plotted as stacked bands. */
    std::vector<std::pair<const char*, int64_t>> values;
};

/** Process-wide trace collector (all methods are static). */
class Trace
{
  public:
    /** True if spans are being recorded. Hot-path gate. */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Turn collection on or off (off drops nothing already recorded). */
    static void setEnabled(bool on);

    /** Microseconds since the process time anchor (first use). */
    static int64_t nowUs();

    /**
     * Open a span on the calling thread: allocates a fresh id and
     * pushes it (with @p category, a literal or nullptr) on the
     * thread's open-span stack so nested spans (and recordFlow
     * callers) can see it via currentSpanId().
     */
    static uint64_t beginSpan(const char* category = nullptr);

    /** Close the span opened by the matching beginSpan(): pops the
     * open-span stack and records the completed event. */
    static void endSpan(const char* name, const char* category,
                        uint64_t id, int64_t start_us, int64_t dur_us);

    /** Id of the innermost open TraceSpan on this thread (0 if none —
     * including whenever tracing is disabled). */
    static uint64_t currentSpanId();

    /** Category of the innermost open span that has one (nullptr if
     * none). Lets spawned pool work inherit its caller's category. */
    static const char* currentSpanCategory();

    /**
     * Record a dependency edge @p from_span -> @p to_span binding at
     * @p ts_us (default: now). No-op while disabled or when either id
     * is 0; edges beyond the retention cap are counted as dropped.
     */
    static void recordFlow(uint64_t from_span, uint64_t to_span,
                           int64_t ts_us = -1);

    /** All retained flow edges, in record order. */
    static std::vector<FlowEdge> flowSnapshot();

    /**
     * Append one counter sample for track @p track (a literal) at
     * the current time on the calling thread's lane. No-op while
     * disabled; samples beyond the retention cap are counted as
     * dropped.
     */
    static void
    recordCounter(const char* track,
                  std::vector<std::pair<const char*, int64_t>> values);

    /** All retained counter samples, in record order. */
    static std::vector<CounterSample> counterSnapshot();

    /** Lanes of the pool workers: worker N records on this + N. */
    static constexpr int32_t kPoolWorkerLaneBase = 100;

    /**
     * Override the calling thread's lane id (and optionally give the
     * lane a display name). Prefer TraceLaneScope for scoped use.
     */
    static void setLane(int32_t lane, const std::string& name = "");

    /** The calling thread's current lane id. */
    static int32_t currentLane();

    /** Name the calling thread's current lane (thread_name metadata
     * in the exported JSON) without changing its id. */
    static void nameCurrentLane(const std::string& name);

    /**
     * Ring capacity (events) for buffers of threads that have not
     * recorded yet; existing buffers keep their capacity. Overrides
     * the BETTY_TRACE_RING environment default.
     */
    static void setRingCapacity(size_t events);

    /** All retained events from every thread, oldest first per lane. */
    static std::vector<TraceEvent> snapshot();

    /** Events (spans, counter samples, flow edges) lost to retention
     * caps, across threads. Raise BETTY_TRACE_RING when nonzero. */
    static int64_t droppedEvents();

    /**
     * Drop all recorded events, counters, and flow edges (buffers
     * stay registered). Only call while no other thread is recording.
     */
    static void clear();

    /** The merged trace as a Chrome trace_event JSON document. */
    static std::string chromeTraceJson();

  private:
    static std::atomic<bool> enabled_;
};

/** RAII span: records [construction, destruction) when tracing is on. */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name,
                       const char* category = nullptr)
    {
        if (Trace::enabled()) {
            name_ = name;
            category_ = category;
            id_ = Trace::beginSpan(category);
            start_ = Trace::nowUs();
        }
    }

    ~TraceSpan()
    {
        if (name_)
            Trace::endSpan(name_, category_, id_, start_,
                           Trace::nowUs() - start_);
    }

    /** This span's process-unique id (0 when tracing was disabled at
     * construction) — the handle Trace::recordFlow() edges use. */
    uint64_t
    id() const
    {
        return id_;
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    const char* name_ = nullptr;
    const char* category_ = nullptr;
    uint64_t id_ = 0;
    int64_t start_ = 0;
};

/** RAII lane override: spans on this thread land in lane @p lane until
 * the scope ends (used to give each simulated device a swimlane). */
class TraceLaneScope
{
  public:
    TraceLaneScope(int32_t lane, const std::string& name = "");
    ~TraceLaneScope();

    TraceLaneScope(const TraceLaneScope&) = delete;
    TraceLaneScope& operator=(const TraceLaneScope&) = delete;

  private:
    int32_t previous_;
};

#define BETTY_OBS_CONCAT2(a, b) a##b
#define BETTY_OBS_CONCAT(a, b) BETTY_OBS_CONCAT2(a, b)

/** Trace the enclosing scope as a span named @p name (a literal). */
#define BETTY_TRACE_SPAN(name)                                   \
    ::betty::obs::TraceSpan BETTY_OBS_CONCAT(betty_trace_span_,  \
                                             __LINE__)(name)

/** Trace the enclosing scope as a span named @p name carrying
 * attribution category @p category (both literals). */
#define BETTY_TRACE_SPAN_CAT(name, category)                     \
    ::betty::obs::TraceSpan BETTY_OBS_CONCAT(betty_trace_span_,  \
                                             __LINE__)(name, category)

} // namespace betty::obs

#endif // BETTY_OBS_TRACE_H
