#include "obs/trace.h"

#include "obs/json.h"
#include "obs/run_meta.h"
#include "util/env_config.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace betty::obs {

std::atomic<bool> Trace::enabled_{false};

namespace {

/**
 * One thread's event ring. Written lock-free by its owning thread;
 * readers synchronize through the head counter (release on write,
 * acquire on read), so snapshotting after the writer has quiesced —
 * the supported usage — observes every event.
 */
struct ThreadBuffer
{
    explicit ThreadBuffer(size_t capacity) : ring(capacity) {}

    std::vector<TraceEvent> ring;
    /** Total events ever recorded; ring index is head % capacity. */
    std::atomic<size_t> head{0};
};

struct Registry
{
    Registry() : ringCapacity(envcfg::traceRingCapacity()) {}

    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    /** Ordered, so exports list lane names in lane order. */
    std::map<int32_t, std::string> laneNames;
    int32_t nextLane = 0;
    std::atomic<size_t> ringCapacity;

    /** Counter samples (ph="C"): low-rate, so a capped flat vector
     * under the mutex beats per-thread rings. */
    std::vector<CounterSample> counters;
    int64_t droppedCounters = 0;

    /** Dependency edges: low-rate (one per task spawn / handoff /
     * join), same capped-vector treatment as counters. */
    std::vector<FlowEdge> flows;
    int64_t droppedFlows = 0;
};

/** Retention cap for counter samples across the process. */
constexpr size_t kMaxCounterSamples = 1 << 16;

/** Retention cap for flow edges across the process. */
constexpr size_t kMaxFlowEdges = 1 << 18;

Registry&
registry()
{
    static Registry* instance = new Registry; // leaked: outlives threads
    return *instance;
}

thread_local std::shared_ptr<ThreadBuffer> tls_buffer;
thread_local int32_t tls_lane = -1;

/** One open TraceSpan on the calling thread's stack. */
struct OpenSpan
{
    uint64_t id;
    /** Literal or nullptr; lets spawned work inherit a category. */
    const char* category;
};

/** The calling thread's open TraceSpans, innermost last. */
thread_local std::vector<OpenSpan> tls_span_stack;

/** Process-wide span id allocator; 0 is reserved for "no span". */
std::atomic<uint64_t> g_next_span_id{1};

ThreadBuffer&
threadBuffer()
{
    if (!tls_buffer) {
        auto& reg = registry();
        auto buffer = std::make_shared<ThreadBuffer>(
            reg.ringCapacity.load(std::memory_order_relaxed));
        std::lock_guard<std::mutex> lock(reg.mutex);
        if (tls_lane < 0)
            tls_lane = reg.nextLane++;
        reg.buffers.push_back(buffer);
        tls_buffer = std::move(buffer);
    }
    return *tls_buffer;
}

/** A Chrome metadata event ("process_name" / "thread_name"). */
void
writeMetadataEvent(JsonWriter& out, const char* kind, int32_t lane,
                   const std::string& name)
{
    out.beginObject();
    out.key("name").string(kind);
    out.key("ph").string("M");
    out.key("pid").integer(1);
    out.key("tid").integer(lane);
    out.key("args").beginObject().key("name").string(name).endObject();
    out.endObject();
}

/** One end of a Perfetto flow arrow: ph "s" starts it, "f" finishes
 * it on the enclosing slice. */
void
writeFlowEvent(JsonWriter& out, bool finish, size_t id, int64_t ts,
               int32_t lane)
{
    out.beginObject();
    out.key("name").string("dep");
    out.key("cat").string("betty.flow");
    out.key("ph").string(finish ? "f" : "s");
    if (finish)
        out.key("bp").string("e");
    out.key("id").integer(int64_t(id));
    out.key("ts").integer(ts);
    out.key("pid").integer(1);
    out.key("tid").integer(lane);
    out.endObject();
}

} // namespace

void
Trace::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

int64_t
Trace::nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point anchor = Clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - anchor)
        .count();
}

uint64_t
Trace::beginSpan(const char* category)
{
    const uint64_t id =
        g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    tls_span_stack.push_back(OpenSpan{id, category});
    return id;
}

void
Trace::endSpan(const char* name, const char* category, uint64_t id,
               int64_t start_us, int64_t dur_us)
{
    if (!tls_span_stack.empty() && tls_span_stack.back().id == id)
        tls_span_stack.pop_back();
    ThreadBuffer& buffer = threadBuffer();
    // Acquire pairs with clear()'s release: a slot reused after a
    // clear() is written only after the snapshot that read it.
    const size_t head = buffer.head.load(std::memory_order_acquire);
    buffer.ring[head % buffer.ring.size()] =
        TraceEvent{name, category, id, start_us, dur_us,
                   currentLane()};
    buffer.head.store(head + 1, std::memory_order_release);
}

uint64_t
Trace::currentSpanId()
{
    return tls_span_stack.empty() ? 0 : tls_span_stack.back().id;
}

const char*
Trace::currentSpanCategory()
{
    for (auto it = tls_span_stack.rbegin();
         it != tls_span_stack.rend(); ++it)
        if (it->category)
            return it->category;
    return nullptr;
}

void
Trace::recordFlow(uint64_t from_span, uint64_t to_span, int64_t ts_us)
{
    if (!enabled() || from_span == 0 || to_span == 0 ||
        from_span == to_span)
        return;
    if (ts_us < 0)
        ts_us = nowUs();
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.flows.size() >= kMaxFlowEdges) {
        ++reg.droppedFlows;
        return;
    }
    reg.flows.push_back(FlowEdge{from_span, to_span, ts_us});
}

std::vector<FlowEdge>
Trace::flowSnapshot()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.flows;
}

void
Trace::recordCounter(const char* track,
                     std::vector<std::pair<const char*, int64_t>> values)
{
    if (!enabled())
        return;
    const int64_t ts = nowUs();
    const int32_t lane = currentLane();
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.counters.size() >= kMaxCounterSamples) {
        ++reg.droppedCounters;
        return;
    }
    reg.counters.push_back(
        CounterSample{track, ts, lane, std::move(values)});
}

std::vector<CounterSample>
Trace::counterSnapshot()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.counters;
}

void
Trace::setLane(int32_t lane, const std::string& name)
{
    tls_lane = lane;
    if (!name.empty()) {
        auto& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.laneNames[lane] = name;
    }
}

int32_t
Trace::currentLane()
{
    if (tls_lane < 0) {
        auto& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        if (tls_lane < 0)
            tls_lane = reg.nextLane++;
    }
    return tls_lane;
}

void
Trace::nameCurrentLane(const std::string& name)
{
    if (name.empty())
        return;
    const int32_t lane = currentLane();
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.laneNames[lane] = name;
}

void
Trace::setRingCapacity(size_t events)
{
    registry().ringCapacity.store(events > 0 ? events : 1,
                                  std::memory_order_relaxed);
}

std::vector<TraceEvent>
Trace::snapshot()
{
    auto& reg = registry();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        buffers = reg.buffers;
    }
    std::vector<TraceEvent> events;
    for (const auto& buffer : buffers) {
        const size_t head =
            buffer->head.load(std::memory_order_acquire);
        const size_t capacity = buffer->ring.size();
        const size_t count = head < capacity ? head : capacity;
        const size_t first = head - count; // oldest retained event
        for (size_t i = 0; i < count; ++i)
            events.push_back(buffer->ring[(first + i) % capacity]);
    }
    return events;
}

int64_t
Trace::droppedEvents()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    int64_t dropped = reg.droppedCounters + reg.droppedFlows;
    for (const auto& buffer : reg.buffers) {
        const size_t head =
            buffer->head.load(std::memory_order_acquire);
        if (head > buffer->ring.size())
            dropped += int64_t(head - buffer->ring.size());
    }
    return dropped;
}

void
Trace::clear()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buffer : reg.buffers)
        buffer->head.store(0, std::memory_order_release);
    reg.counters.clear();
    reg.droppedCounters = 0;
    reg.flows.clear();
    reg.droppedFlows = 0;
}

std::string
Trace::chromeTraceJson()
{
    // Flows before spans, as in critpath::buildFromLiveTrace: a pool
    // task's spawn edge is recorded after its span, so no exported
    // edge can outrun its endpoint.
    const auto flows = flowSnapshot();
    const auto events = snapshot();
    const auto counters = counterSnapshot();
    const int64_t dropped = droppedEvents();
    std::map<int32_t, std::string> lane_names;
    size_t ring_capacity = 0;
    {
        auto& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        lane_names = reg.laneNames;
        ring_capacity =
            reg.ringCapacity.load(std::memory_order_relaxed);
    }

    // Spans by id, for resolving flow-edge endpoints to lanes below.
    std::unordered_map<uint64_t, const TraceEvent*> by_id;
    by_id.reserve(events.size());
    for (const auto& event : events)
        if (event.id != 0)
            by_id.emplace(event.id, &event);

    JsonWriter out;
    out.beginObject();
    out.key("displayTimeUnit").string("ms");
    out.key("schema_version").integer(kObsSchemaVersion);
    out.key("otherData");
    writeRunMeta(out);
    out.key("metadata").beginObject();
    out.key("droppedEvents").integer(dropped);
    out.key("ringCapacity").integer(int64_t(ring_capacity));
    out.endObject();
    // Machine-readable dependency edges: betty_report critpath reads
    // these; the ph "s"/"f" pairs below are only for Perfetto arrows.
    out.key("flows").beginArray();
    for (const FlowEdge& flow : flows) {
        out.beginObject();
        out.key("from").integer(int64_t(flow.fromSpan));
        out.key("to").integer(int64_t(flow.toSpan));
        out.key("ts").integer(flow.tsUs);
        out.endObject();
    }
    out.endArray();
    out.key("traceEvents").beginArray();
    writeMetadataEvent(out, "process_name", 0, "betty");
    for (const auto& [lane, name] : lane_names)
        writeMetadataEvent(out, "thread_name", lane, name);
    for (const TraceEvent& event : events) {
        out.beginObject();
        out.key("name").string(event.name);
        out.key("cat").string(event.category ? event.category : "betty");
        out.key("ph").string("X");
        out.key("ts").integer(event.startUs);
        out.key("dur").integer(event.durUs);
        out.key("pid").integer(1);
        out.key("tid").integer(event.lane);
        out.key("args").beginObject();
        out.key("span_id").integer(int64_t(event.id));
        out.endObject();
        out.endObject();
    }
    for (size_t i = 0; i < flows.size(); ++i) {
        const auto from = by_id.find(flows[i].fromSpan);
        const auto to = by_id.find(flows[i].toSpan);
        if (from == by_id.end() || to == by_id.end())
            continue; // endpoint dropped from a ring: no arrow
        const TraceEvent& src = *from->second;
        const TraceEvent& dst = *to->second;
        writeFlowEvent(out, false, i,
                       std::min(flows[i].tsUs, src.startUs + src.durUs),
                       src.lane);
        writeFlowEvent(out, true, i, std::max(flows[i].tsUs, dst.startUs),
                       dst.lane);
    }
    for (const CounterSample& sample : counters) {
        out.beginObject();
        out.key("name").string(sample.track);
        out.key("cat").string("betty");
        out.key("ph").string("C");
        out.key("ts").integer(sample.tsUs);
        out.key("pid").integer(1);
        out.key("tid").integer(sample.lane);
        out.key("args").beginObject();
        for (const auto& [key, value] : sample.values)
            out.key(key).integer(value);
        out.endObject();
        out.endObject();
    }
    out.endArray();
    out.endObject();
    return out.take();
}

TraceLaneScope::TraceLaneScope(int32_t lane, const std::string& name)
    : previous_(Trace::currentLane())
{
    Trace::setLane(lane, name);
}

TraceLaneScope::~TraceLaneScope()
{
    Trace::setLane(previous_);
}

} // namespace betty::obs
