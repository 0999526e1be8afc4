#include "obs/trace.h"

#include "obs/run_meta.h"
#include "util/env_config.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
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
    std::unordered_map<int32_t, std::string> laneNames;
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

void
appendJsonEscaped(std::string& out, const std::string& text)
{
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

void
appendSpanEvent(std::string& out, const TraceEvent& event)
{
    std::string name;
    appendJsonEscaped(name, event.name);
    char line[320];
    std::snprintf(line, sizeof(line),
                  ",{\"name\":\"%s\",\"cat\":\"%s\","
                  "\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                  "\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"span_id\":%llu}}",
                  name.c_str(),
                  event.category ? event.category : "betty",
                  (long long)event.startUs, (long long)event.durUs,
                  event.lane, (unsigned long long)event.id);
    out += line;
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

void
Trace::record(const char* name, int64_t start_us, int64_t dur_us)
{
    const uint64_t id =
        g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    endSpan(name, nullptr, id | (uint64_t(1) << 63), start_us,
            dur_us);
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
    // record() reuses this path for stack-less one-shot events by
    // setting the top bit; strip it and skip the pop.
    const bool on_stack = (id >> 63) == 0;
    id &= ~(uint64_t(1) << 63);
    if (on_stack && !tls_span_stack.empty() &&
        tls_span_stack.back().id == id)
        tls_span_stack.pop_back();
    ThreadBuffer& buffer = threadBuffer();
    const size_t head = buffer.head.load(std::memory_order_relaxed);
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
    std::unordered_map<int32_t, std::string> lane_names;
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

    std::string out;
    out.reserve(events.size() * 128 + counters.size() * 192 +
                flows.size() * 224 + 512);
    out += "{\"displayTimeUnit\":\"ms\",\"schema_version\":";
    out += std::to_string(kObsSchemaVersion);
    out += ",\"otherData\":";
    out += runMetaJson();
    out += ",\"metadata\":{\"droppedEvents\":";
    out += std::to_string(dropped);
    out += ",\"ringCapacity\":";
    out += std::to_string(ring_capacity);
    out += "}";
    // Machine-readable dependency edges: betty_report critpath reads
    // these; the ph "s"/"f" pairs below are only for Perfetto arrows.
    out += ",\"flows\":[";
    for (size_t i = 0; i < flows.size(); ++i) {
        if (i)
            out += ",";
        out += "{\"from\":";
        out += std::to_string(flows[i].fromSpan);
        out += ",\"to\":";
        out += std::to_string(flows[i].toSpan);
        out += ",\"ts\":";
        out += std::to_string(flows[i].tsUs);
        out += "}";
    }
    out += "]";
    out += ",\"traceEvents\":[";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"betty\"}}";
    for (const auto& [lane, name] : lane_names) {
        out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":";
        out += std::to_string(lane);
        out += ",\"args\":{\"name\":\"";
        appendJsonEscaped(out, name);
        out += "\"}}";
    }
    for (const auto& event : events)
        appendSpanEvent(out, event);
    char line[256];
    for (size_t i = 0; i < flows.size(); ++i) {
        const auto from = by_id.find(flows[i].fromSpan);
        const auto to = by_id.find(flows[i].toSpan);
        if (from == by_id.end() || to == by_id.end())
            continue; // endpoint dropped from a ring: no arrow
        const TraceEvent& src = *from->second;
        const TraceEvent& dst = *to->second;
        const int64_t src_ts =
            std::min(flows[i].tsUs, src.startUs + src.durUs);
        const int64_t dst_ts =
            std::max(flows[i].tsUs, dst.startUs);
        std::snprintf(line, sizeof(line),
                      ",{\"name\":\"dep\",\"cat\":\"betty.flow\","
                      "\"ph\":\"s\",\"id\":%zu,\"ts\":%lld,"
                      "\"pid\":1,\"tid\":%d}",
                      i, (long long)src_ts, src.lane);
        out += line;
        std::snprintf(line, sizeof(line),
                      ",{\"name\":\"dep\",\"cat\":\"betty.flow\","
                      "\"ph\":\"f\",\"bp\":\"e\",\"id\":%zu,"
                      "\"ts\":%lld,\"pid\":1,\"tid\":%d}",
                      i, (long long)dst_ts, dst.lane);
        out += line;
    }
    for (const auto& sample : counters) {
        out += ",{\"name\":\"";
        appendJsonEscaped(out, sample.track);
        out += "\",\"cat\":\"betty\",\"ph\":\"C\",\"ts\":";
        out += std::to_string(sample.tsUs);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(sample.lane);
        out += ",\"args\":{";
        bool first_value = true;
        for (const auto& [key, value] : sample.values) {
            if (!first_value)
                out += ",";
            first_value = false;
            out += "\"";
            appendJsonEscaped(out, key);
            out += "\":";
            out += std::to_string(value);
        }
        out += "}}";
    }
    out += "]}";
    return out;
}

bool
Trace::writeChromeTrace(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    const std::string json = chromeTraceJson();
    const size_t written =
        std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    return written == json.size();
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
