#include "obs/critpath/span_graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.h"
#include "obs/run_meta.h"
#include "obs/trace.h"

namespace betty::obs::critpath {

namespace {

CritpathError
makeError(CritpathErrorKind kind, std::string message)
{
    CritpathError error;
    error.kind = kind;
    error.message = std::move(message);
    return error;
}

bool
fail(CritpathError* error, CritpathErrorKind kind,
     std::string message)
{
    if (error)
        *error = makeError(kind, std::move(message));
    return false;
}

} // namespace

const char*
critpathErrorKindName(CritpathErrorKind kind)
{
    switch (kind) {
      case CritpathErrorKind::None:
        return "none";
      case CritpathErrorKind::MissingSchema:
        return "missing-schema";
      case CritpathErrorKind::BadSchema:
        return "bad-schema";
      case CritpathErrorKind::DanglingEdge:
        return "dangling-edge";
      case CritpathErrorKind::Cycle:
        return "cycle";
      case CritpathErrorKind::Malformed:
        return "malformed";
    }
    return "unknown";
}

SpanGraph
buildFromLiveTrace()
{
    SpanGraph graph;
    // Flows first: a pool task records its spawn edge only after its
    // span is in the trace, so every edge of this flow snapshot finds
    // its task in the span snapshot taken after it.
    const auto flows = Trace::flowSnapshot();
    const auto events = Trace::snapshot();
    graph.spans.reserve(events.size());
    for (const TraceEvent& event : events) {
        GraphSpan span;
        span.id = event.id;
        span.name = event.name ? event.name : "";
        span.category = event.category ? event.category : "";
        span.lane = event.lane;
        span.startUs = event.startUs;
        span.durUs = event.durUs;
        graph.spans.push_back(std::move(span));
    }
    for (const FlowEdge& flow : flows)
        graph.flows.push_back(
            GraphFlow{flow.fromSpan, flow.toSpan, flow.tsUs});
    graph.droppedEvents = Trace::droppedEvents();
    return graph;
}

bool
buildFromTraceJson(const JsonValue& doc, SpanGraph* out,
                   CritpathError* error)
{
    *out = SpanGraph();
    if (!doc.isObject())
        return fail(error, CritpathErrorKind::Malformed,
                    "trace document is not a JSON object");
    const JsonValue* version = doc.find("schema_version");
    if (!version)
        return fail(error, CritpathErrorKind::MissingSchema,
                    "trace has no schema_version field");
    if (!version->isNumber() || version->asInt() < 1 ||
        version->asInt() > kObsSchemaVersion)
        return fail(
            error, CritpathErrorKind::BadSchema,
            "unsupported trace schema_version " +
                (version->isNumber()
                     ? std::to_string(version->asInt())
                     : std::string("(non-numeric)")) +
                " (this build reads 1.." +
                std::to_string(kObsSchemaVersion) + ")");
    const JsonValue* events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return fail(error, CritpathErrorKind::Malformed,
                    "trace has no traceEvents array");

    uint64_t max_id = 0;
    for (const JsonValue& entry : events->array) {
        const JsonValue* ph = entry.find("ph");
        if (!ph || !ph->isString() || ph->string != "X")
            continue; // metadata / counters / flow arrows
        GraphSpan span;
        const JsonValue* name = entry.find("name");
        span.name = name && name->isString() ? name->string : "";
        const JsonValue* cat = entry.find("cat");
        if (cat && cat->isString() && cat->string != "betty" &&
            cat->string != "betty.flow")
            span.category = cat->string;
        const JsonValue* ts = entry.find("ts");
        const JsonValue* dur = entry.find("dur");
        if (!ts || !ts->isNumber() || !dur || !dur->isNumber())
            return fail(error, CritpathErrorKind::Malformed,
                        "span event '" + span.name +
                            "' is missing numeric ts/dur");
        span.startUs = ts->asInt();
        span.durUs = dur->asInt();
        const JsonValue* tid = entry.find("tid");
        span.lane = tid && tid->isNumber()
                        ? int32_t(tid->asInt())
                        : 0;
        const JsonValue* args = entry.find("args");
        const JsonValue* span_id =
            args ? args->find("span_id") : nullptr;
        if (span_id && span_id->isNumber())
            span.id = uint64_t(span_id->asInt());
        max_id = std::max(max_id, span.id);
        out->spans.push_back(std::move(span));
    }
    // Traces from schema versions before span ids carry none: give
    // those spans fresh ids so the segment graph still builds (they
    // just cannot be flow-edge endpoints).
    for (GraphSpan& span : out->spans)
        if (span.id == 0)
            span.id = ++max_id;

    const JsonValue* flows = doc.find("flows");
    if (flows) {
        if (!flows->isArray())
            return fail(error, CritpathErrorKind::Malformed,
                        "flows is not an array");
        for (const JsonValue& entry : flows->array) {
            const JsonValue* from = entry.find("from");
            const JsonValue* to = entry.find("to");
            if (!from || !from->isNumber() || !to ||
                !to->isNumber())
                return fail(error, CritpathErrorKind::Malformed,
                            "flow edge is missing numeric from/to");
            GraphFlow flow;
            flow.from = uint64_t(from->asInt());
            flow.to = uint64_t(to->asInt());
            const JsonValue* ts = entry.find("ts");
            flow.tsUs = ts && ts->isNumber() ? ts->asInt() : 0;
            out->flows.push_back(flow);
        }
    }

    const JsonValue* metadata = doc.find("metadata");
    const JsonValue* dropped =
        metadata ? metadata->find("droppedEvents") : nullptr;
    if (dropped && dropped->isNumber())
        out->droppedEvents = dropped->asInt();
    return true;
}

bool
validateSpanGraph(SpanGraph* graph, CritpathError* error)
{
    std::unordered_set<uint64_t> ids;
    ids.reserve(graph->spans.size());
    for (const GraphSpan& span : graph->spans) {
        if (span.durUs < 0)
            return fail(error, CritpathErrorKind::Malformed,
                        "span '" + span.name +
                            "' has negative duration");
        if (!ids.insert(span.id).second)
            return fail(error, CritpathErrorKind::Malformed,
                        "duplicate span id " +
                            std::to_string(span.id));
    }
    std::vector<GraphFlow> kept;
    kept.reserve(graph->flows.size());
    for (const GraphFlow& flow : graph->flows) {
        if (flow.from == flow.to)
            return fail(error, CritpathErrorKind::Malformed,
                        "flow edge from span " +
                            std::to_string(flow.from) +
                            " to itself");
        const bool resolved =
            ids.count(flow.from) != 0 && ids.count(flow.to) != 0;
        if (resolved) {
            kept.push_back(flow);
            continue;
        }
        if (graph->droppedEvents == 0)
            return fail(
                error, CritpathErrorKind::DanglingEdge,
                "flow edge references missing span id " +
                    std::to_string(ids.count(flow.from) == 0
                                       ? flow.from
                                       : flow.to) +
                    " in a trace that reports no dropped events");
        ++graph->prunedFlows; // ring overflow: expected, prune
    }
    graph->flows = std::move(kept);
    return true;
}

std::string
spanCategory(const GraphSpan& span)
{
    if (!span.category.empty())
        return span.category;
    // Name-prefix fallback for traces recorded before category tags.
    const std::string& n = span.name;
    auto starts = [&n](const char* prefix) {
        return n.rfind(prefix, 0) == 0;
    };
    if (starts("partition/") || starts("plan/") || n == "epoch/plan")
        return "partition";
    if (starts("sample/") || n == "epoch/sample")
        return "sample";
    if (n == "train/transfer" || n == "train/upload")
        return "transfer";
    if (n == "train/gather")
        return "gather";
    if (n == "train/forward" || n == "train/backward" ||
        n == "train/step" || n == "train/loss")
        return "compute";
    if (n == "train/pipeline_wait")
        return "stall";
    return "other";
}

namespace {

/** Start/end sweep event for one span on one lane. */
struct SweepEvent
{
    int64_t tsUs = 0;
    /** false = close, true = open; closes sort before opens at the
     * same timestamp so adjacent spans do not overlap. */
    bool open = false;
    int32_t spanIndex = -1;
};

} // namespace

bool
buildSegmentGraph(const SpanGraph& graph, SegmentGraph* out,
                  CritpathError* error)
{
    *out = SegmentGraph();

    std::unordered_map<uint64_t, int32_t> by_id;
    by_id.reserve(graph.spans.size());
    for (size_t i = 0; i < graph.spans.size(); ++i)
        by_id.emplace(graph.spans[i].id, int32_t(i));

    // Per-lane sweep events and cut points. Flow edges cut both the
    // producing and consuming lanes at their (clamped) binding time,
    // so the edge can attach to a segment boundary on each side.
    std::unordered_map<int32_t, std::vector<SweepEvent>> lane_events;
    std::unordered_map<int32_t, std::vector<int64_t>> lane_cuts;
    for (size_t i = 0; i < graph.spans.size(); ++i) {
        const GraphSpan& span = graph.spans[i];
        lane_events[span.lane].push_back(
            SweepEvent{span.startUs, true, int32_t(i)});
        lane_events[span.lane].push_back(
            SweepEvent{span.endUs(), false, int32_t(i)});
    }
    auto clampToSpan = [](const GraphSpan& span, int64_t ts) {
        return std::clamp(ts, span.startUs, span.endUs());
    };
    for (const GraphFlow& flow : graph.flows) {
        const GraphSpan& from = graph.spans[by_id.at(flow.from)];
        const GraphSpan& to = graph.spans[by_id.at(flow.to)];
        lane_cuts[from.lane].push_back(clampToSpan(from, flow.tsUs));
        lane_cuts[to.lane].push_back(clampToSpan(to, flow.tsUs));
    }

    // Sweep each lane: elementary intervals between boundaries, each
    // owned by the innermost (latest-pushed) active span.
    std::vector<int32_t> lanes;
    lanes.reserve(lane_events.size());
    for (const auto& [lane, events] : lane_events)
        lanes.push_back(lane);
    std::sort(lanes.begin(), lanes.end());

    for (int32_t lane : lanes) {
        auto& events = lane_events[lane];
        std::sort(events.begin(), events.end(),
                  [&](const SweepEvent& a, const SweepEvent& b) {
                      if (a.tsUs != b.tsUs)
                          return a.tsUs < b.tsUs;
                      if (a.open != b.open)
                          return !a.open; // closes first
                      if (a.open)
                          // Opens: longer span first (parent before
                          // child when starts coincide).
                          return graph.spans[a.spanIndex].endUs() >
                                 graph.spans[b.spanIndex].endUs();
                      // Closes: shorter span (child) first.
                      return graph.spans[a.spanIndex].startUs >
                             graph.spans[b.spanIndex].startUs;
                  });
        auto& cuts = lane_cuts[lane];
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()),
                   cuts.end());

        std::vector<int32_t> active;
        size_t cut_pos = 0;
        int64_t prev_ts = 0;
        bool have_prev = false;
        auto emitUpTo = [&](int64_t ts) {
            if (!have_prev || active.empty() || ts <= prev_ts) {
                prev_ts = ts;
                have_prev = true;
                return;
            }
            // Split the elementary interval at any cut points inside
            // it so flow edges land exactly on segment boundaries.
            int64_t lo = prev_ts;
            while (cut_pos < cuts.size() && cuts[cut_pos] <= lo)
                ++cut_pos;
            size_t cp = cut_pos;
            while (cp < cuts.size() && cuts[cp] < ts) {
                out->segments.push_back(
                    Segment{active.back(), lane, lo, cuts[cp]});
                lo = cuts[cp];
                ++cp;
            }
            out->segments.push_back(
                Segment{active.back(), lane, lo, ts});
            prev_ts = ts;
        };
        for (const SweepEvent& event : events) {
            emitUpTo(event.tsUs);
            if (event.open) {
                active.push_back(event.spanIndex);
            } else {
                // Remove by identity (search from the back): robust
                // to imperfect nesting in hand-made traces.
                for (size_t j = active.size(); j > 0; --j) {
                    if (active[j - 1] == event.spanIndex) {
                        active.erase(active.begin() +
                                     int64_t(j - 1));
                        break;
                    }
                }
            }
        }
    }

    // segments are already sorted by (lane, startUs) because lanes
    // were processed in order and each lane's sweep is chronological.
    out->preds.assign(out->segments.size(), {});

    // Lane-order edges: a thread does one thing at a time.
    std::unordered_map<int32_t, std::vector<int32_t>> lane_segments;
    for (size_t i = 0; i < out->segments.size(); ++i)
        lane_segments[out->segments[i].lane].push_back(int32_t(i));
    for (const auto& [lane, indices] : lane_segments)
        for (size_t i = 1; i < indices.size(); ++i)
            out->preds[indices[i]].push_back(indices[i - 1]);

    // Flow edges: source = last segment on the producing lane ending
    // at or before the (clamped) bind time; target = first segment on
    // the consuming lane starting at or after it.
    auto findSource = [&](int32_t lane, int64_t ts) -> int32_t {
        const auto it = lane_segments.find(lane);
        if (it == lane_segments.end())
            return -1;
        int32_t best = -1;
        for (int32_t index : it->second) {
            if (out->segments[index].endUs <= ts)
                best = index;
            else
                break;
        }
        return best;
    };
    auto findTarget = [&](int32_t lane, int64_t ts) -> int32_t {
        const auto it = lane_segments.find(lane);
        if (it == lane_segments.end())
            return -1;
        for (int32_t index : it->second)
            if (out->segments[index].startUs >= ts)
                return index;
        return it->second.empty() ? -1 : it->second.back();
    };
    for (const GraphFlow& flow : graph.flows) {
        const GraphSpan& from = graph.spans[by_id.at(flow.from)];
        const GraphSpan& to = graph.spans[by_id.at(flow.to)];
        const int32_t source =
            findSource(from.lane, clampToSpan(from, flow.tsUs));
        const int32_t target =
            findTarget(to.lane, clampToSpan(to, flow.tsUs));
        if (source < 0 || target < 0 || source == target)
            continue;
        out->preds[target].push_back(source);
    }

    // Kahn's algorithm: topological order + cycle detection.
    std::vector<int32_t> indegree(out->segments.size(), 0);
    std::vector<std::vector<int32_t>> succs(out->segments.size());
    for (size_t i = 0; i < out->preds.size(); ++i) {
        for (int32_t pred : out->preds[i]) {
            succs[pred].push_back(int32_t(i));
            ++indegree[i];
        }
    }
    std::vector<int32_t> ready;
    for (size_t i = 0; i < indegree.size(); ++i)
        if (indegree[i] == 0)
            ready.push_back(int32_t(i));
    out->topoOrder.reserve(out->segments.size());
    while (!ready.empty()) {
        const int32_t index = ready.back();
        ready.pop_back();
        out->topoOrder.push_back(index);
        for (int32_t succ : succs[index])
            if (--indegree[succ] == 0)
                ready.push_back(succ);
    }
    if (out->topoOrder.size() != out->segments.size()) {
        for (size_t i = 0; i < indegree.size(); ++i) {
            if (indegree[i] > 0) {
                const GraphSpan& span =
                    graph.spans[out->segments[i].spanIndex];
                return fail(error, CritpathErrorKind::Cycle,
                            "dependency cycle involving span '" +
                                span.name + "' (id " +
                                std::to_string(span.id) + ")");
            }
        }
    }
    return true;
}

} // namespace betty::obs::critpath
