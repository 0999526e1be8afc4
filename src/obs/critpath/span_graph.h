/**
 * @file
 * Span dependency DAG construction and validation.
 *
 * Input is a set of completed spans (id, category, lane, interval)
 * plus explicit dependency (flow) edges between span ids — either the
 * live obs::Trace buffers or a Chrome trace JSON file written by
 * Trace::writeChromeTrace(). Output is a SegmentGraph: each lane's
 * timeline is cut into leaf "self intervals" (the innermost active
 * span owns the time; cuts are also made where flow edges bind), and
 * edges connect segments
 *
 *   - along each lane, in time order (a thread does one thing at a
 *     time), and
 *   - across lanes where a flow edge binds (task spawn, pipeline
 *     handoff, join, replan ordering).
 *
 * The result is the DAG obs/critpath/critical_path.h walks for
 * longest-path attribution and obs/critpath/whatif.h re-schedules
 * for virtual-speedup projection.
 *
 * Validation is typed (CritpathError), because betty_report critpath
 * must distinguish a malformed artifact (exit 2) from a genuine
 * regression (exit 1): missing/unsupported schema version, dangling
 * flow edges in a lossless trace, and dependency cycles all have
 * their own error kinds. In a trace that dropped events (ring
 * overflow), dangling edges are expected — they are pruned and
 * counted instead of failing.
 */
#ifndef BETTY_OBS_CRITPATH_SPAN_GRAPH_H
#define BETTY_OBS_CRITPATH_SPAN_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

namespace betty::obs {
class JsonValue;
} // namespace betty::obs

namespace betty::obs::critpath {

/** One completed span (value type mirror of obs::TraceEvent). */
struct GraphSpan
{
    uint64_t id = 0;
    std::string name;
    /** Attribution category; "" = uncategorized ("other"). */
    std::string category;
    int32_t lane = 0;
    int64_t startUs = 0;
    int64_t durUs = 0;

    int64_t
    endUs() const
    {
        return startUs + durUs;
    }
};

/** One dependency edge between span ids (obs::FlowEdge mirror). */
struct GraphFlow
{
    uint64_t from = 0;
    uint64_t to = 0;
    int64_t tsUs = 0;
};

/** The raw span/edge sets a critpath analysis starts from. */
struct SpanGraph
{
    std::vector<GraphSpan> spans;
    std::vector<GraphFlow> flows;

    /** Events the producing trace lost to retention caps; when > 0,
     * dangling flow edges are pruned instead of rejected. */
    int64_t droppedEvents = 0;

    /** Flow edges pruned by validate() (dropped-endpoint edges). */
    int64_t prunedFlows = 0;
};

/** What went wrong with a critpath artifact (exit-2 taxonomy). */
enum class CritpathErrorKind
{
    None = 0,
    /** No schema_version field in the trace document. */
    MissingSchema,
    /** schema_version present but not one this build reads. */
    BadSchema,
    /** A flow edge references a span id the trace does not contain
     * (and the trace claims to be lossless). */
    DanglingEdge,
    /** The dependency edges form a cycle. */
    Cycle,
    /** Anything else structurally wrong (not JSON, missing arrays,
     * duplicate span ids, negative durations, ...). */
    Malformed,
};

struct CritpathError
{
    CritpathErrorKind kind = CritpathErrorKind::None;
    std::string message;

    bool
    ok() const
    {
        return kind == CritpathErrorKind::None;
    }
};

/** Short stable label for @p kind ("cycle", "dangling-edge", ...). */
const char* critpathErrorKindName(CritpathErrorKind kind);

/**
 * Build a SpanGraph from the live obs::Trace buffers (flowSnapshot +
 * snapshot + droppedEvents). Call once the calling thread's own spans
 * have closed; pool tasks still running may be left out, but never
 * leave a dangling spawn edge behind.
 */
SpanGraph buildFromLiveTrace();

/**
 * Build a SpanGraph from a parsed Chrome trace document (the format
 * Trace::chromeTraceJson() writes: ph="X" events with args.span_id,
 * a top-level "flows" array, metadata.droppedEvents). Returns false
 * with a typed error on schema/shape problems.
 */
bool buildFromTraceJson(const JsonValue& doc, SpanGraph* out,
                        CritpathError* error);

/**
 * Structural validation: duplicate span ids and negative durations
 * are Malformed; a flow edge whose endpoint is missing is
 * DanglingEdge when droppedEvents == 0, silently pruned (and counted
 * in prunedFlows) otherwise. Self-edges are always Malformed.
 */
bool validateSpanGraph(SpanGraph* graph, CritpathError* error);

/** One leaf self-interval of a span on its lane. */
struct Segment
{
    /** Index into SpanGraph::spans of the owning span. */
    int32_t spanIndex = -1;
    int32_t lane = 0;
    int64_t startUs = 0;
    int64_t endUs = 0;

    int64_t
    durUs() const
    {
        return endUs - startUs;
    }
};

/** The per-segment dependency DAG (see the file comment). */
struct SegmentGraph
{
    /** Sorted by (lane, startUs); zero-length segments are dropped. */
    std::vector<Segment> segments;

    /** Incoming edges, one vector per segment: the previous segment
     * on the same lane plus any bound flow-edge sources. */
    std::vector<std::vector<int32_t>> preds;

    /** A valid topological order (indices into segments). */
    std::vector<int32_t> topoOrder;
};

/**
 * Cut lanes into segments and connect them. Fails with Cycle when
 * the flow edges are time-inconsistent enough to create one (only
 * possible in hand-made traces; live recordings are forward-in-time
 * by construction). @p graph must have passed validateSpanGraph().
 */
bool buildSegmentGraph(const SpanGraph& graph, SegmentGraph* out,
                       CritpathError* error);

/**
 * The attribution category of @p span: its explicit tag if present,
 * otherwise a name-prefix fallback for traces recorded before
 * categories existed ("partition/..." -> "partition", ...), else
 * "other".
 */
std::string spanCategory(const GraphSpan& span);

} // namespace betty::obs::critpath

#endif // BETTY_OBS_CRITPATH_SPAN_GRAPH_H
