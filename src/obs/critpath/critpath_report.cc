#include "obs/critpath/critpath_report.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/run_meta.h"

namespace betty::obs::critpath {

std::string
critpathReportJson(const SpanGraph& graph,
                   const CriticalPathResult& result,
                   const std::vector<WhatIfResult>& what_ifs)
{
    JsonWriter out;
    out.beginObject();
    out.key("critpath_schema_version").integer(kCritpathSchemaVersion);
    out.key("schema_version").integer(kObsSchemaVersion);
    out.key("meta");
    writeRunMeta(out);
    out.key("wall_us").integer(result.wallUs);
    out.key("critical_path_us").integer(result.cpUs);
    out.key("coverage").number(result.coverage);
    out.key("longest_step_us").integer(result.longestStepUs);
    out.key("span_count").integer(int64_t(graph.spans.size()));
    out.key("flow_count").integer(int64_t(graph.flows.size()));
    out.key("dropped_events").integer(graph.droppedEvents);
    out.key("pruned_flows").integer(graph.prunedFlows);

    out.key("categories").beginObject();
    for (const CategoryShare& share : result.categories) {
        out.key(share.category).beginObject();
        out.key("us").integer(share.us);
        out.key("share").number(share.share);
        out.endObject();
    }
    out.endObject();

    // Cap the serialized path at the longest steps, re-sorted back
    // into chronological order.
    std::vector<size_t> order(result.steps.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    if (order.size() > kMaxReportSteps) {
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) {
                      const auto& sa = result.steps[a];
                      const auto& sb = result.steps[b];
                      return sa.endUs - sa.startUs >
                             sb.endUs - sb.startUs;
                  });
        order.resize(kMaxReportSteps);
        std::sort(order.begin(), order.end());
    }
    out.key("critical_path").beginArray();
    for (const size_t index : order) {
        const PathStep& step = result.steps[index];
        const GraphSpan& span = graph.spans[size_t(step.spanIndex)];
        out.beginObject();
        out.key("name").string(span.name);
        out.key("category").string(spanCategory(span));
        out.key("lane").integer(span.lane);
        out.key("start_us").integer(step.startUs);
        out.key("dur_us").integer(step.endUs - step.startUs);
        out.key("stall_before_us").integer(step.stallBeforeUs);
        out.endObject();
    }
    out.endArray();

    out.key("what_if").beginArray();
    for (const WhatIfResult& what_if : what_ifs) {
        out.beginObject();
        out.key("category").string(what_if.spec.category);
        out.key("scale").number(what_if.spec.scale);
        out.key("baseline_model_us").number(what_if.baselineModelUs);
        out.key("projected_us").number(what_if.projectedUs);
        out.key("projected_speedup_pct")
            .number(what_if.projectedSpeedupPct);
        out.endObject();
    }
    out.endArray();
    out.endObject();
    return out.take();
}

} // namespace betty::obs::critpath
