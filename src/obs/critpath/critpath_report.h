/**
 * @file
 * Schema-versioned CRITPATH_report.json writer.
 *
 * Layout:
 *
 *   {
 *     "critpath_schema_version": 1,
 *     "schema_version": <obs schema>, "meta": {...},
 *     "wall_us": W, "critical_path_us": C, "coverage": C/W,
 *     "longest_step_us": L,
 *     "span_count": N, "flow_count": M,
 *     "dropped_events": D, "pruned_flows": P,
 *     "categories": {"compute": {"us": ..., "share": ...}, ...},
 *     "critical_path": [{"name", "category", "lane", "start_us",
 *                        "dur_us", "stall_before_us"}, ...],
 *     "what_if": [{"category", "scale", "baseline_model_us",
 *                  "projected_us", "projected_speedup_pct"}, ...]
 *   }
 *
 * The "critical_path" array is capped (longest steps win) so the
 * report stays test-sized; the attribution table is always complete.
 */
#ifndef BETTY_OBS_CRITPATH_CRITPATH_REPORT_H
#define BETTY_OBS_CRITPATH_CRITPATH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/critpath/critical_path.h"
#include "obs/critpath/span_graph.h"
#include "obs/critpath/whatif.h"

namespace betty::obs::critpath {

/**
 * Version of the CRITPATH_report.json layout. Bump when a field is
 * renamed, removed, or changes meaning; additions are compatible.
 */
constexpr int64_t kCritpathSchemaVersion = 1;

/** Max steps serialized into the "critical_path" array. */
constexpr size_t kMaxReportSteps = 256;

/** The report as a JSON document. */
std::string critpathReportJson(
    const SpanGraph& graph, const CriticalPathResult& result,
    const std::vector<WhatIfResult>& what_ifs);

} // namespace betty::obs::critpath

#endif // BETTY_OBS_CRITPATH_CRITPATH_REPORT_H
