/**
 * @file
 * Run-report inspector and perf-regression gate.
 *
 * Usage:
 *   betty_report print <report.json>
 *   betty_report check <report.json>
 *   betty_report diff <baseline.json> <candidate.json>
 *       [--max-peak-regress F]      (default 0.10: +10% peak bytes)
 *       [--max-time-regress F]      (default 0.25: +25% compute time)
 *       [--max-edge-cut-regress F]  (default 0.10: +10% edge cut)
 *       [--max-accuracy-drop F]     (default 0.05: -5 points test acc)
 *       [--inject-peak-scale F]     (test hook: scale candidate peaks)
 *   betty_report critpath <trace.json>
 *       [--what-if CATEGORY=SCALE]... (virtual speedup projection)
 *       [--min-coverage F]          (gate: cp must cover >= F of wall)
 *       [--out FILE]                (write CRITPATH_report.json)
 *
 * `critpath` reconstructs the span dependency DAG from a Chrome
 * trace written by Trace::writeChromeTrace(), walks the critical
 * path, prints per-category attribution (including pipeline-stall
 * time), and optionally projects COZ-style what-if speedups
 * ("--what-if transfer=0.5" = transfers run 2x faster).
 *
 * `print` renders the report's epochs and per-category Table 3
 * breakdown as aligned tables. `check` validates the report's
 * internal consistency (schema version, category sums vs. totals,
 * residual arithmetic, and — when a recovery section is present —
 * that fault-free runs performed zero recovery actions) — the
 * acceptance contract of the memory profiler and the fault-tolerant
 * runtime. `diff` compares two reports and exits non-zero when the
 * candidate regresses past any threshold, refusing to compare
 * artifacts with mismatched schema versions. Thresholds are ratios
 * ("0.25" = +25%) parsed whole-string: "25%" is a usage error, not 25.
 *
 * Malformed artifacts are typed errors, never crashes or silent
 * passes: a missing summary section, a mismatched schema version, or
 * a non-finite number each name the offending field and exit 2.
 *
 * Exit codes: 0 ok, 1 regression/violation, 2 usage/parse/artifact
 * error.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath/critical_path.h"
#include "obs/critpath/critpath_report.h"
#include "obs/critpath/span_graph.h"
#include "obs/critpath/whatif.h"
#include "obs/json.h"
#include "obs/memprof.h"
#include "obs/run_meta.h"
#include "util/env_config.h"
#include "util/table.h"

namespace {

using betty::TablePrinter;
using betty::obs::JsonValue;
using betty::obs::kMemCategoryCount;
using betty::obs::kObsSchemaVersion;
using betty::obs::MemCategory;
using betty::obs::memCategoryName;
using betty::obs::parseJson;

constexpr double kMiB = 1024.0 * 1024.0;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: betty_report print <report.json>\n"
        "       betty_report check <report.json>\n"
        "       betty_report diff <baseline.json> <candidate.json>\n"
        "           [--max-peak-regress F] [--max-time-regress F]\n"
        "           [--max-edge-cut-regress F] "
        "[--max-accuracy-drop F]\n"
        "           [--inject-peak-scale F]\n"
        "       betty_report critpath <trace.json>\n"
        "           [--what-if CATEGORY=SCALE]... "
        "[--min-coverage F] [--out FILE]\n");
    return 2;
}

bool
loadReport(const std::string& path, JsonValue& doc)
{
    std::ifstream file(path);
    if (!file) {
        std::fprintf(stderr, "betty_report: cannot read '%s'\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string error;
    if (!parseJson(buffer.str(), doc, &error)) {
        std::fprintf(stderr,
                     "betty_report: '%s' is not valid JSON: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    if (!doc.isObject()) {
        std::fprintf(stderr,
                     "betty_report: '%s' is not a JSON object\n",
                     path.c_str());
        return false;
    }
    return true;
}

int64_t
schemaVersion(const JsonValue& doc)
{
    const JsonValue* version = doc.find("schema_version");
    return version && version->isNumber() ? version->asInt() : 0;
}

/** summary.<key> as a double, or @p fallback when absent. */
double
summaryNumber(const JsonValue& doc, const char* key, double fallback)
{
    const JsonValue* summary = doc.find("summary");
    const JsonValue* value = summary ? summary->find(key) : nullptr;
    return value && value->isNumber() ? value->number : fallback;
}

/** Malformed-artifact count (drives the exit-2 path of diff). */
int artifact_errors = 0;

void
artifactError(const std::string& message)
{
    std::fprintf(stderr, "betty_report: artifact error: %s\n",
                 message.c_str());
    ++artifact_errors;
}

/**
 * summary.<key> as a finite double for the diff gate. Unlike
 * summaryNumber (whose absent-means-fallback suits printing), a gate
 * comparing a missing or non-finite number would pass silently — so
 * each such case is a typed artifact error instead.
 */
double
requiredSummaryNumber(const JsonValue& doc, const char* doc_name,
                      const char* key)
{
    const JsonValue* summary = doc.find("summary");
    if (!summary || !summary->isObject()) {
        artifactError(std::string(doc_name) +
                      ": summary section is missing");
        return 0.0;
    }
    const JsonValue* value = summary->find(key);
    if (!value || !value->isNumber()) {
        artifactError(std::string(doc_name) + ": summary." + key +
                      " is missing or not a number");
        return 0.0;
    }
    if (!std::isfinite(value->number)) {
        artifactError(std::string(doc_name) + ": summary." + key +
                      " is not finite");
        return 0.0;
    }
    return value->number;
}

// ---------------------------------------------------------------- print

int
printReport(const std::string& path, const JsonValue& doc)
{
    const JsonValue* dataset = doc.find("dataset");
    const JsonValue* dataset_name =
        dataset ? dataset->find("name") : nullptr;
    std::printf("report: %s\n", path.c_str());
    if (const JsonValue* meta = doc.find("meta")) {
        if (const JsonValue* stamp = meta->find("timestamp"))
            std::printf("recorded: %s\n", stamp->string.c_str());
    }
    if (dataset_name)
        std::printf("dataset: %s\n", dataset_name->string.c_str());

    TablePrinter epochs("epochs");
    epochs.setHeader({"epoch", "K", "loss", "acc", "test", "peak MiB",
                      "seconds", "oom"});
    if (const JsonValue* rows = doc.find("epochs")) {
        for (const JsonValue& row : rows->array) {
            auto field = [&](const char* key) -> double {
                const JsonValue* value = row.find(key);
                return value ? value->number : 0.0;
            };
            const JsonValue* oom = row.find("oom");
            epochs.addRow(
                {TablePrinter::count((long long)field("epoch")),
                 TablePrinter::count((long long)field("k")),
                 TablePrinter::num(field("loss"), 4),
                 TablePrinter::num(field("accuracy"), 3),
                 TablePrinter::num(field("test_accuracy"), 3),
                 TablePrinter::num(field("peak_bytes") / kMiB, 1),
                 TablePrinter::num(field("compute_seconds"), 2),
                 oom && oom->boolean ? "yes" : "no"});
        }
    }
    epochs.print();

    // Table 3 predicted-vs-actual, worst micro-batch per category.
    const JsonValue* profile = doc.find("memory_profile");
    const JsonValue* micro_batches =
        profile ? profile->find("micro_batches") : nullptr;
    TablePrinter breakdown(
        "memory breakdown (worst micro-batch per category)");
    breakdown.setHeader({"category", "predicted MiB", "actual MiB",
                         "residual %"});
    for (size_t c = 0; c < kMemCategoryCount; ++c) {
        const char* name = memCategoryName(MemCategory(c));
        double predicted = 0.0, actual = 0.0;
        if (micro_batches) {
            for (const JsonValue& batch : micro_batches->array) {
                const JsonValue* categories =
                    batch.find("categories");
                const JsonValue* entry =
                    categories ? categories->find(name) : nullptr;
                if (!entry)
                    continue;
                const JsonValue* a = entry->find("actual_bytes");
                if (a && a->number > actual) {
                    actual = a->number;
                    const JsonValue* p =
                        entry->find("predicted_bytes");
                    predicted = p ? p->number : 0.0;
                }
            }
        }
        const double residual_pct =
            actual > 0.0 ? (predicted - actual) / actual * 100.0
                         : 0.0;
        breakdown.addRow({name, TablePrinter::num(predicted / kMiB, 3),
                          TablePrinter::num(actual / kMiB, 3),
                          TablePrinter::num(residual_pct, 1)});
    }
    breakdown.print();

    TablePrinter summary("summary");
    summary.setHeader({"metric", "value"});
    summary.addRow(
        {"peak MiB",
         TablePrinter::num(summaryNumber(doc, "peak_bytes", 0) / kMiB,
                           1)});
    summary.addRow(
        {"compute seconds",
         TablePrinter::num(
             summaryNumber(doc, "total_compute_seconds", 0), 2)});
    summary.addRow(
        {"final test accuracy",
         TablePrinter::num(
             summaryNumber(doc, "final_test_accuracy", 0), 3)});
    summary.addRow(
        {"edge cut", TablePrinter::count((long long)summaryNumber(
                         doc, "edge_cut", 0))});
    summary.addRow(
        {"transfer MiB",
         TablePrinter::num(
             summaryNumber(doc, "transfer_bytes", 0) / kMiB, 1)});
    summary.addRow(
        {"OOM events", TablePrinter::count((long long)summaryNumber(
                           doc, "oom_events", 0))});
    summary.print();

    // Feature-cache section (always present from schema v3 on).
    if (const JsonValue* cache = doc.find("cache")) {
        auto field = [&](const char* key) -> long long {
            const JsonValue* value = cache->find(key);
            return value && value->isNumber()
                       ? (long long)value->asInt()
                       : 0;
        };
        const JsonValue* enabled = cache->find("enabled");
        const JsonValue* policy = cache->find("policy");
        TablePrinter table("cache");
        table.setHeader({"metric", "value"});
        table.addRow({"enabled",
                      enabled && enabled->boolean ? "yes" : "no"});
        table.addRow({"policy",
                      policy ? policy->string.c_str() : "?"});
        table.addRow(
            {"capacity MiB",
             TablePrinter::num(double(field("capacity_bytes")) / kMiB,
                               1)});
        table.addRow({"hits", TablePrinter::count(field("hits"))});
        table.addRow({"misses", TablePrinter::count(field("misses"))});
        table.addRow(
            {"bytes saved MiB",
             TablePrinter::num(double(field("bytes_saved")) / kMiB,
                               1)});
        table.addRow(
            {"evictions", TablePrinter::count(field("evictions"))});
        table.addRow(
            {"releases", TablePrinter::count(field("releases"))});
        table.print();
    }

    // Optional recovery section (fault-tolerant runtime runs).
    if (const JsonValue* recovery = doc.find("recovery")) {
        auto field = [&](const char* key) -> long long {
            const JsonValue* value = recovery->find(key);
            return value && value->isNumber()
                       ? (long long)value->asInt()
                       : 0;
        };
        const JsonValue* active = recovery->find("faults_active");
        TablePrinter table("recovery");
        table.setHeader({"metric", "value"});
        table.addRow({"faults active",
                      active && active->boolean ? "yes" : "no"});
        table.addRow({"faults injected",
                      TablePrinter::count(field("faults_injected"))});
        table.addRow(
            {"re-plans", TablePrinter::count(field("replans"))});
        table.addRow(
            {"OOM retries", TablePrinter::count(field("oom_retries"))});
        table.addRow({"transfer retries",
                      TablePrinter::count(field("transfer_retries"))});
        table.addRow({"batches skipped",
                      TablePrinter::count(field("batches_skipped"))});
        table.addRow({"corrupt rows repaired",
                      TablePrinter::count(
                          field("corrupt_rows_repaired"))});
        table.addRow({"retry failures",
                      TablePrinter::count(field("retry_failures"))});
        table.addRow(
            {"retry backoff ms",
             TablePrinter::num(double(field("retry_backoff_us")) / 1e3,
                               2)});
        table.addRow({"retry exhausted",
                      TablePrinter::count(field("retry_exhausted"))});
        table.print();
    }
    return 0;
}

// ---------------------------------------------------------------- check

int check_failures = 0;

void
violation(const std::string& message)
{
    std::fprintf(stderr, "betty_report: check FAIL: %s\n",
                 message.c_str());
    ++check_failures;
}

/**
 * Validate the acceptance contract: schema version matches this
 * build, every timeline sample's category bytes sum to its total,
 * and every micro-batch record carries all Table 3 categories with
 * consistent residual arithmetic.
 */
int
checkReport(const JsonValue& doc)
{
    if (schemaVersion(doc) != kObsSchemaVersion)
        violation("schema_version " +
                  std::to_string(schemaVersion(doc)) + " != expected " +
                  std::to_string(kObsSchemaVersion));

    const JsonValue* meta = doc.find("meta");
    if (!meta || !meta->find("timestamp"))
        violation("meta.timestamp is missing");

    const JsonValue* epochs = doc.find("epochs");
    if (!epochs || !epochs->isArray() || epochs->array.empty()) {
        violation("epochs is missing or empty");
    } else {
        for (const JsonValue& row : epochs->array) {
            const JsonValue* peak = row.find("peak_bytes");
            if (!peak || peak->asInt() <= 0) {
                violation("an epoch has non-positive peak_bytes");
                break;
            }
        }
    }

    const JsonValue* timeline = doc.find("timeline");
    if (!timeline || !timeline->isArray() ||
        timeline->array.empty()) {
        violation("timeline is missing or empty");
    } else {
        for (size_t i = 0; i < timeline->array.size(); ++i) {
            const JsonValue& sample = timeline->array[i];
            const JsonValue* total = sample.find("total_live_bytes");
            const JsonValue* categories = sample.find("categories");
            if (!total || !categories || !categories->isObject()) {
                violation("timeline[" + std::to_string(i) +
                          "] is malformed");
                continue;
            }
            int64_t sum = 0;
            for (const auto& [name, value] : categories->object)
                sum += value.asInt();
            if (sum != total->asInt())
                violation("timeline[" + std::to_string(i) +
                          "]: category sum " + std::to_string(sum) +
                          " != total_live_bytes " +
                          std::to_string(total->asInt()));
        }
    }

    const JsonValue* profile = doc.find("memory_profile");
    const JsonValue* micro_batches =
        profile ? profile->find("micro_batches") : nullptr;
    if (!micro_batches || !micro_batches->isArray() ||
        micro_batches->array.empty()) {
        violation("memory_profile.micro_batches is missing or empty");
    } else {
        for (size_t i = 0; i < micro_batches->array.size(); ++i) {
            const JsonValue& batch = micro_batches->array[i];
            const JsonValue* categories = batch.find("categories");
            if (!categories || !categories->isObject()) {
                violation("micro_batches[" + std::to_string(i) +
                          "] has no categories");
                continue;
            }
            for (size_t c = 0; c < kMemCategoryCount; ++c) {
                const char* name = memCategoryName(MemCategory(c));
                const JsonValue* entry = categories->find(name);
                if (!entry) {
                    violation("micro_batches[" + std::to_string(i) +
                              "] lacks category '" + name + "'");
                    continue;
                }
                const JsonValue* predicted =
                    entry->find("predicted_bytes");
                const JsonValue* actual = entry->find("actual_bytes");
                const JsonValue* residual =
                    entry->find("residual_bytes");
                if (!predicted || !actual || !residual) {
                    violation("micro_batches[" + std::to_string(i) +
                              "]." + name +
                              " lacks predicted/actual/residual");
                } else if (residual->asInt() !=
                           predicted->asInt() - actual->asInt()) {
                    violation("micro_batches[" + std::to_string(i) +
                              "]." + name +
                              ": residual != predicted - actual");
                }
            }
        }
    }

    const JsonValue* residuals = doc.find("estimator_residuals");
    const JsonValue* entries =
        residuals ? residuals->find("entries") : nullptr;
    if (!entries || !entries->isArray() || entries->array.empty())
        violation("estimator_residuals.entries is missing or empty");

    // A fault-free run must not have recovered from anything:
    // non-zero recovery counters without an installed fault plan mean
    // the runtime silently re-planned or retried — behaviour that is
    // supposed to be bit-identical to the plain trainer.
    if (const JsonValue* recovery = doc.find("recovery")) {
        const JsonValue* active = recovery->find("faults_active");
        if (!active || !active->isBool()) {
            violation("recovery.faults_active is missing");
        } else if (!active->boolean) {
            static const char* const counters[] = {
                "replans",          "oom_retries",
                "transfer_retries", "batches_skipped",
                "corrupt_rows_repaired", "faults_injected",
                "retry_failures",   "retry_backoff_us",
                "retry_exhausted"};
            for (const char* key : counters) {
                const JsonValue* value = recovery->find(key);
                if (value && value->asInt() != 0)
                    violation("recovery." + std::string(key) + " = " +
                              std::to_string(value->asInt()) +
                              " in a fault-free run");
            }
        }
        // The retry policy charges its backoff as simulated link
        // time, so the backoff can never exceed the run's total
        // transfer seconds; retry_exhausted counts a subset of the
        // retried transfers, so it is bounded by retry_failures.
        auto retryField = [&](const char* key) -> long long {
            const JsonValue* value = recovery->find(key);
            return value && value->isNumber()
                       ? (long long)value->asInt()
                       : 0;
        };
        const double transfer_s =
            summaryNumber(doc, "total_transfer_seconds", -1.0);
        if (transfer_s >= 0.0 &&
            double(retryField("retry_backoff_us")) / 1e6 >
                transfer_s + 1e-9)
            violation("recovery.retry_backoff_us exceeds the run's "
                      "total transfer seconds");
        if (retryField("retry_exhausted") >
            retryField("retry_failures"))
            violation("recovery.retry_exhausted exceeds "
                      "recovery.retry_failures");
    }

    // The cache section is mandatory from schema v3 on, and the cache
    // contract mirrors the recovery one: a run configured WITHOUT a
    // cache must not have moved, saved, or evicted anything — cache
    // counters in an uncached run mean the trainer consulted a cache
    // the user never asked for.
    const JsonValue* cache = doc.find("cache");
    if (!cache || !cache->isObject()) {
        violation("cache section is missing");
    } else {
        const JsonValue* enabled = cache->find("enabled");
        const JsonValue* policy = cache->find("policy");
        if (!enabled || !enabled->isBool())
            violation("cache.enabled is missing");
        if (!policy || !policy->isString())
            violation("cache.policy is missing");
        static const char* const counters[] = {
            "capacity_bytes", "reserved_bytes", "hits",
            "misses",         "bytes_saved",    "evictions",
            "releases",       "released_bytes"};
        for (const char* key : counters) {
            const JsonValue* value = cache->find(key);
            if (!value || !value->isNumber()) {
                violation("cache." + std::string(key) + " is missing");
                continue;
            }
            if (value->asInt() < 0)
                violation("cache." + std::string(key) +
                          " is negative");
            if (enabled && enabled->isBool() && !enabled->boolean &&
                value->asInt() != 0)
                violation("cache." + std::string(key) + " = " +
                          std::to_string(value->asInt()) +
                          " in a run with the cache disabled");
        }
        const JsonValue* capacity = cache->find("capacity_bytes");
        const JsonValue* reserved = cache->find("reserved_bytes");
        if (capacity && reserved &&
            reserved->asInt() > capacity->asInt())
            violation("cache.reserved_bytes exceeds "
                      "cache.capacity_bytes");
        const JsonValue* hits = cache->find("hits");
        const JsonValue* saved = cache->find("bytes_saved");
        if (hits && saved && hits->asInt() == 0 && saved->asInt() != 0)
            violation("cache.bytes_saved is non-zero with zero hits");
    }

    if (check_failures) {
        std::fprintf(stderr, "betty_report: %d check failure(s)\n",
                     check_failures);
        return 1;
    }
    std::printf("betty_report: check OK\n");
    return 0;
}

// ----------------------------------------------------------------- diff

struct DiffThresholds
{
    double maxPeakRegress = 0.10;
    double maxTimeRegress = 0.25;
    double maxEdgeCutRegress = 0.10;
    double maxAccuracyDrop = 0.05;
    /** Test hook: scale the candidate's peak figures before
     * comparing, to simulate a memory regression. */
    double injectPeakScale = 1.0;
};

int diff_regressions = 0;

void
regression(const char* metric, double baseline, double candidate,
           const std::string& detail)
{
    std::fprintf(stderr,
                 "REGRESSION: %s baseline %.6g candidate %.6g (%s)\n",
                 metric, baseline, candidate, detail.c_str());
    ++diff_regressions;
}

/** Flag a regression when candidate exceeds baseline by more than
 * @p max_ratio (relative); zero/absent baselines are skipped. */
void
compareIncrease(const char* metric, double baseline, double candidate,
                double max_ratio)
{
    if (baseline <= 0.0)
        return;
    const double ratio = (candidate - baseline) / baseline;
    if (ratio > max_ratio)
        regression(metric, baseline, candidate,
                   "+" + std::to_string(ratio * 100.0) +
                       "% > allowed +" +
                       std::to_string(max_ratio * 100.0) + "%");
}

int
diffReports(const JsonValue& baseline, const JsonValue& candidate,
            const DiffThresholds& thresholds)
{
    if (schemaVersion(baseline) != schemaVersion(candidate)) {
        std::fprintf(stderr,
                     "betty_report: refusing to diff schema_version "
                     "%lld against %lld\n",
                     (long long)schemaVersion(baseline),
                     (long long)schemaVersion(candidate));
        return 2;
    }

    const double base_peak =
        requiredSummaryNumber(baseline, "baseline", "peak_bytes");
    const double cand_peak =
        requiredSummaryNumber(candidate, "candidate", "peak_bytes") *
        thresholds.injectPeakScale;
    compareIncrease("peak_bytes", base_peak, cand_peak,
                    thresholds.maxPeakRegress);

    compareIncrease(
        "total_compute_seconds",
        requiredSummaryNumber(baseline, "baseline",
                              "total_compute_seconds"),
        requiredSummaryNumber(candidate, "candidate",
                              "total_compute_seconds"),
        thresholds.maxTimeRegress);

    compareIncrease(
        "edge_cut",
        requiredSummaryNumber(baseline, "baseline", "edge_cut"),
        requiredSummaryNumber(candidate, "candidate", "edge_cut"),
        thresholds.maxEdgeCutRegress);

    const double base_acc = requiredSummaryNumber(
        baseline, "baseline", "final_test_accuracy");
    const double cand_acc = requiredSummaryNumber(
        candidate, "candidate", "final_test_accuracy");
    if (base_acc - cand_acc > thresholds.maxAccuracyDrop)
        regression("final_test_accuracy", base_acc, cand_acc,
                   "dropped " + std::to_string(base_acc - cand_acc) +
                       " > allowed " +
                       std::to_string(thresholds.maxAccuracyDrop));

    const double base_oom =
        requiredSummaryNumber(baseline, "baseline", "oom_events");
    const double cand_oom =
        requiredSummaryNumber(candidate, "candidate", "oom_events");
    if (cand_oom > base_oom)
        regression("oom_events", base_oom, cand_oom,
                   "more OOM episodes than baseline");

    if (artifact_errors) {
        std::fprintf(stderr, "betty_report: %d artifact error(s)\n",
                     artifact_errors);
        return 2;
    }
    if (diff_regressions) {
        std::fprintf(stderr, "betty_report: %d regression(s)\n",
                     diff_regressions);
        return 1;
    }
    std::printf("betty_report: diff OK (no regressions)\n");
    return 0;
}

// ------------------------------------------------------------- critpath

namespace critpath = betty::obs::critpath;

/**
 * Report a typed artifact error from the critpath pipeline and
 * return the exit-2 convention of diff.
 */
int
critpathArtifactError(const critpath::CritpathError& error)
{
    std::fprintf(stderr,
                 "betty_report: artifact error: %s: %s\n",
                 critpath::critpathErrorKindName(error.kind),
                 error.message.c_str());
    return 2;
}

/** Parse "category=scale" (scale a whole-string finite double). */
bool
parseWhatIfSpec(const std::string& text, critpath::WhatIfSpec* spec)
{
    const size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    double scale = 0.0;
    if (!betty::envcfg::parseDouble(text.substr(eq + 1), &scale) ||
        scale < 0.0)
        return false;
    spec->category = text.substr(0, eq);
    spec->scale = scale;
    return true;
}

int
critpathCommand(const std::string& trace_path,
                const std::vector<critpath::WhatIfSpec>& specs,
                double min_coverage, const std::string& out_path)
{
    JsonValue doc;
    if (!loadReport(trace_path, doc))
        return 2;

    critpath::SpanGraph graph;
    critpath::CritpathError error;
    if (!critpath::buildFromTraceJson(doc, &graph, &error))
        return critpathArtifactError(error);
    if (!critpath::validateSpanGraph(&graph, &error))
        return critpathArtifactError(error);
    critpath::SegmentGraph segments;
    if (!critpath::buildSegmentGraph(graph, &segments, &error))
        return critpathArtifactError(error);

    const critpath::CriticalPathResult result =
        critpath::analyzeCriticalPath(graph, segments);

    std::vector<critpath::WhatIfResult> what_ifs;
    for (const critpath::WhatIfSpec& spec : specs)
        what_ifs.push_back(
            critpath::projectWhatIf(graph, segments, spec));

    TablePrinter summary("critical path");
    summary.setHeader({"metric", "value"});
    summary.addRow({"wall ms",
                    TablePrinter::num(double(result.wallUs) / 1000.0,
                                      3)});
    summary.addRow({"critical path ms",
                    TablePrinter::num(double(result.cpUs) / 1000.0,
                                      3)});
    summary.addRow({"coverage",
                    TablePrinter::num(result.coverage, 4)});
    summary.addRow({"path steps",
                    TablePrinter::count(
                        (long long)result.steps.size())});
    summary.addRow({"spans",
                    TablePrinter::count(
                        (long long)graph.spans.size())});
    summary.addRow({"flow edges",
                    TablePrinter::count(
                        (long long)graph.flows.size())});
    summary.addRow({"dropped events",
                    TablePrinter::count(
                        (long long)graph.droppedEvents)});
    summary.addRow({"pruned flows",
                    TablePrinter::count(
                        (long long)graph.prunedFlows)});
    summary.print();

    TablePrinter attribution("on-path attribution");
    attribution.setHeader({"category", "ms", "share %"});
    for (const critpath::CategoryShare& share : result.categories)
        attribution.addRow(
            {share.category,
             TablePrinter::num(double(share.us) / 1000.0, 3),
             TablePrinter::num(share.share * 100.0, 1)});
    attribution.print();

    if (!what_ifs.empty()) {
        TablePrinter projections("what-if projections");
        projections.setHeader({"category", "scale", "baseline ms",
                               "projected ms", "speedup %"});
        for (const critpath::WhatIfResult& what_if : what_ifs)
            projections.addRow(
                {what_if.spec.category,
                 TablePrinter::num(what_if.spec.scale, 2),
                 TablePrinter::num(what_if.baselineModelUs / 1000.0,
                                   3),
                 TablePrinter::num(what_if.projectedUs / 1000.0, 3),
                 TablePrinter::num(what_if.projectedSpeedupPct, 1)});
        projections.print();
    }

    if (!out_path.empty()) {
        if (!critpath::writeCritpathReport(out_path, graph, result,
                                           what_ifs)) {
            std::fprintf(stderr,
                         "betty_report: cannot write '%s'\n",
                         out_path.c_str());
            return 2;
        }
        std::printf("critpath report written to %s\n",
                    out_path.c_str());
    }

    // The consistency gate: a critical path that is longer than the
    // trace, misses its own longest step, or leaks attribution means
    // the DAG construction is wrong — fail like a regression, not an
    // artifact error, because the input parsed fine.
    std::vector<std::string> violations;
    if (!critpath::validateCriticalPath(result, &violations)) {
        for (const std::string& line : violations)
            std::fprintf(stderr, "betty_report: critpath FAIL: %s\n",
                         line.c_str());
        return 1;
    }
    if (result.coverage < min_coverage) {
        std::fprintf(stderr,
                     "betty_report: critpath FAIL: coverage %.4f < "
                     "required %.4f — the DAG is missing dependency "
                     "edges across that much of the wall time\n",
                     result.coverage, min_coverage);
        return 1;
    }
    std::printf("betty_report: critpath OK (coverage %.4f)\n",
                result.coverage);
    return 0;
}

// ---------------------------------------------------------------- flags

/** The value after flag argv[*i], advancing *i; exits 2 if absent. */
const char*
flagValue(int argc, char** argv, int* i)
{
    if (*i + 1 >= argc) {
        std::fprintf(stderr, "betty_report: missing value for %s\n",
                     argv[*i]);
        std::exit(2);
    }
    return argv[++*i];
}

/** flagValue() as a whole-string finite double; exits 2 naming the
 * flag when malformed ("25%" is not 25). */
double
numberValue(int argc, char** argv, int* i)
{
    const char* flag = argv[*i];
    const char* text = flagValue(argc, argv, i);
    double value = 0.0;
    if (!betty::envcfg::parseDouble(text, &value)) {
        std::fprintf(stderr,
                     "betty_report: malformed %s='%s': expected a "
                     "finite number\n",
                     flag, text);
        std::exit(2);
    }
    return value;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];

    if (command == "print" || command == "check") {
        JsonValue doc;
        if (!loadReport(argv[2], doc))
            return 2;
        return command == "print" ? printReport(argv[2], doc)
                                  : checkReport(doc);
    }

    if (command == "diff") {
        if (argc < 4)
            return usage();
        DiffThresholds thresholds;
        for (int i = 4; i < argc; ++i) {
            const std::string flag = argv[i];
            auto value = [&] { return numberValue(argc, argv, &i); };
            if (flag == "--max-peak-regress")
                thresholds.maxPeakRegress = value();
            else if (flag == "--max-time-regress")
                thresholds.maxTimeRegress = value();
            else if (flag == "--max-edge-cut-regress")
                thresholds.maxEdgeCutRegress = value();
            else if (flag == "--max-accuracy-drop")
                thresholds.maxAccuracyDrop = value();
            else if (flag == "--inject-peak-scale")
                thresholds.injectPeakScale = value();
            else
                return usage();
        }
        JsonValue baseline, candidate;
        if (!loadReport(argv[2], baseline) ||
            !loadReport(argv[3], candidate))
            return 2;
        return diffReports(baseline, candidate, thresholds);
    }

    if (command == "critpath") {
        std::vector<betty::obs::critpath::WhatIfSpec> specs;
        double min_coverage = 0.0;
        std::string out_path;
        for (int i = 3; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--what-if") {
                betty::obs::critpath::WhatIfSpec spec;
                const std::string text = flagValue(argc, argv, &i);
                if (!parseWhatIfSpec(text, &spec)) {
                    std::fprintf(
                        stderr,
                        "betty_report: --what-if expects "
                        "CATEGORY=SCALE with a finite scale >= 0, "
                        "got '%s'\n",
                        text.c_str());
                    return 2;
                }
                specs.push_back(spec);
            } else if (flag == "--min-coverage") {
                min_coverage = numberValue(argc, argv, &i);
            } else if (flag == "--out") {
                out_path = flagValue(argc, argv, &i);
            } else {
                return usage();
            }
        }
        return critpathCommand(argv[2], specs, min_coverage,
                               out_path);
    }

    return usage();
}
