/**
 * @file
 * CTest helper validating train_cli's observability exports.
 *
 * Usage: check_obs_output <trace.json> <metrics.json>
 *
 * Parses both files with obs/json.h and checks the acceptance
 * contract: the Chrome trace contains the pipeline phase spans
 * (sampling, REG build, partitioning, transfer, forward, backward,
 * optimizer step) and the metrics snapshot contains the
 * device.peak_bytes and partition.edge_cut gauges plus per-micro-batch
 * estimator-residual entries. Exits 0 on success; prints every
 * violation and exits 1 otherwise.
 */
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/memprof.h"
#include "obs/run_meta.h"

namespace {

using betty::obs::JsonValue;

int failures = 0;

void
fail(const std::string& message)
{
    std::fprintf(stderr, "check_obs_output: FAIL: %s\n",
                 message.c_str());
    ++failures;
}

bool
loadJson(const std::string& path, JsonValue& doc)
{
    std::string error;
    if (!betty::obs::readJsonFile(path, doc, &error)) {
        fail(error);
        return false;
    }
    return true;
}

void
checkTrace(const JsonValue& doc)
{
    const JsonValue* events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        fail("trace has no traceEvents array");
        return;
    }

    const JsonValue* schema = doc.find("schema_version");
    if (!schema || schema->asInt() != betty::obs::kObsSchemaVersion)
        fail("trace schema_version missing or stale");

    std::set<std::string> span_names;
    size_t complete_events = 0;
    size_t memory_counters = 0;
    for (const auto& event : events->array) {
        const JsonValue* phase = event.find("ph");
        const JsonValue* name = event.find("name");
        if (!phase || !name) {
            fail("trace event missing ph/name");
            continue;
        }
        if (phase->string == "C" &&
            name->string == "device/memory") {
            // One stacked-counter sample: all Table 3 categories must
            // be present so Perfetto renders the full breakdown.
            const JsonValue* args = event.find("args");
            bool complete = args && args->isObject();
            for (size_t c = 0;
                 complete && c < betty::obs::kMemCategoryCount; ++c)
                complete = args->find(betty::obs::memCategoryName(
                               betty::obs::MemCategory(c))) != nullptr;
            if (!complete)
                fail("device/memory counter event lacks a category");
            else
                ++memory_counters;
            continue;
        }
        if (phase->string != "X")
            continue;
        ++complete_events;
        span_names.insert(name->string);
        const JsonValue* ts = event.find("ts");
        const JsonValue* dur = event.find("dur");
        if (!ts || !ts->isNumber() || !dur || !dur->isNumber() ||
            dur->number < 0)
            fail("span '" + name->string + "' has bad ts/dur");
    }
    if (complete_events == 0)
        fail("trace contains no complete (ph=X) spans");

    const std::vector<std::string> required = {
        "sample/neighbor",    // sampling
        "partition/reg_build", // REG construction
        "partition/kway",     // K-way partitioning
        "train/micro_batch",  // per-micro-batch umbrella
        "train/transfer",     // host->device movement
        "train/forward",      // forward pass
        "train/backward",     // backward pass
        "train/step",         // optimizer step
    };
    for (const auto& name : required)
        if (!span_names.count(name))
            fail("trace is missing required span '" + name + "'");
    if (memory_counters == 0)
        fail("trace has no device/memory counter (ph=C) events");
}

void
checkMetrics(const JsonValue& doc)
{
    const JsonValue* schema = doc.find("schema_version");
    if (!schema || schema->asInt() != betty::obs::kObsSchemaVersion)
        fail("metrics schema_version missing or stale");
    const JsonValue* meta = doc.find("meta");
    if (!meta || !meta->find("binary"))
        fail("metrics meta.binary is missing");

    const JsonValue* profile = doc.find("memory_profile");
    const JsonValue* micro_batches =
        profile ? profile->find("micro_batches") : nullptr;
    if (!micro_batches || !micro_batches->isArray() ||
        micro_batches->array.empty())
        fail("memory_profile.micro_batches is missing or empty");

    const JsonValue* gauges = doc.find("gauges");
    if (!gauges || !gauges->isObject()) {
        fail("metrics has no gauges object");
    } else {
        const JsonValue* peak = gauges->find("device.peak_bytes");
        if (!peak)
            fail("metrics is missing gauge device.peak_bytes");
        else if (peak->asInt() <= 0)
            fail("device.peak_bytes is not positive");
        if (!gauges->find("partition.edge_cut"))
            fail("metrics is missing gauge partition.edge_cut");
    }

    if (!doc.find("counters"))
        fail("metrics has no counters object");

    const JsonValue* residuals = doc.find("estimator_residuals");
    if (!residuals || !residuals->isObject()) {
        fail("metrics has no estimator_residuals object");
        return;
    }
    const JsonValue* entries = residuals->find("entries");
    if (!entries || !entries->isArray() || entries->array.empty()) {
        fail("estimator_residuals.entries is missing or empty");
        return;
    }
    for (const auto& entry : entries->array) {
        if (!entry.find("predicted_bytes") ||
            !entry.find("actual_bytes") ||
            !entry.find("residual_bytes")) {
            fail("residual entry missing predicted/actual/residual");
            break;
        }
    }
    const JsonValue* summary = residuals->find("summary");
    if (!summary || !summary->find("count") ||
        summary->find("count")->asInt() !=
            int64_t(entries->array.size()))
        fail("residual summary count disagrees with entries");
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: check_obs_output <trace.json> "
                     "<metrics.json>\n");
        return 2;
    }

    JsonValue trace;
    if (loadJson(argv[1], trace))
        checkTrace(trace);

    JsonValue metrics;
    if (loadJson(argv[2], metrics))
        checkMetrics(metrics);

    if (failures) {
        std::fprintf(stderr, "check_obs_output: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("check_obs_output: OK (%s, %s)\n", argv[1], argv[2]);
    return 0;
}
