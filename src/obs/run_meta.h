/**
 * @file
 * Export schema version and per-run metadata.
 *
 * Every observability artifact (trace JSON, metrics snapshot, run
 * report) carries "schema_version" plus a "meta" object — binary
 * name, ISO-8601 wall-clock timestamp, and whatever dataset/config
 * key-value pairs the producing binary registered — so betty_report
 * can refuse to diff artifacts whose layouts do not match and can
 * label what a report actually measured.
 */
#ifndef BETTY_OBS_RUN_META_H
#define BETTY_OBS_RUN_META_H

#include <cstdint>
#include <string>

namespace betty::obs {

class JsonWriter;

/**
 * Version of every obs JSON export layout. Bump when a field is
 * renamed, removed, or changes meaning (additions are compatible and
 * do not require a bump). betty_report refuses to diff reports whose
 * versions differ.
 *
 * History: 1 = PR 1 trace/metrics layout (implicit, no version
 * field); 2 = adds schema_version + meta everywhere, memory_profile
 * in the metrics snapshot, counter events in the trace; 3 = adds the
 * feature_cache memory category (renumbering uncategorized) and the
 * "cache" run-report section.
 */
constexpr int64_t kObsSchemaVersion = 3;

/** Register one run-metadata key (e.g. "dataset", "config.k").
 * Later writes to the same key overwrite. */
void setRunMeta(const std::string& key, const std::string& value);

/** Drop every registered key except the implicit timestamp. */
void clearRunMeta();

/**
 * Write the metadata as one JSON object: "timestamp" (ISO-8601 UTC,
 * captured at call time), then every registered key in sorted order.
 */
void writeRunMeta(JsonWriter& out);

} // namespace betty::obs

#endif // BETTY_OBS_RUN_META_H
