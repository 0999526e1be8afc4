#include "obs/run_meta.h"

#include <ctime>
#include <map>
#include <mutex>

#include "obs/json.h"

namespace betty::obs {

namespace {

struct MetaRegistry
{
    std::mutex mutex;
    std::map<std::string, std::string> entries; // sorted => diffable
};

MetaRegistry&
metaRegistry()
{
    static MetaRegistry* instance = new MetaRegistry;
    return *instance;
}

std::string
isoTimestampUtc()
{
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buf;
}

} // namespace

void
setRunMeta(const std::string& key, const std::string& value)
{
    auto& reg = metaRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.entries[key] = value;
}

void
clearRunMeta()
{
    auto& reg = metaRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.entries.clear();
}

void
writeRunMeta(JsonWriter& out)
{
    auto& reg = metaRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    out.beginObject();
    out.key("timestamp").string(isoTimestampUtc());
    for (const auto& [key, value] : reg.entries)
        out.key(key).string(value);
    out.endObject();
}

} // namespace betty::obs
