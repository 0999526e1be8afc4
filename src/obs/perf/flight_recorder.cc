#include "obs/perf/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "util/env_config.h"
#include "util/logging.h"

namespace betty::obs {

std::atomic<bool> FlightRecorder::enabled_{true};

namespace {

/**
 * One ring slot. Every field is an atomic written with relaxed order
 * and published by the seq stamp (release), so concurrent writers
 * that lap the ring and concurrent snapshot() readers are data-race
 * free. The stamp holds the seq of the stored event; kWriting marks a
 * slot mid-update and kEmpty one never written.
 */
struct Slot
{
    static constexpr int64_t kEmpty = -1;
    static constexpr int64_t kWriting = -2;

    std::atomic<int64_t> stamp{kEmpty};
    std::atomic<int64_t> ts{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<int32_t> lane{0};
    std::atomic<uint16_t> catPhase{0}; // category | phase << 8
};

struct Ring
{
    explicit Ring(size_t capacity)
        : mask(capacity - 1), slots(capacity)
    {
    }

    size_t mask;
    std::vector<Slot> slots;
};

size_t
roundUpPow2(size_t value)
{
    size_t pow2 = 64;
    while (pow2 < value && pow2 < (size_t(1) << 30))
        pow2 <<= 1;
    return pow2;
}

/** Default ring capacity (BETTY_FR_CAPACITY, else 8192 events). */
size_t
defaultCapacity()
{
    const int64_t value = envcfg::envInt("BETTY_FR_CAPACITY", 8192);
    if (value < 1)
        fatal("BETTY_FR_CAPACITY=", value, " out of range: need >= 1");
    return roundUpPow2(size_t(value));
}

struct Recorder
{
    std::atomic<Ring*> ring{nullptr};
    std::atomic<int64_t> nextSeq{0};

    /** Replaced rings stay reachable here: a writer that grabbed the
     * old pointer mid-record must still find live memory, and LSan
     * must not flag the retirement as a leak. */
    std::mutex retireMutex;
    std::vector<std::unique_ptr<Ring>> retired;

    std::mutex fatalPathMutex;
    std::string fatalPath;
};

Recorder&
recorder()
{
    static Recorder* instance = new Recorder; // leaked: outlives threads
    return *instance;
}

Ring&
ensureRing()
{
    Recorder& rec = recorder();
    Ring* ring = rec.ring.load(std::memory_order_acquire);
    if (ring)
        return *ring;
    auto candidate = std::make_unique<Ring>(defaultCapacity());
    Ring* expected = nullptr;
    if (rec.ring.compare_exchange_strong(expected, candidate.get(),
                                         std::memory_order_acq_rel)) {
        Ring* installed = candidate.get();
        std::lock_guard<std::mutex> lock(rec.retireMutex);
        rec.retired.push_back(std::move(candidate));
        return *installed;
    }
    return *expected; // another thread won the install race
}

void
recordEvent(FrCategory category, FrPhase phase, const char* name,
            int64_t a, int64_t b)
{
    Recorder& rec = recorder();
    Ring& ring = ensureRing();
    const int64_t ts = Trace::nowUs();
    const int64_t seq =
        rec.nextSeq.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = ring.slots[size_t(seq) & ring.mask];
    slot.stamp.store(Slot::kWriting, std::memory_order_release);
    slot.ts.store(ts, std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.name.store(name, std::memory_order_relaxed);
    slot.lane.store(Trace::currentLane(), std::memory_order_relaxed);
    slot.catPhase.store(
        uint16_t(uint16_t(category) | (uint16_t(phase) << 8)),
        std::memory_order_relaxed);
    slot.stamp.store(seq, std::memory_order_release);
}

/** The fatal() hook: dump to the registered path, best effort. */
void
fatalDump()
{
    const std::string path = FlightRecorder::fatalDumpPath();
    if (path.empty())
        return;
    if (writeJsonFile(path, FlightRecorder::dumpJson()))
        std::fprintf(stderr,
                     "flight recorder: dumped %lld event(s) to '%s'\n",
                     (long long)FlightRecorder::snapshot().size(),
                     path.c_str());
    else
        std::fprintf(stderr,
                     "flight recorder: could not write '%s'\n",
                     path.c_str());
}

} // namespace

const char*
frCategoryName(FrCategory category)
{
    switch (category) {
    case FrCategory::Span:
        return "span";
    case FrCategory::Fault:
        return "fault";
    case FrCategory::Recovery:
        return "recovery";
    case FrCategory::Oom:
        return "oom";
    case FrCategory::Cache:
        return "cache";
    case FrCategory::Pool:
        return "pool";
    case FrCategory::Checkpoint:
        return "checkpoint";
    case FrCategory::Mark:
        return "mark";
    }
    return "unknown";
}

void
FlightRecorder::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
FlightRecorder::setCapacity(size_t events)
{
    Recorder& rec = recorder();
    auto replacement = std::make_unique<Ring>(roundUpPow2(events));
    Ring* installed = replacement.get();
    {
        std::lock_guard<std::mutex> lock(rec.retireMutex);
        rec.retired.push_back(std::move(replacement));
    }
    rec.ring.store(installed, std::memory_order_release);
    rec.nextSeq.store(0, std::memory_order_relaxed);
}

size_t
FlightRecorder::capacity()
{
    return ensureRing().mask + 1;
}

void
FlightRecorder::record(FrCategory category, const char* name,
                       int64_t a, int64_t b)
{
    if (enabled())
        recordEvent(category, FrPhase::Instant, name, a, b);
}

void
FlightRecorder::recordBegin(const char* name, int64_t a, int64_t b)
{
    if (enabled())
        recordEvent(FrCategory::Span, FrPhase::Begin, name, a, b);
}

void
FlightRecorder::recordEnd(const char* name, int64_t a, int64_t b)
{
    if (enabled())
        recordEvent(FrCategory::Span, FrPhase::End, name, a, b);
}

int64_t
FlightRecorder::recordedEvents()
{
    return recorder().nextSeq.load(std::memory_order_relaxed);
}

int64_t
FlightRecorder::droppedEvents()
{
    const int64_t recorded = recordedEvents();
    const int64_t cap = int64_t(capacity());
    return recorded > cap ? recorded - cap : 0;
}

std::vector<FrEvent>
FlightRecorder::snapshot()
{
    Ring& ring = ensureRing();
    std::vector<FrEvent> events;
    events.reserve(ring.slots.size());
    for (Slot& slot : ring.slots) {
        const int64_t before =
            slot.stamp.load(std::memory_order_acquire);
        if (before < 0)
            continue;
        FrEvent event;
        event.seq = before;
        event.tsUs = slot.ts.load(std::memory_order_relaxed);
        event.a = slot.a.load(std::memory_order_relaxed);
        event.b = slot.b.load(std::memory_order_relaxed);
        event.name = slot.name.load(std::memory_order_relaxed);
        event.lane = slot.lane.load(std::memory_order_relaxed);
        const uint16_t packed =
            slot.catPhase.load(std::memory_order_relaxed);
        event.category = FrCategory(packed & 0xff);
        event.phase = FrPhase(packed >> 8);
        // A writer lapping the ring mid-copy changes the stamp; the
        // torn slot is simply skipped.
        if (slot.stamp.load(std::memory_order_acquire) != before)
            continue;
        events.push_back(event);
    }
    std::sort(events.begin(), events.end(),
              [](const FrEvent& x, const FrEvent& y) {
                  return x.seq < y.seq;
              });
    return events;
}

void
FlightRecorder::clear()
{
    Ring& ring = ensureRing();
    for (Slot& slot : ring.slots)
        slot.stamp.store(Slot::kEmpty, std::memory_order_release);
    recorder().nextSeq.store(0, std::memory_order_relaxed);
}

std::string
FlightRecorder::dumpJson()
{
    const std::vector<FrEvent> events = snapshot();
    JsonWriter out;
    out.beginObject();
    out.key("schema_version").integer(kObsSchemaVersion);
    out.key("meta");
    writeRunMeta(out);
    out.key("capacity").integer(int64_t(capacity()));
    out.key("recorded").integer(recordedEvents());
    out.key("dropped").integer(droppedEvents());
    out.key("events").beginArray();
    for (const FrEvent& event : events) {
        out.beginObject();
        out.key("seq").integer(event.seq);
        out.key("ts_us").integer(event.tsUs);
        out.key("category").string(frCategoryName(event.category));
        out.key("phase").string(event.phase == FrPhase::Begin ? "begin"
                                : event.phase == FrPhase::End ? "end"
                                                              : "instant");
        out.key("lane").integer(event.lane);
        out.key("name").string(event.name ? event.name : "");
        out.key("a").integer(event.a);
        out.key("b").integer(event.b);
        out.endObject();
    }
    out.endArray();
    out.endObject();
    return out.take();
}

void
FlightRecorder::setFatalDumpPath(const std::string& path)
{
    Recorder& rec = recorder();
    {
        std::lock_guard<std::mutex> lock(rec.fatalPathMutex);
        rec.fatalPath = path;
    }
    setFatalHook(path.empty() ? nullptr : &fatalDump);
}

std::string
FlightRecorder::fatalDumpPath()
{
    Recorder& rec = recorder();
    std::lock_guard<std::mutex> lock(rec.fatalPathMutex);
    return rec.fatalPath;
}

} // namespace betty::obs
