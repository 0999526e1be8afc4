/**
 * @file
 * Always-on lock-free flight recorder for post-mortem debugging.
 *
 * A fixed-capacity ring buffer of structured events — coarse phase
 * begin/end markers, injected faults, OOM recovery actions, cache
 * evictions/releases, pool stalls, checkpoints — that is cheap enough
 * to leave enabled in every run (unlike tracing/metrics, which are
 * opt-in). When something goes wrong the last N events are the story
 * of how it went wrong: `train_cli --flight-recorder-out=FILE` dumps
 * them at exit, ResilientTrainer records every recovery decision into
 * them, and fatal() dumps them automatically once a dump path is
 * registered (setFatalDumpPath).
 *
 * Cost model: recording is one relaxed fetch_add to claim a slot plus
 * a handful of relaxed atomic stores — no locks, no allocation, no
 * syscalls. The ring holds the most recent `capacity` events; older
 * ones are overwritten and counted as dropped. Event names must be
 * string literals (stored by pointer, like trace spans). Timestamps
 * share obs::Trace's microsecond timebase so flight events correlate
 * with trace spans.
 *
 * Frequency discipline: record semantically meaningful state changes
 * (a fault fired, a re-plan happened, a worker went idle), never
 * inner-loop iterations — the ring is a black box, not a profiler.
 */
#ifndef BETTY_OBS_PERF_FLIGHT_RECORDER_H
#define BETTY_OBS_PERF_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace betty::obs {

/** Broad event families (the "category" field of the dump). */
enum class FrCategory : uint8_t {
    Span,       ///< coarse phase begin/end markers
    Fault,      ///< injected fault consumed (util/fault.h)
    Recovery,   ///< ResilientTrainer decision (re-plan, skip, repair)
    Oom,        ///< over-capacity episode on the device model
    Cache,      ///< feature-cache eviction batch / reservation release
    Pool,       ///< thread-pool stall (worker went idle)
    Checkpoint, ///< checkpoint written / restored
    Mark,       ///< anything else worth a timestamp
};

/** Printable category name (the JSON field value). */
const char* frCategoryName(FrCategory category);

/** Begin/end disposition of a Span event; everything else is Instant. */
enum class FrPhase : uint8_t { Instant, Begin, End };

/** One recorded event, as returned by snapshot(). */
struct FrEvent
{
    /** Global record order (strictly increasing across threads). */
    int64_t seq = 0;

    /** Microseconds since the process time anchor (Trace::nowUs()). */
    int64_t tsUs = 0;

    FrCategory category = FrCategory::Mark;
    FrPhase phase = FrPhase::Instant;

    /** Recording thread's trace lane (Trace::currentLane()). */
    int32_t lane = 0;

    /** Event label; a string literal at the recording site. */
    const char* name = nullptr;

    /** Two event-defined arguments (epoch/K/bytes/...; 0 if unused). */
    int64_t a = 0;
    int64_t b = 0;
};

/**
 * Process-wide flight recorder (all methods are static). Enabled by
 * default — this is the one collector that is always on.
 */
class FlightRecorder
{
  public:
    /** True while events are being recorded (default: true). */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Turn recording on or off (off keeps what was recorded). */
    static void setEnabled(bool on);

    /**
     * Resize the ring to hold @p events (rounded up to a power of
     * two; clamped to >= 64). Call from configuration points or test
     * setup only — events recorded before the resize are discarded.
     * Default capacity: 8192, overridable with BETTY_FR_CAPACITY.
     */
    static void setCapacity(size_t events);

    /** Current ring capacity in events. */
    static size_t capacity();

    /** Append one instant event. @p name must be a string literal. */
    static void record(FrCategory category, const char* name,
                       int64_t a = 0, int64_t b = 0);

    /** Append a Begin span marker (pairs with recordEnd by name). */
    static void recordBegin(const char* name, int64_t a = 0,
                            int64_t b = 0);

    /** Append an End span marker. */
    static void recordEnd(const char* name, int64_t a = 0,
                          int64_t b = 0);

    /** Events recorded since start/clear (including overwritten). */
    static int64_t recordedEvents();

    /** Events lost to ring overwrites. */
    static int64_t droppedEvents();

    /**
     * The retained events in seq order (oldest first). Safe to call
     * while other threads record: slots overwritten mid-copy are
     * detected via their seq stamp and skipped.
     */
    static std::vector<FrEvent> snapshot();

    /** Drop every retained event and reset the counters. */
    static void clear();

    /** The ring as one JSON document (schema_version, meta, events). */
    static std::string dumpJson();

    /**
     * Register @p path as the automatic post-mortem destination:
     * fatal() (util/logging.h) dumps the ring there before exiting,
     * so a dying run always leaves its last events behind. An empty
     * path unregisters. Idempotent.
     */
    static void setFatalDumpPath(const std::string& path);

    /** The registered fatal-dump destination ("" = none). */
    static std::string fatalDumpPath();

  private:
    static std::atomic<bool> enabled_;
};

} // namespace betty::obs

#endif // BETTY_OBS_PERF_FLIGHT_RECORDER_H
