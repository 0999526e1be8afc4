#include "util/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "util/rng.h"

namespace betty::fault {

namespace {

/** Installed plan + clock + consumption state, mutex-guarded. */
struct InjectorState
{
    std::mutex mutex;
    FaultPlan plan;
    bool installed = false;
    int64_t epoch = 0;
    int64_t microBatch = -1;
    /** Per-event consumed flag; TransferFail tracks attempts left.
     * TransferFlaky never consumes (it stays armed for its whole
     * scope) — its firings are counted in `fired` only. */
    std::vector<int64_t> remaining;
    /** Per-event count of times the event actually fired. */
    std::vector<int64_t> fired;
    int64_t injected = 0;
};

InjectorState&
state()
{
    static InjectorState s;
    return s;
}

/** Does @p event fire at clock position (epoch, mb)? */
bool
matches(const FaultEvent& event, int64_t epoch, int64_t mb)
{
    if (event.epoch != epoch)
        return false;
    // Transfer faults are consumed per transfer attempt anywhere in
    // the epoch unless the spec pins a micro-batch.
    if (event.kind == FaultKind::TransferFail ||
        event.kind == FaultKind::TransferFlaky)
        return event.microBatch < 0 || event.microBatch == mb;
    return event.microBatch == mb;
}

void
chargeInjected(InjectorState& s, size_t index)
{
    ++s.injected;
    ++s.fired[index];
    if (obs::Metrics::enabled()) {
        static obs::Counter& counter =
            obs::Metrics::counter("recover.faults_injected");
        counter.increment();
    }
    // The consumed fault is exactly the kind of state change the
    // flight recorder exists for: it names the black-box story.
    obs::FlightRecorder::record(
        obs::FrCategory::Fault,
        faultKindName(s.plan.events[index].kind), s.epoch,
        s.microBatch);
}

/** Consume the first matching unconsumed event of @p kind; returns
 * its index or -1. Caller holds the mutex. */
int64_t
takeOneShot(InjectorState& s, FaultKind kind)
{
    if (!s.installed)
        return -1;
    for (size_t i = 0; i < s.plan.events.size(); ++i) {
        const FaultEvent& event = s.plan.events[i];
        if (event.kind != kind || s.remaining[i] <= 0)
            continue;
        if (!matches(event, s.epoch, s.microBatch))
            continue;
        s.remaining[i] = 0;
        chargeInjected(s, i);
        return int64_t(i);
    }
    return -1;
}

// ------------------------------------------------------------- parsing

bool
parseKind(const std::string& word, FaultKind& kind)
{
    if (word == "oom")
        kind = FaultKind::InjectOom;
    else if (word == "capacity-drop")
        kind = FaultKind::CapacityDrop;
    else if (word == "transfer-fail")
        kind = FaultKind::TransferFail;
    else if (word == "alloc-scale")
        kind = FaultKind::AllocScale;
    else if (word == "corrupt-features")
        kind = FaultKind::CorruptFeatures;
    else if (word == "device-drop")
        kind = FaultKind::DeviceDrop;
    else if (word == "device-slow")
        kind = FaultKind::DeviceSlow;
    else if (word == "transfer-flaky")
        kind = FaultKind::TransferFlaky;
    else
        return false;
    return true;
}

bool
parseInt(const std::string& text, int64_t& value)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    value = std::strtoll(text.c_str(), &end, 10);
    return end && *end == '\0';
}

bool
parseDouble(const std::string& text, double& value)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    value = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

bool
fail(std::string* error, const std::string& message)
{
    if (error)
        *error = message;
    return false;
}

/** One `kind[=value]@epochN[.mbM][:key=value...]` clause. */
bool
parseEvent(const std::string& clause, FaultEvent& event,
           std::string* error)
{
    const size_t at = clause.find('@');
    if (at == std::string::npos)
        return fail(error, "'" + clause + "': missing '@epochN'");

    std::string head = clause.substr(0, at);
    std::string tail = clause.substr(at + 1);

    // kind[=value]
    double value = 0.0;
    bool has_value = false;
    if (const size_t eq = head.find('='); eq != std::string::npos) {
        if (!parseDouble(head.substr(eq + 1), value))
            return fail(error, "'" + clause + "': bad value '" +
                                   head.substr(eq + 1) + "'");
        has_value = true;
        head = head.substr(0, eq);
    }
    if (!parseKind(head, event.kind))
        return fail(error,
                    "'" + clause + "': unknown fault kind '" + head +
                        "' (oom, capacity-drop, transfer-fail, "
                        "alloc-scale, corrupt-features, "
                        "device-drop, device-slow, transfer-flaky)");
    event.value = value;

    // :key=value modifiers (after the position).
    std::string position = tail;
    if (const size_t colon = tail.find(':');
        colon != std::string::npos) {
        position = tail.substr(0, colon);
        std::string mods = tail.substr(colon + 1);
        while (!mods.empty()) {
            const size_t next = mods.find(':');
            const std::string mod = mods.substr(0, next);
            mods = next == std::string::npos ? ""
                                             : mods.substr(next + 1);
            const size_t eq = mod.find('=');
            if (eq == std::string::npos)
                return fail(error, "'" + clause +
                                       "': modifier '" + mod +
                                       "' is not key=value");
            const std::string key = mod.substr(0, eq);
            if (key == "retries") {
                if (!parseInt(mod.substr(eq + 1), event.retries) ||
                    event.retries < 1)
                    return fail(error, "'" + clause +
                                           "': bad retries count");
            } else if (key == "device") {
                if (!parseInt(mod.substr(eq + 1), event.device) ||
                    event.device < 0)
                    return fail(error,
                                "'" + clause +
                                    "': bad device index (needs a "
                                    "whole index >= 0)");
            } else if (key == "duration") {
                if (!parseInt(mod.substr(eq + 1),
                              event.durationEpochs) ||
                    event.durationEpochs < 0)
                    return fail(error,
                                "'" + clause +
                                    "': bad duration (epochs >= 0; "
                                    "0 = permanent)");
            } else {
                return fail(error, "'" + clause +
                                       "': unknown modifier '" + key +
                                       "'");
            }
        }
    }

    // epochN[.mbM]
    if (position.rfind("epoch", 0) != 0)
        return fail(error, "'" + clause +
                               "': position must start with 'epoch'");
    std::string epoch_text = position.substr(5);
    if (const size_t dot = epoch_text.find(".mb");
        dot != std::string::npos) {
        if (!parseInt(epoch_text.substr(dot + 3), event.microBatch) ||
            event.microBatch < 0)
            return fail(error,
                        "'" + clause + "': bad micro-batch index");
        epoch_text = epoch_text.substr(0, dot);
    }
    if (!parseInt(epoch_text, event.epoch) || event.epoch < 1)
        return fail(error, "'" + clause + "': bad epoch number");

    // Kind-specific value validation.
    switch (event.kind) {
      case FaultKind::CapacityDrop:
        if (!has_value || event.value <= 0.0 || event.value >= 1.0)
            return fail(error, "'" + clause +
                                   "': capacity-drop needs a factor "
                                   "in (0, 1)");
        break;
      case FaultKind::AllocScale:
        if (!has_value || event.value <= 1.0)
            return fail(error, "'" + clause +
                                   "': alloc-scale needs a scale "
                                   "> 1");
        break;
      case FaultKind::CorruptFeatures:
        if (!has_value || event.value <= 0.0 || event.value > 1.0)
            return fail(error, "'" + clause +
                                   "': corrupt-features needs a "
                                   "fraction in (0, 1]");
        break;
      case FaultKind::DeviceDrop:
        // Optional value: a whole non-negative device index. No
        // value means "drop the highest-indexed live device", which
        // the engine encodes as -1.
        if (has_value) {
            if (event.value < 0.0 ||
                event.value != double(int64_t(event.value)))
                return fail(error, "'" + clause +
                                       "': device-drop needs a whole "
                                       "device index >= 0");
        } else {
            event.value = -1.0;
        }
        break;
      case FaultKind::DeviceSlow:
        if (!has_value || event.value <= 1.0)
            return fail(error, "'" + clause +
                                   "': device-slow needs a slowdown "
                                   "factor > 1");
        break;
      case FaultKind::TransferFlaky:
        if (!has_value || event.value <= 0.0 || event.value >= 1.0)
            return fail(error, "'" + clause +
                                   "': transfer-flaky needs a "
                                   "probability in (0, 1)");
        break;
      case FaultKind::InjectOom:
      case FaultKind::TransferFail:
        if (has_value)
            return fail(error, "'" + clause + "': " +
                                   faultKindName(event.kind) +
                                   " takes no '=value'");
        break;
    }
    return true;
}

/** %.12g — compact, and enough digits to round-trip every magnitude
 * the grammar accepts (factors, fractions, probabilities). */
std::string
formatValue(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.12g", value);
    return buffer;
}

} // namespace

const char*
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::InjectOom:
        return "oom";
      case FaultKind::CapacityDrop:
        return "capacity-drop";
      case FaultKind::TransferFail:
        return "transfer-fail";
      case FaultKind::AllocScale:
        return "alloc-scale";
      case FaultKind::CorruptFeatures:
        return "corrupt-features";
      case FaultKind::DeviceDrop:
        return "device-drop";
      case FaultKind::DeviceSlow:
        return "device-slow";
      case FaultKind::TransferFlaky:
        return "transfer-flaky";
    }
    return "?";
}

bool
FaultPlan::parse(const std::string& spec, FaultPlan& plan,
                 std::string* error)
{
    FaultPlan parsed;
    parsed.seed = plan.seed; // spec carries no seed; keep the caller's
    std::string rest = spec;
    while (!rest.empty()) {
        const size_t semi = rest.find(';');
        const std::string clause = rest.substr(0, semi);
        rest = semi == std::string::npos ? "" : rest.substr(semi + 1);
        if (clause.empty())
            continue;
        FaultEvent event;
        if (!parseEvent(clause, event, error))
            return false;
        parsed.events.push_back(event);
    }
    plan = std::move(parsed);
    return true;
}

std::string
FaultPlan::format() const
{
    std::string spec;
    for (const FaultEvent& event : events) {
        if (!spec.empty())
            spec += ';';
        spec += faultKindName(event.kind);
        const bool has_value =
            event.kind == FaultKind::CapacityDrop ||
            event.kind == FaultKind::AllocScale ||
            event.kind == FaultKind::CorruptFeatures ||
            event.kind == FaultKind::DeviceSlow ||
            event.kind == FaultKind::TransferFlaky ||
            (event.kind == FaultKind::DeviceDrop &&
             event.value >= 0.0);
        if (has_value)
            spec += "=" + formatValue(event.value);
        spec += "@epoch" + std::to_string(event.epoch);
        if (event.microBatch >= 0)
            spec += ".mb" + std::to_string(event.microBatch);
        if (event.kind == FaultKind::TransferFail &&
            event.retries != 1)
            spec += ":retries=" + std::to_string(event.retries);
        if (event.device >= 0)
            spec += ":device=" + std::to_string(event.device);
        if (event.durationEpochs > 0)
            spec +=
                ":duration=" + std::to_string(event.durationEpochs);
    }
    return spec;
}

void
Injector::install(FaultPlan plan)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.plan = std::move(plan);
    s.installed = !s.plan.events.empty();
    s.epoch = 0;
    s.microBatch = -1;
    s.remaining.assign(s.plan.events.size(), 0);
    for (size_t i = 0; i < s.plan.events.size(); ++i)
        s.remaining[i] =
            s.plan.events[i].kind == FaultKind::TransferFail
                ? s.plan.events[i].retries
                : 1;
    s.fired.assign(s.plan.events.size(), 0);
    s.injected = 0;
}

void
Injector::clear()
{
    install(FaultPlan{});
}

bool
Injector::active()
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.installed;
}

void
Injector::beginEpoch(int64_t epoch)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.epoch = epoch;
    s.microBatch = -1;
}

void
Injector::beginMicroBatch(int64_t index)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.microBatch = index;
}

bool
Injector::takeInjectedOom()
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return takeOneShot(s, FaultKind::InjectOom) >= 0;
}

bool
Injector::takeCapacityDrop(double* factor)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int64_t index = takeOneShot(s, FaultKind::CapacityDrop);
    if (index < 0)
        return false;
    if (factor)
        *factor = s.plan.events[size_t(index)].value;
    return true;
}

bool
Injector::takeAllocScale(double* scale)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int64_t index = takeOneShot(s, FaultKind::AllocScale);
    if (index < 0)
        return false;
    if (scale)
        *scale = s.plan.events[size_t(index)].value;
    return true;
}

bool
Injector::takeTransferFailure(int64_t micro_batch)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.installed)
        return false;
    for (size_t i = 0; i < s.plan.events.size(); ++i) {
        const FaultEvent& event = s.plan.events[i];
        if (event.kind != FaultKind::TransferFail ||
            s.remaining[i] <= 0)
            continue;
        // Program-order position: the epoch comes from the clock
        // (stable across one trainMicroBatches call) but the
        // micro-batch is the caller's logical index, so the fault
        // scheduled for ITS micro-batch is consumed, not the clock's.
        if (!matches(event, s.epoch, micro_batch))
            continue;
        --s.remaining[i];
        chargeInjected(s, i);
        return true;
    }
    return false;
}

bool
Injector::takeTransferFlakyFailure(int64_t micro_batch,
                                   int64_t attempt)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.installed)
        return false;
    for (size_t i = 0; i < s.plan.events.size(); ++i) {
        const FaultEvent& event = s.plan.events[i];
        if (event.kind != FaultKind::TransferFlaky)
            continue;
        if (!matches(event, s.epoch, micro_batch))
            continue;
        // One independent stream per (event, epoch, micro-batch,
        // attempt): the outcome is a pure function of position, so
        // any thread interleaving replays identically.
        Rng rng = Rng::stream(
            s.plan.seed,
            (uint64_t(s.epoch) << 16) ^ uint64_t(i) ^
                0xF1A6FA117ULL,
            (uint64_t(micro_batch + 1) << 20) ^ uint64_t(attempt));
        if (rng.uniformReal() < event.value) {
            chargeInjected(s, i);
            return true;
        }
    }
    return false;
}

bool
Injector::takeDeviceDrop(int64_t* device)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int64_t index = takeOneShot(s, FaultKind::DeviceDrop);
    if (index < 0)
        return false;
    if (device)
        *device = int64_t(s.plan.events[size_t(index)].value);
    return true;
}

bool
Injector::takeDeviceSlow(double* factor, int64_t* device,
                         int64_t* duration_epochs)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int64_t index = takeOneShot(s, FaultKind::DeviceSlow);
    if (index < 0)
        return false;
    const FaultEvent& event = s.plan.events[size_t(index)];
    if (factor)
        *factor = event.value;
    if (device)
        *device = event.device;
    if (duration_epochs)
        *duration_epochs = event.durationEpochs;
    return true;
}

bool
Injector::takeCorruptFeatures(double* fraction)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int64_t index = takeOneShot(s, FaultKind::CorruptFeatures);
    if (index < 0)
        return false;
    if (fraction)
        *fraction = s.plan.events[size_t(index)].value;
    return true;
}

std::vector<int64_t>
Injector::corruptRowPlan(int64_t num_rows, double fraction)
{
    uint64_t seed = 0;
    int64_t epoch = 0;
    {
        InjectorState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        seed = s.plan.seed;
        epoch = s.epoch;
    }
    if (num_rows <= 0 || fraction <= 0.0)
        return {};
    int64_t count = int64_t(double(num_rows) * fraction);
    count = std::max<int64_t>(1, std::min(count, num_rows));
    // Keyed on (seed, epoch) only: the same epoch always corrupts the
    // same rows, regardless of how many queries ran before.
    Rng rng = Rng::stream(seed, uint64_t(epoch), 0xC0DEFA117ULL);
    auto rows = rng.sampleWithoutReplacement(num_rows, count);
    std::sort(rows.begin(), rows.end());
    return rows;
}

int64_t
Injector::faultsInjected()
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.injected;
}

int64_t
Injector::faultsInjected(FaultKind kind)
{
    InjectorState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    int64_t consumed = 0;
    for (size_t i = 0; i < s.plan.events.size(); ++i)
        if (s.plan.events[i].kind == kind)
            consumed += s.fired[i];
    return consumed;
}

} // namespace betty::fault
