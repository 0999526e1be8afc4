/**
 * @file
 * Deterministic fault injection for the fault-tolerant training
 * runtime (docs/ROBUSTNESS.md).
 *
 * A FaultPlan is a schedule of failure events parsed from a compact
 * spec string (the train_cli --faults flag / BETTY_FAULTS variable):
 *
 *   spec  := event (';' event)*
 *   event := kind ['=' value] '@epoch' N ['.mb' M]
 *            (':' key '=' value)*
 *   kind  := oom | capacity-drop | transfer-fail | alloc-scale
 *            | corrupt-features | device-drop | device-slow
 *            | transfer-flaky
 *
 * Examples:
 *   oom@epoch2.mb1                 injected OOM in epoch 2's second
 *                                  micro-batch
 *   capacity-drop=0.5@epoch3       device capacity halves at the
 *                                  start of epoch 3 (a co-tenant
 *                                  grabbing memory)
 *   transfer-fail@epoch1:retries=2 the next two transfer attempts in
 *                                  epoch 1 fail (each retry still
 *                                  pays the link latency)
 *   alloc-scale=1.5@epoch2.mb0     the estimator under-predicted:
 *                                  micro-batch 0 of epoch 2 actually
 *                                  allocates 1.5x its estimate
 *   corrupt-features=0.01@epoch1   1% of epoch 1's gathered feature
 *                                  rows arrive as NaN garbage
 *   device-drop@epoch2             the highest-indexed live device
 *                                  dies at the start of epoch 2; its
 *                                  micro-batches are re-sharded over
 *                                  the survivors
 *   device-drop=1@epoch2.mb3       device 1 dies just before epoch
 *                                  2's micro-batch 3
 *   device-slow=4@epoch2:duration=1
 *                                  one device's host link and
 *                                  interconnect lane degrade to 1/4
 *                                  bandwidth for one epoch
 *                                  (`:device=D` names the victim;
 *                                  `:duration=0` = permanent)
 *   transfer-flaky=0.2@epoch3      every transfer attempt in epoch 3
 *                                  fails with probability 0.2, drawn
 *                                  from the plan seed so the exact
 *                                  attempt outcomes replay
 *
 * Every event fires exactly once (transfer-fail fires `retries`
 * attempts; transfer-flaky fires per losing per-attempt draw), at a
 * position fixed by the schedule, and every stochastic choice
 * (corrupt-row selection, flaky-attempt outcomes) is a pure function
 * of the plan seed and the clock position — so a test can assert the
 * exact recovery behaviour and replay it bit-for-bit.
 *
 * The process-global Injector follows the obs::Metrics pattern: when
 * no plan is installed every query is a cheap early-out, so fault-
 * free runs pay one predictable branch per site and nothing else.
 */
#ifndef BETTY_UTIL_FAULT_H
#define BETTY_UTIL_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

namespace betty::fault {

/** The failure modes the runtime can rehearse. */
enum class FaultKind
{
    /** Report an OOM for one micro-batch regardless of real usage. */
    InjectOom,

    /** Shrink the device capacity by a factor (epoch- or mb-scoped). */
    CapacityDrop,

    /** Fail the next transfer attempt(s); each costs link latency. */
    TransferFail,

    /** Scale one micro-batch's actual allocations past the estimate
     * (simulated estimator under-prediction). */
    AllocScale,

    /** Deliver a fraction of gathered feature rows as NaN garbage. */
    CorruptFeatures,

    /** Kill one simulated device of the multi-device engine; its
     * pending micro-batches re-shard over the survivors
     * (train/multi_device.h). Value = device index, or none for
     * "the highest-indexed live device". */
    DeviceDrop,

    /** Gray failure: one device's host link and interconnect lane
     * degrade to 1/FACTOR bandwidth (value = FACTOR > 1). Optional
     * `:device=D` names the victim (default: the engine picks the
     * highest-indexed live device), `:duration=E` heals it after E
     * epochs (0 = permanent). */
    DeviceSlow,

    /** Gray failure: while active, each transfer attempt fails with
     * probability value in (0, 1). Outcomes are drawn via
     * Rng::stream keyed on (plan seed, epoch, micro-batch, attempt)
     * — deterministic no matter which thread asks. */
    TransferFlaky,
};

/** Printable kind name (the spec keyword). */
const char* faultKindName(FaultKind kind);

/** One scheduled failure. */
struct FaultEvent
{
    FaultKind kind = FaultKind::InjectOom;

    /** Epoch the event fires in (1-based, matching train_cli). */
    int64_t epoch = 1;

    /** Micro-batch within the epoch; -1 = epoch-scoped (fires before
     * the first micro-batch). */
    int64_t microBatch = -1;

    /** Kind-dependent magnitude: capacity factor, allocation scale,
     * corrupt-row fraction, slowdown factor, or flaky probability. */
    double value = 0.0;

    /** TransferFail: how many consecutive attempts fail. */
    int64_t retries = 1;

    /** DeviceSlow: victim device index, or -1 = engine's choice. */
    int64_t device = -1;

    /** DeviceSlow: epochs the slowdown lasts; 0 = permanent. */
    int64_t durationEpochs = 0;
};

/** A parsed schedule plus the seed all stochastic choices key on. */
struct FaultPlan
{
    std::vector<FaultEvent> events;
    uint64_t seed = 0;

    /**
     * Parse @p spec (grammar above) into @p plan. Returns false and
     * fills @p error (if non-null) on malformed input; @p plan is
     * left untouched on failure. An empty spec parses to an empty
     * plan.
     */
    static bool parse(const std::string& spec, FaultPlan& plan,
                      std::string* error = nullptr);

    /**
     * Render the plan back to a spec string that parse() accepts and
     * that round-trips to an equal plan — the replay handle the chaos
     * harness prints for a failing schedule (the seed travels
     * separately via --fault-seed).
     */
    std::string format() const;
};

/**
 * Process-global fault clock + event queue. The trainer advances the
 * clock (beginEpoch/beginMicroBatch); injection sites issue one-shot
 * consuming queries that fire when an unconsumed event matches the
 * clock position. All entry points are thread-safe. The transfer
 * queries take the micro-batch's *logical* position as an argument
 * instead of trusting the clock, so a transfer fault lands on its
 * micro-batch whoever advances the clock, and whenever.
 */
class Injector
{
  public:
    /** Install @p plan and reset the clock and all counters. */
    static void install(FaultPlan plan);

    /** Remove any installed plan (queries become no-ops). */
    static void clear();

    /** True when a non-empty plan is installed. */
    static bool active();

    /** @name Clock */
    /** @{ */

    /** Enter @p epoch (1-based); micro-batch position resets to -1
     * (the epoch-scoped slot). */
    static void beginEpoch(int64_t epoch);

    /** Enter micro-batch @p index (0-based) of the current epoch. */
    static void beginMicroBatch(int64_t index);

    /** @} */

    /** @name One-shot consuming queries */
    /** @{ */

    /** True if an InjectOom event fires at the clock position. */
    static bool takeInjectedOom();

    /** True (with the factor) if a CapacityDrop fires here. */
    static bool takeCapacityDrop(double* factor);

    /** True (with the scale) if an AllocScale fires here. */
    static bool takeAllocScale(double* scale);

    /**
     * True while a TransferFail event has failed attempts left for
     * the current epoch; call once per attempt. @p micro_batch is
     * the attempt's logical (program-order) position — pass -1 for
     * gathers outside the micro-batch loop (evaluation) — so a
     * `.mbM`-pinned schedule lands on exactly that micro-batch even
     * when a pool worker gathers ahead of the clock.
     */
    static bool takeTransferFailure(int64_t micro_batch);

    /**
     * True if a TransferFlaky event active at the clock's epoch (and
     * @p micro_batch, if pinned) loses its per-attempt draw. The
     * draw is Rng::stream keyed on (plan seed, epoch, micro_batch,
     * attempt ordinal) — a pure function of position, never of call
     * order or thread identity.
     */
    static bool takeTransferFlakyFailure(int64_t micro_batch,
                                         int64_t attempt);

    /** True (with the row fraction) if a CorruptFeatures event fires
     * at the current epoch's epoch-scoped slot. */
    static bool takeCorruptFeatures(double* fraction);

    /**
     * True if a DeviceDrop fires at the clock position. @p device
     * receives the spec's device index, or -1 when the spec named no
     * device (the engine then drops the highest-indexed live one).
     */
    static bool takeDeviceDrop(int64_t* device);

    /**
     * True if a DeviceSlow fires at the clock position. @p factor
     * receives the slowdown (> 1), @p device the victim index or -1
     * for "engine's choice", @p duration_epochs how many epochs the
     * degradation lasts (0 = permanent).
     */
    static bool takeDeviceSlow(double* factor, int64_t* device,
                               int64_t* duration_epochs);

    /** @} */

    /**
     * The rows of an @p num_rows-row feature gather to corrupt for a
     * @p fraction-sized corruption event: a sorted, duplicate-free
     * index list, at least one row when fraction > 0. A pure function
     * of (plan seed, current epoch, num_rows) — never of call order —
     * via Rng::stream, so repair tests can recompute the exact set.
     */
    static std::vector<int64_t> corruptRowPlan(int64_t num_rows,
                                               double fraction);

    /** Total events consumed since install() (retries count each). */
    static int64_t faultsInjected();

    /** Consumed events of one kind (TransferFail counts attempts,
     * TransferFlaky counts losing draws). */
    static int64_t faultsInjected(FaultKind kind);
};

} // namespace betty::fault

#endif // BETTY_UTIL_FAULT_H
