/**
 * @file
 * Bounded exponential-backoff retry policy for host-link transfers
 * (docs/ROBUSTNESS.md, "Retry policy").
 *
 * The policy is explicit and shared: the trainer's transfer charge
 * runs it on whichever link a batch crosses (its own, or one of the
 * multi-device engine's per-device links), so a failed attempt and
 * its backoff are priced identically everywhere, with the same
 * `retry.*` metrics and flight-recorder events.
 *
 * Backoff is charged as *simulated* time on the TransferModel — the
 * link sits idle while the policy waits — so it shows up in the run
 * report's transfer seconds and `betty_report check` can gate
 * backoff <= total transfer time as an invariant.
 *
 * Exhaustion is graceful degradation, not a crash: after
 * maxAttempts-1 failed attempts the transfer is forced through (the
 * simulated fabric never hard-fails a gather), `retry.exhausted` is
 * counted, and the run continues with identical numerics — transfer
 * faults are attribution-only by construction.
 *
 * Header-only on purpose: betty_train consumes this from the gather
 * hot path but must not link betty_robustness (robustness sits above
 * train in the dependency DAG); retry.cc holds only the
 * robustness-layer helpers (env-var configuration).
 */
#ifndef BETTY_ROBUSTNESS_RETRY_H
#define BETTY_ROBUSTNESS_RETRY_H

#include <cstdint>

#include "memory/transfer_model.h"
#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "util/fault.h"

namespace betty::robustness {

/** Bounded exponential backoff between transfer retry attempts. */
struct RetryPolicy
{
    /** Total attempts allowed, including the first; the last one is
     * forced through (never fails), so at most maxAttempts-1 failed
     * attempts are ever charged. */
    int64_t maxAttempts = 8;

    /** Backoff after the first failed attempt, seconds. */
    double baseBackoffSeconds = 100.0e-6;

    /** Growth factor between consecutive backoffs. */
    double backoffMultiplier = 2.0;

    /** Ceiling on a single backoff interval, seconds. */
    double maxBackoffSeconds = 10.0e-3;

    /** Backoff charged after the @p failure-th failed attempt
     * (1-based): base * multiplier^(failure-1), capped. */
    double
    backoffForFailure(int64_t failure) const
    {
        double backoff = baseBackoffSeconds;
        for (int64_t i = 1; i < failure; ++i) {
            backoff *= backoffMultiplier;
            if (backoff >= maxBackoffSeconds)
                return maxBackoffSeconds;
        }
        return backoff < maxBackoffSeconds ? backoff
                                           : maxBackoffSeconds;
    }
};

/** What one retried transfer cost. */
struct RetryOutcome
{
    /** Attempts made, including the final successful one. */
    int64_t attempts = 1;

    /** Failed attempts (each paid link latency + a backoff). */
    int64_t failures = 0;

    /** Total simulated backoff charged, seconds. */
    double backoffSeconds = 0.0;

    /** True when the policy ran out of attempts and forced the
     * transfer through. */
    bool exhausted = false;
};

/**
 * Run the retry protocol for one transfer at logical position
 * @p micro_batch (-1 for gathers outside the micro-batch loop):
 * query the fault injector per attempt (scheduled `transfer-fail`
 * events and probabilistic `transfer-flaky` draws), charging each
 * failed attempt's latency and backoff to @p link. The caller
 * performs the actual transfer() afterwards — by then the protocol
 * has either drained the faults or exhausted the policy.
 */
inline RetryOutcome
runTransferRetries(TransferModel& link, int64_t micro_batch,
                   const RetryPolicy& policy = {})
{
    RetryOutcome outcome;
    if (!fault::Injector::active())
        return outcome;
    for (;;) {
        // The attempt ordinal keys the flaky draw, so the outcome of
        // attempt k at this position is the same on every replay.
        const int64_t attempt = outcome.failures;
        const bool failed =
            fault::Injector::takeTransferFailure(micro_batch) ||
            fault::Injector::takeTransferFlakyFailure(micro_batch,
                                                      attempt);
        if (!failed)
            break;
        ++outcome.failures;
        link.chargeFailedAttempt();
        const double backoff =
            policy.backoffForFailure(outcome.failures);
        link.chargeBackoff(backoff);
        outcome.backoffSeconds += backoff;
        if (obs::Metrics::enabled()) {
            static obs::Counter& failures =
                obs::Metrics::counter("retry.failures");
            static obs::Counter& backoff_us =
                obs::Metrics::counter("retry.backoff_us");
            // Kept from the pre-policy loop so existing dashboards
            // and the recovery report section stay comparable.
            static obs::Counter& legacy =
                obs::Metrics::counter("recover.transfer_retries");
            failures.increment();
            backoff_us.add(int64_t(backoff * 1e6));
            legacy.increment();
        }
        obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                    "retry/backoff", micro_batch,
                                    outcome.failures);
        if (outcome.failures + 1 >= policy.maxAttempts) {
            outcome.exhausted = true;
            if (obs::Metrics::enabled()) {
                static obs::Counter& exhausted =
                    obs::Metrics::counter("retry.exhausted");
                exhausted.increment();
            }
            obs::FlightRecorder::record(obs::FrCategory::Recovery,
                                        "retry/exhausted",
                                        micro_batch,
                                        outcome.failures);
            break;
        }
    }
    outcome.attempts = outcome.failures + 1;
    return outcome;
}

/**
 * Policy from BETTY_RETRY_MAX_ATTEMPTS / BETTY_RETRY_BASE_BACKOFF_US
 * / BETTY_RETRY_MAX_BACKOFF_US / BETTY_RETRY_MULTIPLIER, with the
 * struct defaults for anything unset or unparsable.
 */
RetryPolicy retryPolicyFromEnv();

} // namespace betty::robustness

#endif // BETTY_ROBUSTNESS_RETRY_H
