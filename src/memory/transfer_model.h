/**
 * @file
 * Host-to-device transfer cost model.
 *
 * The paper reports "data movement time" (Figure 14) for streaming
 * micro-batch features over PCIe. Without a physical bus we charge an
 * analytical cost per transfer — latency plus bytes / bandwidth — with
 * defaults matching an effective PCIe 3.0 x16 link. Redundant input
 * nodes cost transfer time in exactly the proportion the paper
 * describes, so the partitioner comparisons keep their shape.
 */
#ifndef BETTY_MEMORY_TRANSFER_MODEL_H
#define BETTY_MEMORY_TRANSFER_MODEL_H

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"

namespace betty {

/** Accumulates simulated host<->device transfer time. */
class TransferModel
{
  public:
    /**
     * @param bandwidth_bytes_per_sec Effective link bandwidth.
     * @param latency_sec Fixed per-transfer setup cost.
     */
    explicit TransferModel(double bandwidth_bytes_per_sec = 12.0e9,
                           double latency_sec = 10.0e-6)
        : bandwidth_(bandwidth_bytes_per_sec), latency_(latency_sec)
    {
    }

    /** Charge one host-to-device copy of @p bytes. */
    void
    transfer(int64_t bytes)
    {
        const double cost =
            latency_ + double(bytes) * slowdown_ / bandwidth_;
        seconds_ += cost;
        lifetime_seconds_ += cost;
        total_bytes_ += bytes;
        ++num_transfers_;
        if (obs::Metrics::enabled()) {
            static obs::Counter& transfer_bytes =
                obs::Metrics::counter("transfer.bytes");
            static obs::Counter& transfer_count =
                obs::Metrics::counter("transfer.count");
            transfer_bytes.add(bytes);
            transfer_count.increment();
        }
    }

    /**
     * Charge one FAILED transfer attempt: the link latency was paid
     * (the setup handshake happened) but no bytes moved — the retry
     * pays the full transfer() cost again. Used by the trainer's
     * retry protocol when a transfer fault fires (util/fault.h);
     * kept here so failed attempts price identically everywhere.
     */
    void
    chargeFailedAttempt()
    {
        seconds_ += latency_;
        lifetime_seconds_ += latency_;
        ++failed_attempts_;
        if (obs::Metrics::enabled()) {
            static obs::Counter& failures =
                obs::Metrics::counter("transfer.failed_attempts");
            failures.increment();
        }
    }

    /**
     * Charge @p backoff_sec of retry backoff as simulated link time
     * (the link sits idle while the retry protocol waits, so the wait
     * is part of the transfer story). Counted separately so reports
     * can show how much of the transfer time was backoff.
     */
    void
    chargeBackoff(double backoff_sec)
    {
        seconds_ += backoff_sec;
        lifetime_seconds_ += backoff_sec;
        backoff_seconds_ += backoff_sec;
    }

    /**
     * Degrade the link to 1/@p factor of its configured bandwidth
     * from @p epoch on, for @p duration_epochs epochs (0 =
     * permanent): the device-slow fault, on either runtime. A
     * stronger degradation already in force is kept; the new window
     * replaces the old one. Attribution only — numerics are
     * untouched.
     */
    void
    degrade(double factor, int64_t epoch, int64_t duration_epochs)
    {
        slowdown_ = std::max(slowdown_, factor);
        // A window that would end past the last epoch never ends.
        const bool bounded =
            duration_epochs > 0 &&
            duration_epochs <= std::numeric_limits<int64_t>::max() - epoch;
        slow_until_epoch_ = bounded ? epoch + duration_epochs - 1 : -1;
    }

    /**
     * Restore full bandwidth when the degradation's window ended
     * before @p epoch; true when this call healed the link. Called at
     * each epoch start before that epoch's faults are consumed, so a
     * one-epoch degradation covers exactly one epoch.
     */
    bool
    healBefore(int64_t epoch)
    {
        if (slowdown_ == 1.0 || slow_until_epoch_ < 0 ||
            epoch <= slow_until_epoch_)
            return false;
        slowdown_ = 1.0;
        return true;
    }

    /** Current slowdown factor (1 = healthy). */
    double slowdown() const { return slowdown_; }

    /**
     * Record @p bytes that a transfer did NOT have to move because
     * the feature cache already held the rows. Pure bookkeeping — no
     * time is charged — kept here so every consumer (run report,
     * benches, tests) prices savings identically.
     */
    void
    noteSavedBytes(int64_t bytes)
    {
        saved_bytes_ += bytes;
    }

    double seconds() const { return seconds_; }
    int64_t totalBytes() const { return total_bytes_; }
    int64_t numTransfers() const { return num_transfers_; }

    /** Lifetime count of failed attempts — survives reset(), which
     * only re-arms the per-epoch accumulators. */
    int64_t failedAttempts() const { return failed_attempts_; }

    /** Lifetime bytes the feature cache kept off the link — like
     * failedAttempts(), survives reset() so run-report deltas are
     * not skewed by the per-epoch re-arm. */
    int64_t savedBytes() const { return saved_bytes_; }

    /** Lifetime retry-backoff seconds charged — survives reset()
     * like the other lifetime counters. Always <= the total time
     * this link has ever accumulated. */
    double backoffSeconds() const { return backoff_seconds_; }

    /** Lifetime simulated seconds across all transfers, failed
     * attempts, and backoff — unlike seconds(), survives reset().
     * The denominator for the backoff-share invariant
     * (backoffSeconds() <= lifetimeSeconds(), gated by
     * `betty_report check`). */
    double lifetimeSeconds() const { return lifetime_seconds_; }

    void
    reset()
    {
        seconds_ = 0.0;
        total_bytes_ = 0;
        num_transfers_ = 0;
    }

  private:
    double bandwidth_;
    double latency_;
    double slowdown_ = 1.0;
    /** Last epoch the degradation covers; -1 = permanent. */
    int64_t slow_until_epoch_ = -1;
    double seconds_ = 0.0;
    double lifetime_seconds_ = 0.0;
    double backoff_seconds_ = 0.0;
    int64_t total_bytes_ = 0;
    int64_t num_transfers_ = 0;
    int64_t failed_attempts_ = 0;
    int64_t saved_bytes_ = 0;
};

} // namespace betty

#endif // BETTY_MEMORY_TRANSFER_MODEL_H
