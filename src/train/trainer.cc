#include "train/trainer.h"

#include <future>
#include <optional>
#include <string>

#include "cache/feature_cache.h"
#include "kernels/kernels.h"
#include "memory/estimator.h"
#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "robustness/retry.h"
#include "tensor/autograd.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace betty {

namespace {

int64_t
batchNodeCount(const MultiLayerBatch& batch)
{
    int64_t total = 0;
    for (const auto& block : batch.blocks)
        total += block.numSrc();
    return total;
}

/** Host-side label bytes charged to the device per batch (item (3)). */
int64_t
labelBytes(const MultiLayerBatch& batch)
{
    return int64_t(batch.outputNodes().size()) *
           int64_t(sizeof(int32_t));
}

/** Per-micro-batch wall-time histogram (1ms .. ~16s buckets). */
obs::Histogram&
microBatchSecondsHistogram()
{
    static obs::Histogram& histogram = obs::Metrics::histogram(
        "trainer.microbatch_seconds",
        {0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128,
         0.256, 0.512, 1.0, 2.0, 4.0, 8.0, 16.0});
    return histogram;
}

/** A micro-batch's gathered feature rows on their way to the device. */
struct StagedFeatures
{
    std::vector<float> rows;
    /** Id of the "train/prefetch" span that gathered the rows (0 when
     * gathered inline): the source of the pipeline handoff edge. */
    uint64_t traceSpanId = 0;
};

} // namespace

Trainer::Trainer(const Dataset& dataset, GnnModel& model,
                 Optimizer& optimizer, DeviceMemoryModel* device,
                 TransferModel* transfer)
    : dataset_(dataset), model_(model), optimizer_(optimizer),
      own_{device, transfer}
{
}

std::vector<float>
Trainer::gather(const MultiLayerBatch& batch, int32_t trace_device) const
{
    std::optional<obs::TraceLaneScope> lane;
    if (trace_device >= 0 && obs::Trace::enabled())
        lane.emplace(1000 + trace_device,
                     "device" + std::to_string(trace_device));
    BETTY_TRACE_SPAN_CAT("train/gather", "gather");
    const auto& inputs = batch.inputNodes();
    const int64_t dim = dataset_.featureDim();
    std::vector<float> rows(inputs.size() * size_t(dim));
    if (!rows.empty())
        kernels::gatherRows(dataset_.features.data(),
                            dataset_.numNodes(), dim, inputs.data(),
                            int64_t(inputs.size()), rows.data());
    return rows;
}

void
Trainer::chargeTransfer(const TrainDevice& device,
                        const MultiLayerBatch& batch,
                        int64_t micro_batch) const
{
    BETTY_TRACE_SPAN_CAT("train/transfer", "transfer");
    const auto& inputs = batch.inputNodes();
    const int64_t row_bytes =
        dataset_.featureDim() * int64_t(sizeof(float));
    // Rows already resident on the device do not cross the link
    // again. The gather still read EVERY row from the host dataset,
    // so feature values — and with them all numerics — are identical
    // with or without a cache; only the transfer charge shrinks.
    int64_t feature_bytes = int64_t(inputs.size()) * row_bytes;
    if (device.cache) {
        const FeatureCache::AccessResult cached =
            device.cache->access(inputs);
        feature_bytes = cached.misses * row_bytes;
        if (device.link)
            device.link->noteSavedBytes(cached.bytesSaved);
    }
    if (device.link) {
        // Retry protocol (robustness/retry.h): scheduled
        // transfer-fail events and probabilistic transfer-flaky
        // draws are drained with bounded exponential backoff, each
        // failed attempt paying link latency + backoff as simulated
        // time, keyed to the batch's logical position.
        robustness::runTransferRetries(*device.link, micro_batch);
        device.link->transfer(feature_bytes + batch.structureBytes());
    }
}

ag::NodePtr
Trainer::inputFeatures(const MultiLayerBatch& batch,
                       std::vector<float> rows) const
{
    obs::MemCategoryScope mem_scope(obs::MemCategory::InputFeatures);
    return ag::constant(Tensor::adopt(int64_t(batch.inputNodes().size()),
                                      dataset_.featureDim(),
                                      std::move(rows)));
}

std::vector<int32_t>
Trainer::loadLabels(const MultiLayerBatch& batch) const
{
    const auto outputs = batch.outputNodes();
    std::vector<int32_t> labels;
    labels.reserve(outputs.size());
    for (int64_t node : outputs)
        labels.push_back(dataset_.labels[size_t(node)]);
    return labels;
}

Trainer::ForwardResult
Trainer::forward(const MultiLayerBatch& batch, std::vector<float> rows)
{
    ForwardResult result;
    const auto features = inputFeatures(batch, std::move(rows));
    ag::NodePtr logits;
    {
        BETTY_TRACE_SPAN_CAT("train/forward", "compute");
        // Ambient category for layer outputs (item (5)); layers
        // override with Aggregator for their aggregation chains.
        obs::MemCategoryScope mem_scope(obs::MemCategory::Hidden);
        logits = model_.forward(batch, features);
    }
    BETTY_TRACE_SPAN_CAT("train/loss", "compute");
    auto labels = loadLabels(batch);
    result.correct = ag::countCorrect(logits->value, labels);
    result.outputs = int64_t(labels.size());
    result.loss = ag::softmaxCrossEntropy(logits, std::move(labels));
    return result;
}

EpochStats
Trainer::trainMicroBatches(
    const std::vector<MultiLayerBatch>& micro_batches)
{
    BETTY_TRACE_SPAN("train/accumulation_step");
    DeviceMemoryModel* device = own_.memory;
    if (device)
        device->resetPeak();
    const int64_t oom_episodes_before =
        device ? device->oomEpisodeCount() : 0;

    std::vector<TrainDevice> devices = {own_};
    EpochStats stats = accumulateMicroBatches(
        micro_batches, devices,
        std::vector<int32_t>(micro_batches.size(), 0));
    if (!stats.aborted) {
        BETTY_TRACE_SPAN_CAT("train/step", "compute");
        Timer timer;
        optimizer_.step();
        stats.computeSeconds += timer.seconds();
    }

    if (own_.link) {
        stats.transferSeconds = own_.link->seconds();
        own_.link->reset();
    }
    if (device) {
        stats.peakBytes = device->peakBytes();
        stats.oom = device->oomOccurred();
        stats.oomEvents =
            device->oomEpisodeCount() - oom_episodes_before;
        if (stats.oom)
            warnOnce("device budget exceeded during micro-batch "
                     "training (worst overshoot ",
                     device->worstOvershoot(),
                     " bytes); reporting once — see the "
                     "device.oom_events metric for the full count");
    }
    return stats;
}

EpochStats
Trainer::accumulateMicroBatches(
    const std::vector<MultiLayerBatch>& micro_batches,
    std::vector<TrainDevice>& devices, const std::vector<int32_t>& owner)
{
    EpochStats stats;
    int64_t total_outputs = 0;
    std::vector<size_t> active;
    active.reserve(micro_batches.size());
    for (size_t i = 0; i < micro_batches.size(); ++i) {
        const size_t outputs = micro_batches[i].outputNodes().size();
        total_outputs += int64_t(outputs);
        if (outputs > 0)
            active.push_back(i);
    }
    BETTY_ASSERT(total_outputs > 0, "no output nodes to train on");

    // Pipelined schedule: while micro-batch k computes on this
    // thread, a pool worker gathers micro-batch k+1's feature rows
    // into a host buffer ("transfer of k+1 while k's activations are
    // live"). One gather is in flight at a time, so at most two
    // buffers are live. The gather charges nothing: the cache lookup,
    // the link and every device allocation happen below, on this
    // thread, in serial order — every stat and every counter is
    // bit-identical to the serial schedule.
    const bool pipelined = pipeline_ &&
                           ThreadPool::globalThreads() > 1 &&
                           active.size() > 1;
    auto trace_device = [&](size_t index) {
        return devices.size() > 1 ? owner[index] : -1;
    };
    auto prefetch = [&](size_t index) {
        const MultiLayerBatch* next = &micro_batches[index];
        return ThreadPool::global().submit(
            [this, next, lane = trace_device(index)] {
                obs::TraceSpan span("train/prefetch");
                StagedFeatures staged{gather(*next, lane)};
                staged.traceSpanId = span.id();
                return staged;
            });
    };

    optimizer_.zeroGrad();
    int64_t correct = 0;
    std::future<StagedFeatures> staged_next;
    // If the loop unwinds with a prefetch still queued or running, the
    // pool worker would keep touching *next (in micro_batches) after
    // this frame is gone — a packaged_task future's destructor does
    // not wait. Join it before propagating.
    struct PrefetchJoiner
    {
        std::future<StagedFeatures>& staged;
        ~PrefetchJoiner()
        {
            if (staged.valid()) {
                try {
                    staged.get();
                } catch (...) {
                }
            }
        }
    } prefetch_joiner{staged_next};
    if (pipelined)
        staged_next = prefetch(active.front());
    uint64_t prev_micro_span = 0;
    for (size_t pos = 0; pos < active.size(); ++pos) {
        const size_t index = active[pos];
        const MultiLayerBatch& batch = micro_batches[index];
        obs::TraceSpan micro_span("train/micro_batch");
        // Ordering edge: gradient accumulation serializes the
        // micro-batches of an epoch on this thread.
        obs::Trace::recordFlow(prev_micro_span, micro_span.id());
        prev_micro_span = micro_span.id();
        // Admission: the resilient runtime vetoes a micro-batch that
        // no longer fits the (possibly shrunken) budget BEFORE any
        // device charge, turning a would-be OOM into a clean abort;
        // the multi-device engine moves its fault clock here.
        if (arbiter_ && !arbiter_->admit(index, batch)) {
            stats.aborted = true;
            stats.abortedMicroBatch = int64_t(index);
            break;
        }
        BETTY_ASSERT(owner[index] >= 0 &&
                         size_t(owner[index]) < devices.size(),
                     "micro-batch ", index, " has no device");
        TrainDevice& device = devices[size_t(owner[index])];
        stats.inputNodesProcessed += int64_t(batch.inputNodes().size());
        stats.totalNodesProcessed += batchNodeCount(batch);

        const int64_t structure_bytes = batch.structureBytes();
        const int64_t label_bytes = labelBytes(batch);
        if (device.memory) {
            device.memory->resetWindow();
            device.memory->onAlloc(structure_bytes,
                                   obs::MemCategory::Blocks);
            device.memory->onAlloc(label_bytes,
                                   obs::MemCategory::Labels);
        }
        StagedFeatures staged;
        if (pipelined) {
            {
                // Time blocked on the prefetch(k) handoff is the
                // pipeline stall the critpath analysis calls out.
                BETTY_TRACE_SPAN_CAT("train/pipeline_wait", "stall");
                staged = staged_next.get();
            }
            if (pos + 1 < active.size())
                staged_next = prefetch(active[pos + 1]);
        } else {
            staged.rows = gather(batch, trace_device(index));
        }
        obs::Trace::recordFlow(staged.traceSpanId, micro_span.id());
        chargeTransfer(device, batch, int64_t(index));
        {
            // All forward/backward temporaries of this micro-batch
            // bump-allocate from the trainer's arena; the scope closes
            // when the graph (fwd) is released, so the reset() below
            // reclaims them wholesale. The prefetch worker is
            // unaffected — the scope is thread-local.
            kernels::ArenaScope arena_scope(arena_);
            Timer timer;
            ForwardResult fwd = forward(batch, std::move(staged.rows));
            // Weight each micro-batch's mean loss by its output share:
            // the accumulated gradient is then identical to the full
            // batch's mean-loss gradient (paper §4.2.3).
            const float weight =
                float(double(fwd.outputs) / double(total_outputs));
            {
                BETTY_TRACE_SPAN_CAT("train/backward", "compute");
                // Catches gradient temporaries allocated outside
                // Node::ensureGrad (item (7)).
                obs::MemCategoryScope mem_scope(
                    obs::MemCategory::Gradients);
                ag::backward(ag::scale(fwd.loss, weight));
            }
            const double seconds = timer.seconds();
            stats.computeSeconds += seconds;
            device.computeSeconds += seconds;
            microBatchSecondsHistogram().observe(seconds);
            stats.loss += double(fwd.loss->value.at(0, 0)) *
                          double(weight);
            correct += fwd.correct;
            // fwd's graph (all intermediate activations) is released
            // here — only parameter gradients persist, matching the
            // paper's "only the gradients are stored" (§4.2.3).
        }
        arena_.reset();
        if (device.memory) {
            device.memory->onFree(structure_bytes,
                                  obs::MemCategory::Blocks);
            device.memory->onFree(label_bytes, obs::MemCategory::Labels);
            if (obs::Metrics::enabled()) {
                // Estimator-residual telemetry: what the planner's
                // model predicted for this micro-batch vs. what the
                // device actually reached (paper §4.4, Table 3) —
                // in total and per component.
                const MemoryEstimate predicted = estimateBatchMemory(
                    batch, model_.memorySpec());
                const int64_t actual = device.memory->windowPeakBytes();
                obs::residuals().record(predicted.peak, actual);
                obs::MicroBatchMemRecord record;
                record.actualTotalPeak = actual;
                record.predictedTotalPeak = predicted.peak;
                for (size_t c = 0; c < obs::kMemCategoryCount; ++c) {
                    const auto category = obs::MemCategory(c);
                    record.actualPeak[c] =
                        device.memory->windowPeakBytes(category);
                    record.predicted[c] =
                        componentBytes(predicted, category);
                }
                obs::memProfiler().record(record);
            }
        }
        // Review: the resilient runtime inspects what the micro-batch
        // actually did (window peak vs. the new budget) and may still
        // abort the step after the fact.
        if (arbiter_ && !arbiter_->review(index, batch)) {
            stats.aborted = true;
            stats.abortedMicroBatch = int64_t(index);
            break;
        }
    }

    if (stats.aborted) {
        // Deterministic rollback: all K micro-batches accumulate into
        // the SAME parameter gradients and nothing else mutates until
        // the final step() (paper §4.2.3), so zeroing the gradients
        // restores the exact pre-call training state — parameters,
        // Adam moments, and step count are untouched. The caller can
        // re-plan and retry as if this attempt never happened.
        optimizer_.zeroGrad();
    }
    stats.accuracy = double(correct) / double(total_outputs);
    return stats;
}

EpochStats
Trainer::trainMiniBatches(const std::vector<MultiLayerBatch>& batches)
{
    BETTY_TRACE_SPAN("train/mini_batch_epoch");
    EpochStats stats;
    DeviceMemoryModel* device = own_.memory;
    if (device)
        device->resetPeak();
    const int64_t oom_episodes_before =
        device ? device->oomEpisodeCount() : 0;

    int64_t total_outputs = 0;
    int64_t correct = 0;
    double loss_sum = 0.0;
    for (const auto& batch : batches) {
        const int64_t outputs = int64_t(batch.outputNodes().size());
        if (outputs == 0)
            continue;
        stats.inputNodesProcessed += int64_t(batch.inputNodes().size());
        stats.totalNodesProcessed += batchNodeCount(batch);
        total_outputs += outputs;

        const int64_t structure_bytes = batch.structureBytes();
        const int64_t label_bytes = labelBytes(batch);
        if (device) {
            device->onAlloc(structure_bytes, obs::MemCategory::Blocks);
            device->onAlloc(label_bytes, obs::MemCategory::Labels);
        }
        {
            BETTY_TRACE_SPAN("train/micro_batch");
            // step() runs inside the scope, but optimizer state and
            // parameter gradients are arena-suspended at allocation —
            // only the graph temporaries land in the arena.
            kernels::ArenaScope arena_scope(arena_);
            Timer timer;
            optimizer_.zeroGrad();
            // Mini-batch mode has no micro-batch fault clock; -1 =
            // only epoch-scoped transfer faults apply.
            chargeTransfer(own_, batch, -1);
            ForwardResult fwd = forward(batch, gather(batch, -1));
            {
                BETTY_TRACE_SPAN_CAT("train/backward", "compute");
                obs::MemCategoryScope mem_scope(
                    obs::MemCategory::Gradients);
                ag::backward(fwd.loss);
            }
            {
                BETTY_TRACE_SPAN_CAT("train/step", "compute");
                optimizer_.step();
            }
            stats.computeSeconds += timer.seconds();
            microBatchSecondsHistogram().observe(timer.seconds());
            loss_sum += double(fwd.loss->value.at(0, 0)) *
                        double(outputs);
            correct += fwd.correct;
        }
        arena_.reset();
        if (device) {
            device->onFree(structure_bytes, obs::MemCategory::Blocks);
            device->onFree(label_bytes, obs::MemCategory::Labels);
        }
    }
    BETTY_ASSERT(total_outputs > 0, "no output nodes to train on");

    stats.loss = loss_sum / double(total_outputs);
    stats.accuracy = double(correct) / double(total_outputs);
    if (own_.link) {
        stats.transferSeconds = own_.link->seconds();
        own_.link->reset();
    }
    if (device) {
        stats.peakBytes = device->peakBytes();
        stats.oom = device->oomOccurred();
        stats.oomEvents =
            device->oomEpisodeCount() - oom_episodes_before;
    }
    return stats;
}

double
Trainer::evaluate(const MultiLayerBatch& batch)
{
    BETTY_TRACE_SPAN_CAT("train/evaluate", "compute");
    double accuracy = 0.0;
    {
        kernels::ArenaScope arena_scope(arena_);
        chargeTransfer(own_, batch, -1);
        const auto features = inputFeatures(batch, gather(batch, -1));
        const auto logits = model_.forward(batch, features);
        const auto labels = loadLabels(batch);
        if (!labels.empty())
            accuracy =
                double(ag::countCorrect(logits->value, labels)) /
                double(labels.size());
    }
    arena_.reset();
    return accuracy;
}

} // namespace betty
