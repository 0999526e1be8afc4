#include "util/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/perf/flight_recorder.h"
#include "obs/trace.h"
#include "util/env_config.h"
#include "util/logging.h"

namespace betty {

namespace {

/** BETTY_THREADS environment default (1 = serial when unset). */
int32_t
defaultGlobalThreads()
{
    return envcfg::threads();
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

} // namespace

ThreadPool::ThreadPool(int32_t num_threads)
    : num_threads_(std::max<int32_t>(1, num_threads))
{
    const size_t workers = size_t(num_threads_ - 1);
    queues_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        shutdown_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    if (obs::Metrics::enabled()) {
        static obs::Counter& tasks =
            obs::Metrics::counter("pool.tasks");
        tasks.increment();
    }
    if (queues_.empty()) {
        // No workers: run inline so threads=1 keeps serial ordering.
        task();
        return;
    }
    if (obs::Trace::enabled()) {
        // Wrap the task in its span here (not in workerLoop) so the
        // spawn flow edge can capture the submitting span and the
        // submission time — the dependency critpath analysis follows
        // from a worker-lane task back to the code that queued it.
        const uint64_t parent = obs::Trace::currentSpanId();
        const char* category = obs::Trace::currentSpanCategory();
        const int64_t spawn_ts = obs::Trace::nowUs();
        task = [inner = std::move(task), parent, category,
                spawn_ts] {
            uint64_t id = 0;
            {
                // The task inherits the submitter's category: a chunk
                // of sampling is still sampling, wherever it ran.
                obs::TraceSpan span("pool/task", category);
                id = span.id();
                inner();
            }
            // Only now is the span in the trace: an edge recorded
            // while it was open would dangle in any snapshot taken
            // before it closed.
            obs::Trace::recordFlow(parent, id, spawn_ts);
        };
    }
    const size_t target =
        size_t(next_queue_.fetch_add(1, std::memory_order_relaxed)) %
        queues_.size();
    {
        std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    {
        // The increment must be ordered with the workers' predicate
        // check (which runs under wake_mutex_): bumping pending_
        // outside the lock lets a worker read pending_ == 0, then miss
        // the notify below while it is still entering wait() — the
        // task would strand until the next enqueue. Mirrors ~ThreadPool.
        std::lock_guard<std::mutex> lock(wake_mutex_);
        pending_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_one();
}

bool
ThreadPool::tryPop(size_t index, std::function<void()>& task)
{
    // Own queue first (front), then steal from the back of the others.
    {
        WorkerQueue& own = *queues_[index];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.front());
            own.tasks.pop_front();
            return true;
        }
    }
    for (size_t offset = 1; offset < queues_.size(); ++offset) {
        WorkerQueue& victim =
            *queues_[(index + offset) % queues_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            task = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            if (obs::Metrics::enabled()) {
                static obs::Counter& steals =
                    obs::Metrics::counter("pool.steals");
                steals.increment();
            }
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(size_t index)
{
    // A fixed lane per worker, taken before anything is recorded:
    // lane ids must not depend on which thread starts first.
    const int32_t worker = int32_t(index) + 1;
    obs::Trace::setLane(obs::Trace::kPoolWorkerLaneBase + worker,
                        "pool/worker-" + std::to_string(worker));
    while (true) {
        std::function<void()> task;
        if (tryPop(index, task)) {
            pending_.fetch_sub(1, std::memory_order_acq_rel);
            task();
            continue;
        }
        if (obs::Metrics::enabled()) {
            static obs::Counter& stalls =
                obs::Metrics::counter("pool.stalls");
            stalls.increment();
        }
        const int64_t idle_from = obs::Trace::nowUs();
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_.wait(lock, [this] {
            return shutdown_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        // Flight-record only waits long enough to matter (>= 10ms):
        // per-wave wake/sleep churn would flood the ring, a worker
        // starved between phases is the story the black box wants.
        const int64_t idle_us = obs::Trace::nowUs() - idle_from;
        if (idle_us >= 10000 &&
            !shutdown_.load(std::memory_order_acquire))
            obs::FlightRecorder::record(obs::FrCategory::Pool,
                                        "pool/stall",
                                        int64_t(index), idle_us);
        if (shutdown_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0)
            return;
    }
}

void
ThreadPool::runChunks(const std::shared_ptr<ForState>& state)
{
    while (true) {
        const int64_t chunk =
            state->nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= state->numChunks)
            return;
        if (!state->cancelled.load(std::memory_order_acquire)) {
            const int64_t lo = state->begin + chunk * state->grain;
            const int64_t hi =
                std::min(lo + state->grain, state->end);
            uint64_t span_id = 0;
            try {
                obs::TraceSpan span("pool/chunk",
                                    state->traceCategory);
                span_id = span.id();
                (*state->body)(lo, hi);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->exception)
                    state->exception = std::current_exception();
                state->cancelled.store(true,
                                       std::memory_order_release);
            }
            // The spawn edge follows its span into the trace (see
            // enqueue).
            if (span_id != 0) {
                obs::Trace::recordFlow(state->callerSpan, span_id,
                                       state->spawnTsUs);
                std::lock_guard<std::mutex> lock(state->mutex);
                state->chunkSpans.push_back(span_id);
            }
        }
        const int64_t done =
            state->doneChunks.fetch_add(1,
                                        std::memory_order_acq_rel) +
            1;
        if (done == state->numChunks) {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->done.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body)
{
    if (end <= begin)
        return;
    grain = std::max<int64_t>(1, grain);
    const int64_t num_chunks = (end - begin + grain - 1) / grain;

    if (obs::Metrics::enabled()) {
        static obs::Counter& calls =
            obs::Metrics::counter("pool.parallel_fors");
        static obs::Counter& chunks =
            obs::Metrics::counter("pool.chunks");
        calls.increment();
        chunks.add(num_chunks);
    }

    // Chunk boundaries are identical on every path below (they depend
    // only on begin/end/grain), so the serial fallback, the caller
    // lane, and every worker produce the same per-chunk ranges.
    if (queues_.empty() || num_chunks == 1) {
        for (int64_t lo = begin; lo < end; lo += grain)
            body(lo, std::min(lo + grain, end));
        return;
    }

    auto state = std::make_shared<ForState>();
    state->begin = begin;
    state->end = end;
    state->grain = grain;
    state->numChunks = num_chunks;
    state->body = &body;
    if (obs::Trace::enabled()) {
        state->callerSpan = obs::Trace::currentSpanId();
        state->traceCategory = obs::Trace::currentSpanCategory();
        state->spawnTsUs = obs::Trace::nowUs();
    }

    const int64_t helpers =
        std::min<int64_t>(int64_t(workers_.size()), num_chunks - 1);
    for (int64_t h = 0; h < helpers; ++h)
        enqueue([state] { runChunks(state); });

    runChunks(state); // the caller is a full participant (nesting-safe)

    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock, [&state] {
            return state->doneChunks.load(
                       std::memory_order_acquire) ==
                   state->numChunks;
        });
        if (state->exception)
            std::rethrow_exception(state->exception);
    }

    // Join edges: the caller could not proceed past this point until
    // every chunk finished.
    if (state->callerSpan != 0 && obs::Trace::enabled()) {
        const int64_t join_ts = obs::Trace::nowUs();
        std::lock_guard<std::mutex> lock(state->mutex);
        for (uint64_t chunk : state->chunkSpans)
            obs::Trace::recordFlow(chunk, state->callerSpan,
                                   join_ts);
    }
}

ThreadPool&
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(defaultGlobalThreads());
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(int32_t num_threads)
{
    auto fresh =
        std::make_unique<ThreadPool>(std::max<int32_t>(1, num_threads));
    std::unique_ptr<ThreadPool> old;
    {
        std::lock_guard<std::mutex> lock(g_pool_mutex);
        old = std::move(g_pool);
        g_pool = std::move(fresh);
    }
    // `old` drains and joins here, after g_pool_mutex is released: a
    // drained task calling ThreadPool::global()/globalThreads() would
    // otherwise self-deadlock on the mutex.
}

int32_t
ThreadPool::globalThreads()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    return g_pool ? g_pool->numThreads() : defaultGlobalThreads();
}

} // namespace betty
