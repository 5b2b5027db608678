#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

namespace cdpd {

namespace {

/// Set while a thread is executing inside any pool's WorkerLoop.
thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  Logger* logger = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    logger = logger_;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  CDPD_LOG(logger, LogLevel::kInfo, "threadpool.stop",
           LogField("threads", num_threads()));
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (queue_depth_gauge_ != nullptr) {
      const auto depth = static_cast<int64_t>(queue_.size());
      queue_depth_gauge_->Set(depth);
      queue_depth_peak_gauge_->UpdateMax(depth);
    }
  }
  cv_.notify_one();
}

void ThreadPool::EnableMetrics(MetricsRegistry* registry) {
  if constexpr (!kMetricsCompiledIn) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    tasks_counter_ = nullptr;
    queue_depth_gauge_ = nullptr;
    queue_depth_peak_gauge_ = nullptr;
    worker_busy_us_.assign(workers_.size(), nullptr);
    return;
  }
  tasks_counter_ = registry->counter("threadpool.tasks");
  queue_depth_gauge_ = registry->gauge("threadpool.queue_depth");
  queue_depth_peak_gauge_ = registry->gauge("threadpool.queue_depth_peak");
  worker_busy_us_.resize(workers_.size(), nullptr);
  for (size_t i = 0; i < workers_.size(); ++i) {
    worker_busy_us_[i] = registry->counter(
        "threadpool.worker." + std::to_string(i) + ".busy_us");
  }
}

void ThreadPool::EnableLogging(Logger* logger) {
  if constexpr (!kLoggingCompiledIn) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    logger_ = logger;
  }
  CDPD_LOG(logger, LogLevel::kInfo, "threadpool.attach",
           LogField("threads", num_threads()));
}

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("CDPD_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1 && parsed <= kMaxThreads) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

bool ThreadPool::InWorkerThread() { return t_in_worker; }

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    Counter* tasks_counter = nullptr;
    Counter* busy_counter = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      tasks_counter = tasks_counter_;
      busy_counter = worker_index < worker_busy_us_.size()
                         ? worker_busy_us_[worker_index]
                         : nullptr;
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (tasks_counter == nullptr && busy_counter == nullptr) {
      task();
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    task();
    const auto busy_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (tasks_counter != nullptr) tasks_counter->Add(1);
    if (busy_counter != nullptr) busy_counter->Add(busy_us);
  }
}

bool ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 const Budget* budget) {
  if (begin >= end) return true;
  const size_t count = end - begin;
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  // Serial fallback: no pool, one worker, nothing to amortize, or a
  // nested call from inside a worker (re-entering the pool could
  // deadlock once every worker blocks on a nested wait).
  if (threads <= 1 || count == 1 || ThreadPool::InWorkerThread()) {
    for (size_t i = begin; i < end; ++i) {
      if (BudgetExpired(budget)) return false;
      fn(i);
    }
    return true;
  }

  // Shared dynamic chunking: tasks pull chunk numbers from an atomic
  // counter, so load balances whatever the per-index cost. The caller
  // participates too — completion never depends on a worker being
  // free.
  const size_t num_tasks =
      std::min(count, static_cast<size_t>(threads));
  const size_t chunk =
      std::max<size_t>(1, count / (static_cast<size_t>(threads) * 8));
  struct Shared {
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> pending{0};
    std::atomic<bool> expired{false};
    std::mutex mu;
    std::condition_variable done_cv;
    std::exception_ptr error;  // Guarded by mu (first error wins).
  };
  auto shared = std::make_shared<Shared>();
  shared->pending.store(num_tasks, std::memory_order_relaxed);

  auto run_chunks = [shared, begin, end, chunk, budget, &fn] {
    try {
      for (;;) {
        const size_t c =
            shared->next_chunk.fetch_add(1, std::memory_order_relaxed);
        const size_t lo = begin + c * chunk;
        if (lo >= end) break;
        // Budget poll between chunks: once one task sees expiry, every
        // task abandons its remaining chunks (the chunk in flight on
        // another thread still finishes). Polled only when a chunk is
        // left to run, so a budget that expires after the last chunk
        // was claimed does not mark a fully-run loop incomplete.
        if (shared->expired.load(std::memory_order_relaxed)) break;
        if (BudgetExpired(budget)) {
          shared->expired.store(true, std::memory_order_relaxed);
          break;
        }
        const size_t hi = std::min(end, lo + chunk);
        for (size_t i = lo; i < hi; ++i) fn(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(shared->mu);
      if (!shared->error) shared->error = std::current_exception();
    }
  };

  // num_tasks - 1 pool tasks; the calling thread is the last "task".
  for (size_t t = 0; t + 1 < num_tasks; ++t) {
    pool->Submit([shared, run_chunks] {
      run_chunks();
      if (shared->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->done_cv.notify_all();
      }
    });
  }
  run_chunks();
  if (shared->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->done_cv.wait(lock, [&shared] {
      return shared->pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (shared->error) std::rethrow_exception(shared->error);
  return !shared->expired.load(std::memory_order_relaxed);
}

}  // namespace cdpd
