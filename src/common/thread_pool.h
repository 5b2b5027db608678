#ifndef CDPD_COMMON_THREAD_POOL_H_
#define CDPD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/log.h"
#include "common/metrics.h"

namespace cdpd {

/// A small fixed-size worker pool for the CPU-bound fan-out of the
/// design optimizers (what-if cost-matrix precomputation, per-stage DP
/// relaxation). Tasks are plain std::function<void()>; ParallelFor
/// below is the only entry point the solvers use.
///
/// The pool is safe to share between concurrent ParallelFor calls. A
/// ParallelFor issued *from inside a worker thread* (nested use) runs
/// inline on the calling thread instead of re-entering the pool, so
/// nesting can never deadlock.
class ThreadPool {
 public:
  /// `num_threads <= 0` resolves to DefaultThreadCount().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks must not throw out of the pool; wrap
  /// user code (ParallelFor captures exceptions and rethrows them in
  /// the caller).
  void Submit(std::function<void()> task);

  /// The most worker threads a thread-count option, flag or
  /// environment variable may ask for; a larger count is rejected as
  /// malformed instead of spawning that many threads.
  static constexpr int kMaxThreads = 1024;

  /// The thread count the CDPD_THREADS environment variable requests,
  /// or std::thread::hardware_concurrency() capped at kMaxThreads when
  /// the variable is unset or not a count in [1, kMaxThreads]. Re-read
  /// on every call so tests and long-lived processes can change it
  /// between solves.
  static int DefaultThreadCount();

  /// True when the calling thread is one of this process's pool
  /// workers (any pool); used for the inline nested-ParallelFor
  /// fallback.
  static bool InWorkerThread();

  /// Publishes pool activity into `registry` under "threadpool.*":
  /// task count, queue depth (current and peak), and per-worker busy
  /// time ("threadpool.worker.<i>.busy_us"). Pass nullptr to detach.
  /// Safe to call at any time, including while tasks are running;
  /// no-op when metrics are compiled out.
  void EnableMetrics(MetricsRegistry* registry);

  /// Attaches a structured logger: records one "threadpool.attach"
  /// event now and a "threadpool.stop" event when the pool shuts
  /// down. Pass nullptr to detach. Deliberately coarse — per-task
  /// logging would serialize the hot path. No-op when logging is
  /// compiled out.
  void EnableLogging(Logger* logger);

 private:
  void WorkerLoop(size_t worker_index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  // Metric sinks, guarded by mu_; all null until EnableMetrics.
  // Workers copy the pointers while holding mu_ during task pop, so a
  // concurrent EnableMetrics never races with instrumentation.
  Counter* tasks_counter_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* queue_depth_peak_gauge_ = nullptr;
  std::vector<Counter*> worker_busy_us_;
  // Structured-log sink, guarded by mu_; null until EnableLogging.
  Logger* logger_ = nullptr;
};

/// Runs fn(i) for every i in [begin, end), fanning contiguous chunks
/// out across `pool` and blocking until all complete. Guarantees:
///
///  * every index runs exactly once, whatever the thread count;
///  * serial fallback — pool == nullptr, a single-thread pool, a tiny
///    range, or a call from inside a worker thread all run the plain
///    loop inline, so results never depend on *where* the call is made;
///  * exceptions thrown by fn are captured and the first one is
///    rethrown in the caller after all chunks finish.
///
/// fn must be safe to call concurrently for distinct indices; writes
/// should target disjoint data (determinism is then automatic because
/// each index computes the same value regardless of scheduling).
///
/// `budget` (optional) makes the loop cooperatively interruptible:
/// expiry is polled between chunks (and per index on the serial
/// path), after which no further index runs — indices already started
/// still finish, so fn is never abandoned mid-call. Returns true when
/// every index ran, false when the budget expired first (the caller
/// must then treat un-run indices' outputs as unwritten). A null
/// budget costs one pointer test and always returns true.
bool ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 const Budget* budget = nullptr);

}  // namespace cdpd

#endif  // CDPD_COMMON_THREAD_POOL_H_
