#ifndef CDPD_COMMON_SOLVE_CONTEXT_H_
#define CDPD_COMMON_SOLVE_CONTEXT_H_

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/resource_tracker.h"
#include "common/thread_pool.h"
#include "common/tracing.h"

namespace cdpd {

/// The shared state of one solve. Solve() (core/solver.h) builds it
/// once, and every phase it runs takes it as one argument: the what-if
/// precompute, dominance pruning and each optimization method. All
/// members are optional and borrowed (they must outlive the call); a
/// default SolveContext{} runs serially, untraced, unbudgeted and
/// untracked, at one pointer test per poll or instrumentation site.
struct SolveContext {
  /// Worker pool for the parallel phases (null = serial). Results are
  /// identical for any thread count.
  ThreadPool* pool = nullptr;
  /// Receives the phases' spans.
  Tracer* tracer = nullptr;
  /// Deadline, cancellation and memory-limit expiry, polled at each
  /// phase's checkpoints (see each method's anytime fallback).
  const Budget* budget = nullptr;
  /// Invoked at the poll sites; must be thread-safe (see
  /// common/progress.h).
  const ProgressFn* progress = nullptr;
  /// Receives phase start/end, fallback and deadline events.
  Logger* logger = nullptr;
  /// Accounts the big allocations per MemComponent and carries the
  /// soft byte limit.
  ResourceTracker* tracker = nullptr;
};

}  // namespace cdpd

#endif  // CDPD_COMMON_SOLVE_CONTEXT_H_
