#ifndef CDPD_COMMON_RESOURCE_TRACKER_H_
#define CDPD_COMMON_RESOURCE_TRACKER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/metrics.h"

namespace cdpd {

/// The big allocation classes of the design solvers, each tracked as
/// its own current/peak byte gauge. The paper's algorithms are
/// space-bound — the k-aware DP costs O(k n 2^{2m}) table entries and
/// the path ranking's enumeration state is worst-case exponential — so
/// the tracker names exactly those structures.
enum class MemComponent : int {
  kCostMatrix = 0,     // What-if dense EXEC/TRANS tables.
  kKAwareTable,        // k-aware DP dist/next/parent layers.
  kSequenceGraph,      // Unset-k (plain sequence graph) DP table.
  kRankingQueue,       // Path ranker per-node state and path heaps.
  kCandidates,         // GREEDY-SEQ reduced candidate set.
  kMergingTable,       // Design-merging penalty tables.
};
inline constexpr int kNumMemComponents = 6;

/// Stable short name ("cost_matrix", "kaware_table", ...), used as the
/// metrics suffix and the JSON key.
std::string_view MemComponentName(MemComponent component);

/// Thread-safe per-component current/peak byte accounting with an
/// optional soft limit, shared by one solve's phases. All counters are
/// relaxed atomics: the tracker is statistics plus a cooperative
/// budget flag, never synchronization.
///
/// Two accounting styles feed it:
///  * explicit Reserve/Release (or the RAII ScopedReservation) around
///    allocations whose size is known up front — the DP tables, the
///    dense cost matrix, the merging penalty tables;
///  * TrackingAllocator, a counting std::allocator adapter, for
///    containers that grow unpredictably — the path-ranking queue.
///
/// The limit is *soft*: TryReserve refuses a reservation that would
/// pass it (charging nothing), and any Reserve that lands past the
/// limit trips limit_exceeded(). A Budget holding the tracker then
/// reports Expired() at the solvers' existing poll sites, so an
/// over-budget solve degrades through the same anytime machinery as a
/// deadline — it never overshoots by more than the one block that
/// tripped the flag.
class ResourceTracker {
 public:
  /// No limit: pure accounting.
  ResourceTracker() = default;
  /// Soft byte budget; <= 0 means no limit.
  explicit ResourceTracker(int64_t limit_bytes)
      : limit_bytes_(limit_bytes > 0 ? limit_bytes : 0) {}
  ResourceTracker(const ResourceTracker&) = delete;
  ResourceTracker& operator=(const ResourceTracker&) = delete;

  /// Unconditionally charges `bytes` (the allocation happens whether
  /// or not we are over budget — e.g. a container growth already in
  /// flight). Trips the limit flag when the new total passes the
  /// limit. Safe from any thread; bytes must be >= 0.
  void Reserve(MemComponent component, int64_t bytes);

  /// Returns the charge of a prior Reserve. Never un-trips the limit
  /// flag: expiry is monotone, like a deadline.
  void Release(MemComponent component, int64_t bytes);

  /// Pre-allocation gate: charges and returns true when the new total
  /// stays within the limit; otherwise charges *nothing*, trips the
  /// limit flag, and returns false (the caller skips the allocation
  /// and degrades). Always succeeds when no limit is set.
  bool TryReserve(MemComponent component, int64_t bytes);

  int64_t current_bytes(MemComponent component) const {
    return Cell(component).current.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes(MemComponent component) const {
    return Cell(component).peak.load(std::memory_order_relaxed);
  }
  /// Sum over components, tracked as its own gauge so the peak is the
  /// true high-water mark of concurrent reservations, not the sum of
  /// per-component peaks.
  int64_t current_total() const {
    return total_current_.load(std::memory_order_relaxed);
  }
  int64_t peak_total() const {
    return total_peak_.load(std::memory_order_relaxed);
  }

  /// The configured soft budget; 0 = unlimited.
  int64_t limit_bytes() const { return limit_bytes_; }

  /// True once any reservation met the limit. Monotone, relaxed —
  /// cheap enough for the solvers' per-block budget polls.
  bool limit_exceeded() const {
    return limit_exceeded_.load(std::memory_order_relaxed);
  }

  /// Mirrors the tracker into `registry`: per-component
  /// "mem.<component>.peak_bytes" gauges (UpdateMax), the
  /// "mem.peak_bytes_total" gauge, and the "mem.limit_exceeded"
  /// counter. No-op when `registry` is null.
  void PublishTo(MetricsRegistry* registry) const;

 private:
  struct Cell64 {
    std::atomic<int64_t> current{0};
    std::atomic<int64_t> peak{0};
  };
  static void RaiseMax(std::atomic<int64_t>* peak, int64_t value) {
    int64_t seen = peak->load(std::memory_order_relaxed);
    while (value > seen &&
           !peak->compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }
  Cell64& Cell(MemComponent component) {
    return components_[static_cast<size_t>(component)];
  }
  const Cell64& Cell(MemComponent component) const {
    return components_[static_cast<size_t>(component)];
  }

  std::array<Cell64, kNumMemComponents> components_;
  std::atomic<int64_t> total_current_{0};
  std::atomic<int64_t> total_peak_{0};
  int64_t limit_bytes_ = 0;  // 0 = no limit.
  std::atomic<bool> limit_exceeded_{false};
};

/// RAII charge against a tracker. The default-constructed / null-
/// tracker reservation is a no-op that reports ok() — the disabled
/// path of an untracked solve costs one pointer test, the same
/// contract as the other observability sinks.
class ScopedReservation {
 public:
  ScopedReservation() = default;
  /// Unconditional charge (see ResourceTracker::Reserve).
  ScopedReservation(ResourceTracker* tracker, MemComponent component,
                    int64_t bytes)
      : tracker_(tracker), component_(component), bytes_(bytes), ok_(true) {
    if (tracker_ != nullptr) tracker_->Reserve(component_, bytes_);
  }
  /// Gated charge: ok() is false — and nothing is charged — when the
  /// tracker's limit refused the reservation.
  static ScopedReservation Try(ResourceTracker* tracker,
                               MemComponent component, int64_t bytes) {
    ScopedReservation r;
    r.component_ = component;
    r.bytes_ = bytes;
    if (tracker == nullptr || tracker->TryReserve(component, bytes)) {
      r.tracker_ = tracker;
      r.ok_ = true;
    } else {
      // Refused: nothing was charged, so nothing must be released —
      // tracker_ stays null and the destructor is a no-op.
      r.bytes_ = 0;
      r.ok_ = false;
    }
    return r;
  }

  ScopedReservation(ScopedReservation&& other) noexcept { *this = std::move(other); }
  ScopedReservation& operator=(ScopedReservation&& other) noexcept {
    if (this != &other) {
      ReleaseNow();
      tracker_ = other.tracker_;
      component_ = other.component_;
      bytes_ = other.bytes_;
      ok_ = other.ok_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;

  ~ScopedReservation() { ReleaseNow(); }

  /// False only for a Try() the limit refused.
  bool ok() const { return ok_; }
  int64_t bytes() const { return bytes_; }

 private:
  void ReleaseNow() {
    if (tracker_ != nullptr && bytes_ > 0) {
      tracker_->Release(component_, bytes_);
    }
    tracker_ = nullptr;
    bytes_ = 0;
  }

  ResourceTracker* tracker_ = nullptr;
  MemComponent component_ = MemComponent::kCostMatrix;
  int64_t bytes_ = 0;
  bool ok_ = true;  // A default/null reservation is a successful no-op.
};

/// Counting std::allocator adapter: every allocate/deallocate is
/// mirrored into the tracker under `Component`, so containers that grow
/// unpredictably (the ranking queue) are charged at their true
/// allocated size. The component is part of the type, so the allocator
/// a container stores is one pointer. The default-constructed allocator
/// (null tracker) counts nothing.
template <typename T, MemComponent Component>
class TrackingAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  template <typename U>
  struct rebind {
    using other = TrackingAllocator<U, Component>;
  };

  TrackingAllocator() = default;
  explicit TrackingAllocator(ResourceTracker* tracker) : tracker_(tracker) {}
  template <typename U>
  TrackingAllocator(  // NOLINT(runtime/explicit)
      const TrackingAllocator<U, Component>& other)
      : tracker_(other.tracker()) {}

  T* allocate(size_t n) {
    T* p = std::allocator<T>().allocate(n);
    if (tracker_ != nullptr) {
      tracker_->Reserve(Component, static_cast<int64_t>(n * sizeof(T)));
    }
    return p;
  }
  void deallocate(T* p, size_t n) {
    if (tracker_ != nullptr) {
      tracker_->Release(Component, static_cast<int64_t>(n * sizeof(T)));
    }
    std::allocator<T>().deallocate(p, n);
  }

  ResourceTracker* tracker() const { return tracker_; }

  template <typename U>
  bool operator==(const TrackingAllocator<U, Component>& other) const {
    return tracker_ == other.tracker();
  }

 private:
  ResourceTracker* tracker_ = nullptr;
};

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID),
/// in microseconds; 0 where the platform offers no thread clock.
/// TraceSpan pairs this with its wall clock so a span shows both.
int64_t ThreadCpuTimeMicros();

/// CPU time consumed by the whole process (CLOCK_PROCESS_CPUTIME_ID),
/// in microseconds — covers the worker pool, which a thread clock
/// misses; 0 where unavailable. SolveStats::cpu_seconds is a delta of
/// this across one solve.
int64_t ProcessCpuTimeMicros();

/// Current resident-set size from /proc/self/statm, in bytes; 0 where
/// unavailable (non-Linux).
int64_t CurrentRssBytes();

/// Lifetime peak resident-set size (getrusage ru_maxrss), in bytes; 0
/// where unavailable. Kernel-maintained, so it sees every allocation —
/// including ones the ResourceTracker does not meter. BenchReport
/// records it per artifact (schema v2 "rss_peak_bytes").
int64_t PeakRssBytes();

/// Samples the process's memory into `registry`: "process.rss_bytes"
/// (last sample) and "process.rss_peak_bytes" (running maximum)
/// gauges. No-op when `registry` is null or RSS is unavailable.
void SampleProcessMemory(MetricsRegistry* registry);

}  // namespace cdpd

#endif  // CDPD_COMMON_RESOURCE_TRACKER_H_
