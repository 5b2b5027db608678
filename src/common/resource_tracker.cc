#include "common/resource_tracker.h"

#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>  // NOLINT(build/include_order): clock_gettime.
#endif
#if defined(__linux__)
#include <unistd.h>

#include <cstdio>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>  // NOLINT(build/include_order): getrusage.
#endif

namespace cdpd {

std::string_view MemComponentName(MemComponent component) {
  switch (component) {
    case MemComponent::kCostMatrix:
      return "cost_matrix";
    case MemComponent::kKAwareTable:
      return "kaware_table";
    case MemComponent::kSequenceGraph:
      return "sequence_graph";
    case MemComponent::kRankingQueue:
      return "ranking_queue";
    case MemComponent::kCandidates:
      return "candidates";
    case MemComponent::kMergingTable:
      return "merging_table";
  }
  return "unknown";
}

void ResourceTracker::Reserve(MemComponent component, int64_t bytes) {
  if (bytes <= 0) return;
  Cell64& cell = Cell(component);
  const int64_t component_now =
      cell.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  RaiseMax(&cell.peak, component_now);
  const int64_t total_now =
      total_current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  RaiseMax(&total_peak_, total_now);
  if (limit_bytes_ > 0 && total_now > limit_bytes_) {
    limit_exceeded_.store(true, std::memory_order_relaxed);
  }
}

void ResourceTracker::Release(MemComponent component, int64_t bytes) {
  if (bytes <= 0) return;
  Cell(component).current.fetch_sub(bytes, std::memory_order_relaxed);
  total_current_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool ResourceTracker::TryReserve(MemComponent component, int64_t bytes) {
  if (limit_bytes_ > 0) {
    // The gate is advisory (two threads may both pass and overshoot by
    // one block each); the unconditional Reserve below re-checks the
    // landed total, so the flag still trips.
    const int64_t prospective =
        total_current_.load(std::memory_order_relaxed) + bytes;
    if (prospective > limit_bytes_ || limit_exceeded()) {
      limit_exceeded_.store(true, std::memory_order_relaxed);
      return false;
    }
  }
  Reserve(component, bytes);
  return true;
}

void ResourceTracker::PublishTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  for (int i = 0; i < kNumMemComponents; ++i) {
    const auto component = static_cast<MemComponent>(i);
    const int64_t peak = peak_bytes(component);
    if (peak == 0) continue;
    registry
        ->gauge("mem." + std::string(MemComponentName(component)) +
                ".peak_bytes")
        ->UpdateMax(peak);
  }
  registry->gauge("mem.peak_bytes_total")->UpdateMax(peak_total());
  registry->counter("mem.limit_exceeded")->Add(limit_exceeded() ? 1 : 0);
}

namespace {

#if defined(__unix__) || defined(__APPLE__)
int64_t ClockMicros(clockid_t clock) {
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<int64_t>(ts.tv_nsec) / 1'000;
}
#endif

}  // namespace

int64_t ThreadCpuTimeMicros() {
#if (defined(__unix__) || defined(__APPLE__)) && \
    defined(CLOCK_THREAD_CPUTIME_ID)
  return ClockMicros(CLOCK_THREAD_CPUTIME_ID);
#else
  return 0;
#endif
}

int64_t ProcessCpuTimeMicros() {
#if (defined(__unix__) || defined(__APPLE__)) && \
    defined(CLOCK_PROCESS_CPUTIME_ID)
  return ClockMicros(CLOCK_PROCESS_CPUTIME_ID);
#else
  return 0;
#endif
}

int64_t CurrentRssBytes() {
#if defined(__linux__)
  // statm field 2 is the resident page count; no allocation, safe to
  // call from instrumentation paths.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long vm_pages = 0;
  long long rss_pages = 0;
  const int matched = std::fscanf(f, "%lld %lld", &vm_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<int64_t>(rss_pages) *
         static_cast<int64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss);  // Bytes on macOS.
#else
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux.
#endif
#else
  return 0;
#endif
}

void SampleProcessMemory(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const int64_t rss = CurrentRssBytes();
  if (rss <= 0) return;
  registry->gauge("process.rss_bytes")->Set(rss);
  registry->gauge("process.rss_peak_bytes")->UpdateMax(rss);
}

}  // namespace cdpd
