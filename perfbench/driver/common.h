// Shared pieces of the benchmark driver: the clock, the raw-sample
// report the driver prints for run.py, an in-memory span log for the
// traced replay, workload-input generation, and the advisor_server
// child process.
#ifndef CDPD_PERFBENCH_DRIVER_COMMON_H_
#define CDPD_PERFBENCH_DRIVER_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/tracing.h"
#include "storage/schema.h"
#include "workload/statement.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Command-line arguments the driver receives from run.py.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  std::string self_bin;  // argv[0], for the offline fresh-process runs.
  bool offline_first = false;
};

/// What one driver run hands to run.py: raw samples (microseconds unless
/// the series name says otherwise), scalars, the run shape, the outcome
/// counts and the traced replay's span table. run.py computes every
/// percentile from the raw samples.
class Report {
 public:
  void Add(const std::string& series, double value) {
    series_[series].push_back(value);
  }
  void Append(const std::string& series, const std::vector<double>& values) {
    std::vector<double>& out = series_[series];
    out.insert(out.end(), values.begin(), values.end());
  }
  void Set(const std::string& name, double value) { scalars_[name] = value; }
  void Shape(const std::string& name, const std::string& value) {
    shape_[name] = value;
  }
  /// One attempted operation; `error` non-empty marks it failed (a
  /// refused request, a transport error or a wrong answer alike).
  void Outcome(const std::string& error) {
    ++attempted_;
    if (!error.empty()) Fail(error);
  }
  void Fail(const std::string& error) {
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(error);
  }
  void Attempted(int64_t n) { attempted_ += n; }
  /// A span-table row: calls, total and self time in nanoseconds.
  void SpanRow(const std::string& name, int64_t count, int64_t total_ns,
               int64_t self_ns) {
    SpanTotals& row = spans_[name];
    row.count += count;
    row.total_ns += total_ns;
    row.self_ns += self_ns;
  }

  std::string ToJson() const;

 private:
  struct SpanTotals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::string> shape_;
  std::map<std::string, SpanTotals> spans_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Spans the traced replay records around each call into a layer,
/// kept in memory and folded into the report's span table at the end.
/// Single-threaded: a span's parent is the innermost open span.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log), id_(log->Open(name)) {}
    ~Scope() { log_->Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_;
  };

  /// Folds every closed span into `report` as per-name rows with self
  /// time (duration minus the time covered by child spans).
  void FoldInto(Report* report) const;

  /// Folds the solver's own spans (recorded by a cdpd::Tracer attached
  /// through SolveOptions::observability) the same way; self time is
  /// taken against child spans on the same thread.
  static void FoldTracer(const cdpd::Tracer& tracer, Report* report);

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int Open(const char* name);
  void Close(int id);

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Sum of the durations of `tracer`'s spans named `name`, in µs.
double TracerSpanUs(const cdpd::Tracer& tracer, const char* name);

/// The solver's what-if precompute and DP-kernel time in one solve, from
/// the spans the k-aware solvers (monolithic or segmented) record.
double PrecomputeUs(const cdpd::Tracer& tracer);
double DpKernelUs(const cdpd::Tracer& tracer);

/// The first `count` statements of the paper's W1 phase pattern, scaled
/// to that length and generated from `seed`.
std::vector<cdpd::BoundStatement> GenerateW1(const cdpd::Schema& schema,
                                             size_t count, uint64_t seed);

/// Statements [begin, end) as a ';'-terminated SQL script, one
/// statement per line (what ReadTrace and INGEST accept).
std::string ToSql(const cdpd::Schema& schema,
                  const std::vector<cdpd::BoundStatement>& statements,
                  size_t begin, size_t end);

/// An advisor_server child process on an ephemeral loopback port. The
/// child dies with the driver (PR_SET_PDEATHSIG), so a crashed run
/// never leaves a server behind.
class ServerProcess {
 public:
  static cdpd::Result<ServerProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& flags);
  ServerProcess(ServerProcess&& other) noexcept;
  ServerProcess& operator=(ServerProcess&&) = delete;
  ~ServerProcess();

  int port() const { return port_; }
  /// User + system CPU seconds the server has consumed so far.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;
  /// SHUTDOWN over the wire, then waits for the process to exit.
  cdpd::Status Stop();

 private:
  ServerProcess(pid_t pid, int out_fd, int port)
      : pid_(pid), out_fd_(out_fd), port_(port) {}
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Online CPU count the load generator must stay within.
int NumCpus();

/// The machine-wide CPU time counters of /proc/stat, in clock ticks.
struct CpuTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Run-header facts: "model name" from /proc/cpuinfo.
std::string CpuModel();

// Workload entry points (serving.cc, offline.cc).
int RunHotWhatIf(const Args& args, Report* report);
int RunSlide(const Args& args, Report* report);
int RunOffline(const Args& args, Report* report);
int RunOfflineFirst(const Args& args);

}  // namespace perfbench

#endif  // CDPD_PERFBENCH_DRIVER_COMMON_H_
