#include "common.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json_util.h"
#include "server/client.h"
#include "workload/generator.h"
#include "workload/standard_workloads.h"

namespace perfbench {

namespace {

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  *out += buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) + ",\"errors\":[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ",";
    out += cdpd::JsonString(errors_[i]);
  }
  out += "],\"shape\":{";
  bool first = true;
  for (const auto& [name, value] : shape_) {
    if (!first) out += ",";
    first = false;
    out += cdpd::JsonString(name) + ":" + cdpd::JsonString(value);
  }
  out += "},\"scalars\":{";
  first = true;
  for (const auto& [name, value] : scalars_) {
    if (!first) out += ",";
    first = false;
    out += cdpd::JsonString(name) + ":";
    AppendNumber(&out, value);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [name, values] : series_) {
    if (!first) out += ",";
    first = false;
    out += cdpd::JsonString(name) + ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      AppendNumber(&out, values[i]);
    }
    out += "]";
  }
  out += "},\"spans\":[";
  first = true;
  for (const auto& [name, row] : spans_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + cdpd::JsonString(name) +
           ",\"count\":" + std::to_string(row.count) + ",\"total_us\":";
    AppendNumber(&out, NsToUs(row.total_ns));
    out += ",\"self_us\":";
    AppendNumber(&out, NsToUs(row.self_ns));
    out += "}";
  }
  out += "]}";
  return out;
}

int SpanLog::Open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, NowNs(), 0});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::Close(int id) {
  spans_[id].end_ns = NowNs();
  stack_.pop_back();
}

void SpanLog::FoldInto(Report* report) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    report->SpanRow(spans_[i].name, 1, total, total - child_ns[i]);
  }
}

void SpanLog::FoldTracer(const cdpd::Tracer& tracer, Report* report) {
  // Events() is sorted by (tid, start, -duration), so a stack per thread
  // recovers the nesting: a span's parent is the innermost open span
  // that still covers its start.
  const std::vector<cdpd::Tracer::Event> events = tracer.Events();
  std::vector<int64_t> child_us(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const cdpd::Tracer::Event& event = events[i];
    while (!stack.empty()) {
      const cdpd::Tracer::Event& top = events[stack.back()];
      if (top.tid == event.tid &&
          event.start_us < top.start_us + top.duration_us) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += event.duration_us;
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const int64_t total = events[i].duration_us;
    report->SpanRow(std::string("solver:") + events[i].name, 1, total * 1000,
                    std::max<int64_t>(0, total - child_us[i]) * 1000);
  }
}

double TracerSpanUs(const cdpd::Tracer& tracer, const char* name) {
  double total = 0.0;
  for (const cdpd::Tracer::Event& event : tracer.Events()) {
    if (std::strcmp(event.name, name) == 0) {
      total += static_cast<double>(event.duration_us);
    }
  }
  return total;
}

double PrecomputeUs(const cdpd::Tracer& tracer) {
  return TracerSpanUs(tracer, "segment.precompute") +
         TracerSpanUs(tracer, "kaware.precompute");
}

double DpKernelUs(const cdpd::Tracer& tracer) {
  return TracerSpanUs(tracer, "segment.chunk_dp") +
         TracerSpanUs(tracer, "segment.stitch") +
         TracerSpanUs(tracer, "segment.rebuild") +
         TracerSpanUs(tracer, "kaware.dp");
}

std::vector<cdpd::BoundStatement> GenerateW1(const cdpd::Schema& schema,
                                             size_t count, uint64_t seed) {
  const size_t blocks = cdpd::PaperBlockMixLetters("W1").size();
  const size_t block_size = (count + blocks - 1) / blocks;
  cdpd::WorkloadGenerator generator(schema, 500'000, seed);
  cdpd::Result<cdpd::Workload> workload =
      cdpd::MakeScaledPaperWorkload("W1", block_size, &generator);
  if (!workload.ok()) return {};
  workload->statements.resize(std::min(count, workload->size()));
  return std::move(workload->statements);
}

std::string ToSql(const cdpd::Schema& schema,
                  const std::vector<cdpd::BoundStatement>& statements,
                  size_t begin, size_t end) {
  std::string out;
  out.reserve((end - begin) * 36);
  for (size_t i = begin; i < end; ++i) {
    out += statements[i].ToString(schema);
    out += ";\n";
  }
  return out;
}

cdpd::Result<ServerProcess> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& flags) {
  int fds[2];
  if (::pipe(fds) != 0) return cdpd::Status::Internal("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return cdpd::Status::Internal("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& flag : flags) {
      argv.push_back(const_cast<char*>(flag.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  ServerProcess server(pid, fds[0], 0);
  // The server prints "listening on <host>:<port>" once it accepts.
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    char c = 0;
    if (::read(fds[0], &c, 1) != 1) break;
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    const size_t at = line.find("listening on ");
    const size_t colon = line.rfind(':');
    if (at != std::string::npos && colon != std::string::npos) {
      server.port_ = std::atoi(line.c_str() + colon + 1);
      return server;
    }
    line.clear();
  }
  return cdpd::Status::Internal("advisor_server did not report its port");
}

ServerProcess::ServerProcess(ServerProcess&& other) noexcept
    : pid_(other.pid_), out_fd_(other.out_fd_), port_(other.port_) {
  other.pid_ = -1;
  other.out_fd_ = -1;
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double ServerProcess::CpuSeconds() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(paren + 2));
  std::vector<std::string> tokens;
  for (std::string token; fields >> token;) tokens.push_back(token);
  // Fields after the command: state is field 3, utime 14, stime 15.
  if (tokens.size() < 13) return 0.0;
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (std::stod(tokens[11]) + std::stod(tokens[12])) / ticks;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(file, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

cdpd::Status ServerProcess::Stop() {
  {
    cdpd::Result<cdpd::AdvisorClient> client =
        cdpd::AdvisorClient::Connect("127.0.0.1", port_);
    if (!client.ok()) return client.status();
    CDPD_RETURN_IF_ERROR(client->Shutdown());
  }
  char buf[256];
  while (::read(out_fd_, buf, sizeof(buf)) > 0) {
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return cdpd::Status::Internal("advisor_server exited abnormally");
  }
  return cdpd::Status::OK();
}

int NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

CpuTicks ReadCpuTicks() {
  std::ifstream file("/proc/stat");
  std::string cpu;
  file >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks ticks;
  int64_t value = 0;
  for (int field = 0; field < 8 && file >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string CpuModel() {
  std::ifstream file("/proc/cpuinfo");
  for (std::string line; std::getline(file, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace perfbench
