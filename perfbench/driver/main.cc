// perfbench_driver: runs one benchmark workload and prints, as the last
// line of stdout, a JSON document of raw samples that run.py turns into
// metrics. Progress and diagnostics go to stderr.
//
//   perfbench_driver --workload hot_whatif|slide_1m|offline_m64
//                    --seed N --seconds S --trace 0|1 --server PATH
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  args->self_bin = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--offline-first") {
      args->offline_first = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--server") {
      args->server_bin = value;
    } else {
      return false;
    }
  }
  return args->offline_first || args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --server PATH\n");
    return 2;
  }
  if (args.offline_first) return perfbench::RunOfflineFirst(args);
  perfbench::Report report;
  const perfbench::CpuTicks before = perfbench::ReadCpuTicks();
  int code = 2;
  if (args.workload == "hot_whatif") {
    code = perfbench::RunHotWhatIf(args, &report);
  } else if (args.workload == "slide_1m") {
    code = perfbench::RunSlide(args, &report);
  } else if (args.workload == "offline_m64") {
    code = perfbench::RunOffline(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Time the hypervisor ran other guests while this one wanted the CPU:
  // a run with much of it measured a slower machine.
  const perfbench::CpuTicks after = perfbench::ReadCpuTicks();
  const int64_t total = after.total - before.total;
  report.Set("host_steal_pct",
             total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                             static_cast<double>(total)
                       : 0.0);
  report.Shape("nproc", std::to_string(perfbench::NumCpus()));
  report.Shape("cpu_model", perfbench::CpuModel());
  std::printf("%s\n", report.ToJson().c_str());
  return code;
}
