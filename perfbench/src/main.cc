// perfbench: runs one workload in this process and prints what it
// measured. run.py builds this binary and calls it once per run; see
// BENCHMARK.json at the repository root for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setups K] [--spans PATH]
//
// Prints one human-readable line per metric (name, value, unit, sample
// count), then one JSON line with every metric. Exits 0 when every answer
// was correct, 1 when one was wrong, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

void Print(const perfbench::Options& opt, const RunResult& r) {
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& [name, m] : r.metrics) {
    std::printf("# %-34s %14.6f %-6s n=%zu%s%s\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  std::printf("# attempted=%llu failed=%llu wrong=%llu error_rate=%.6f\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong),
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0);
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"wrong\":%llu,"
              "\"metrics\":{",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                first ? "" : ",", name.c_str(), m.value, m.unit.c_str(),
                m.samples);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire_zipf|fixpoint_large|"
               "write_mix --seed N --seconds S --trace 0|1 [--setups K] "
               "[--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      opt.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--trace") == 0) {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(arg, "--setups") == 0) {
      opt.setups = std::atoi(value);
    } else if (std::strcmp(arg, "--spans") == 0) {
      opt.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (opt.seconds <= 0) return Usage();
  RunResult result;
  if (opt.workload == "wire_zipf") {
    result = perfbench::RunWireZipf(opt);
  } else if (opt.workload == "fixpoint_large") {
    result = perfbench::RunFixpointLarge(opt);
  } else if (opt.workload == "write_mix") {
    result = perfbench::RunWriteMix(opt);
  } else {
    return Usage();
  }
  Print(opt, result);
  return result.correct ? 0 : 1;
}
