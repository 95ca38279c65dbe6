// The three workloads. Each builds its inputs from Options::seed, sets up
// (Options::setups times, reporting the median), measures for
// Options::seconds, checks every answer, and returns what it measured.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_util.h"
#include "layers.h"

namespace perfbench {

RunResult RunWireZipf(const Options& options);
RunResult RunFixpointLarge(const Options& options);
RunResult RunWriteMix(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
