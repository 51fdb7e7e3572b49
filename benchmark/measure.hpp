// One workload measured in this process: set-up, timed runs, and
// optionally the traced run and layer probes; checks every run, prints the
// metrics, writes the nscc-bench-v5 record and the span trace.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace nscc::benchmark {

struct Options {
  std::string workload;  ///< Empty: every workload, one child process each.
  std::uint64_t seed = 7;
  bool smoke = false;     ///< Smoke sizes, one timed run, few probe samples.
  double seconds = 20.0;  ///< Budget for the timed runs.
  bool layers = true;     ///< Also the traced run and the layer probes.
  std::string json_out;   ///< nscc-bench-v5 results file.
  std::string trace_out;  ///< Chrome trace of the spans (empty: none).
};

/// Measure `bench` as `opt` says; `process_start` is the host time at
/// which main() began.  Returns the process exit code: 0 when every run
/// and probe passed its checks.
int measure_workload(const Bench& bench, const Options& opt,
                     std::int64_t process_start);

}  // namespace nscc::benchmark
