// End-of-run report (--report-out): one JSON document per harness
// invocation merging, for every (scenario, variant) row the driver ran, the
// full unified RunStats surface — completion/quality, staleness, transport
// robustness, sanitizer, and recovery counters (RunStats::to_fields).
// Where --json-out (bench sweeps) serialises *measurement cells* for the
// regression gate, --report-out serialises *one run's health* for humans
// and CI artifact upload; schema nscc-run-report-v1, see bench/schema.md.
#pragma once

#include <string>
#include <vector>

#include "harness/run_config.hpp"

namespace nscc::harness {

struct ReportRow {
  std::string scenario;  ///< Empty when the driver ran without scenarios.
  std::string variant;
  std::string network;
  std::string consistency;  ///< The row's consistency model.
  RunStats stats;
};

/// The report document as JSON text.
[[nodiscard]] std::string run_report_json(const std::string& workload,
                                          const std::vector<ReportRow>& rows);

/// Write run_report_json to `path`; false (with a stderr message) on an IO
/// error.
bool write_run_report(const std::string& path, const std::string& workload,
                      const std::vector<ReportRow>& rows);

}  // namespace nscc::harness
