#include "harness/report.hpp"

#include <fstream>
#include <iostream>

#include "util/json_writer.hpp"

namespace nscc::harness {

using util::jsonw::append_escaped;
using util::jsonw::append_object;

std::string run_report_json(const std::string& workload,
                            const std::vector<ReportRow>& rows) {
  std::string out = "{\n  \"schema\": \"nscc-run-report-v1\",\n  \"workload\": ";
  append_escaped(out, workload);
  out += ",\n  \"rows\": [";
  bool first = true;
  for (const ReportRow& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"scenario\": ";
    append_escaped(out, row.scenario);
    out += ", \"variant\": ";
    append_escaped(out, row.variant);
    out += ", \"network\": ";
    append_escaped(out, row.network);
    out += ", \"consistency\": ";
    append_escaped(out, row.consistency);
    out += ", \"stats\": ";
    append_object(out, row.stats.to_fields());
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_run_report(const std::string& path, const std::string& workload,
                      const std::vector<ReportRow>& rows) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  file << run_report_json(workload, rows);
  file.flush();
  if (!file) {
    std::cerr << "write to " << path << " failed\n";
    return false;
  }
  return true;
}

}  // namespace nscc::harness
