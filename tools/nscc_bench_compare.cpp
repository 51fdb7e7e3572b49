// nscc-bench-compare: the bench regression gate's CLI.
//
//   nscc-bench-compare BASELINE.json CANDIDATE.json
//       [--tol-default=R] [--tol=metric=R]...
//
// Diffs two nscc-bench JSON documents (bench/schema.md) cell by cell.
// Exit 0: every baseline cell present and within tolerance.
// Exit 1: a metric regressed, or a baseline cell/metric disappeared.
// Exit 2: usage, IO, parse, or schema/bench mismatch.
//
// Tolerances are relative (0.10 = 10%) and direction-aware: tolerated
// metrics only fail when they move the worse way (lower events_per_sec,
// higher completion_s); unknown-direction metrics fail on any
// out-of-tolerance change.  The RunStats counters take their direction
// from their declarations (harness::stat_fields(): messages_sent,
// bytes_sent, global_read_blocks, global_read_block_s, frames_lost,
// retransmissions, read_escalations, integrity_dropped and
// sanitize_violations are lower-is-better); bench/schema.md lists every
// directional stat.  The default is exact comparison — the
// simulator is deterministic, so simulated metrics must match bit-for-bit;
// pass --tol=events_per_sec=0.25 (etc.) for wall-clock-derived metrics.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_compare.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " BASELINE.json CANDIDATE.json [--tol-default=R] [--tol=metric=R]...\n"
         "  R is a relative tolerance (0.10 = 10%); default is exact.\n"
         "  exit 0 = pass, 1 = regression, 2 = usage/IO/schema error\n";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "nscc-bench-compare: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  out = buf.str();
  return true;
}

/// Parse "R" with strtod, whole-string; false on garbage or negative.
bool parse_tolerance(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty() && out >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  nscc::harness::CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tol-default=", 0) == 0) {
      if (!parse_tolerance(arg.substr(14), options.default_tolerance)) {
        std::cerr << "nscc-bench-compare: bad tolerance in " << arg << "\n";
        return nscc::harness::kCompareError;
      }
    } else if (arg.rfind("--tol=", 0) == 0) {
      const std::string spec = arg.substr(6);
      const auto eq = spec.find('=');
      double tol = 0.0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_tolerance(spec.substr(eq + 1), tol)) {
        std::cerr << "nscc-bench-compare: expected --tol=metric=R, got " << arg
                  << "\n";
        return nscc::harness::kCompareError;
      }
      options.metric_tolerance[spec.substr(0, eq)] = tol;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return nscc::harness::kComparePass;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "nscc-bench-compare: unknown flag " << arg << "\n";
      usage(argv[0]);
      return nscc::harness::kCompareError;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    usage(argv[0]);
    return nscc::harness::kCompareError;
  }

  std::string baseline;
  std::string candidate;
  if (!read_file(positional[0], baseline) ||
      !read_file(positional[1], candidate)) {
    return nscc::harness::kCompareError;
  }
  return nscc::harness::compare_bench_json(baseline, candidate, options,
                                           std::cout);
}
