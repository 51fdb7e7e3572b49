// Shared bench-results recorder: every bench binary that sweeps (workload,
// variant, age, seed, repeat) cells pushes SweepRecords into a Sweep and
// gets a uniform machine-readable JSON file (--json-out) alongside its
// stdout tables.  The schema is documented in bench/schema.md and snapshot
// in BENCH_baseline.json so the perf trajectory can be diffed across PRs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/run_config.hpp"

namespace nscc::util {
class Flags;
}  // namespace nscc::util

namespace nscc::harness {

/// One measured cell.  `repeat` is the repetition index, or -1 when the
/// stats aggregate over all repetitions (the harness::run_cell figure
/// benches report means, not raw reps).
struct SweepRecord {
  std::string workload;
  std::string variant;
  /// Consistency model the cell ran under; serialised only when it differs
  /// from the paper default so legacy baselines stay byte-identical.
  std::string consistency = "nonstrict";
  long age = 0;
  std::uint64_t seed = 0;
  int repeat = 0;
  /// Sweep-axis coordinates (processors, function, loss rate, ...).
  std::vector<std::pair<std::string, double>> params;
  /// Measured values; RunStats::to_fields() or hand-assembled.
  std::vector<std::pair<std::string, double>> stats;
};

class Sweep {
 public:
  /// `bench` names the producing binary, e.g. "fig2_ga_unloaded".
  explicit Sweep(std::string bench) : bench_(std::move(bench)) {}

  /// Register the shared --json-out flag.
  static void add_flags(util::Flags& flags);
  /// Read --json-out back; empty keeps JSON output disabled.
  void configure(const util::Flags& flags);
  void set_output(std::string path) { path_ = std::move(path); }

  void add(SweepRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// The full results document as JSON text.
  [[nodiscard]] std::string to_json() const;

  /// Write to the configured path; no-op (true) when disabled, false on an
  /// IO error (reported to stderr).
  bool write() const;

 private:
  std::string bench_;
  std::string path_;
  std::vector<SweepRecord> records_;
};

}  // namespace nscc::harness
