// Bench regression gate: diff two nscc-bench JSON documents (the schema
// sweep.cpp emits, documented in bench/schema.md) cell by cell and metric
// by metric.  The simulator is deterministic, so the default comparison is
// EXACT — %.17g round-trips through strtod bit-for-bit — and any drift in a
// simulated metric is a real behaviour change.  Wall-clock-derived metrics
// (events_per_sec) are inherently noisy and get explicit relative
// tolerances from the caller (--tol=metric=R).
//
// Direction awareness: for a tolerated metric, only a change in the *worse*
// direction fails — lower events_per_sec, higher completion_s.  Metrics
// with no known direction fail on any out-of-tolerance change (in a
// deterministic sim an "improvement" you didn't ask for is still drift
// worth flagging).
#pragma once

#include <iosfwd>
#include <map>
#include <string>

namespace nscc::harness {

struct CompareOptions {
  /// Relative tolerance applied to every metric without an override.
  /// 0 = exact (the right default for a deterministic simulator).
  double default_tolerance = 0.0;
  /// Per-metric relative tolerance overrides, keyed by stat name.
  std::map<std::string, double> metric_tolerance;
};

/// Exit-code semantics shared by compare_bench_json and the CLI.
inline constexpr int kComparePass = 0;
inline constexpr int kCompareRegression = 1;
inline constexpr int kCompareError = 2;  ///< Schema/parse/usage problem.

/// Compare candidate against baseline.  Writes one line per difference (and
/// a final summary) to `out`.  Returns kComparePass when every baseline
/// cell is present and within tolerance, kCompareRegression when any metric
/// regressed or a baseline cell/metric disappeared, kCompareError when
/// either document fails to parse, is not nscc-bench-v* JSON, holds two
/// records with the same cell key, or the two documents disagree on schema
/// version or producing bench.
int compare_bench_json(const std::string& baseline_text,
                       const std::string& candidate_text,
                       const CompareOptions& options, std::ostream& out);

}  // namespace nscc::harness
