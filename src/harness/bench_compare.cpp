#include "harness/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>
#include <vector>

#include "harness/run_config.hpp"
#include "util/json.hpp"

namespace nscc::harness {

namespace {

/// Metrics where bigger is better: only a decrease can regress.
bool higher_is_better(const std::string& metric) {
  static const std::set<std::string> kHigher = {
      "speedup", "events_per_sec", "quality_ok_fraction"};
  return kHigher.count(metric) != 0;
}

/// Metrics where smaller is better: only an increase can regress.  The
/// RunStats counters say so in their declarations (stat_fields()); the
/// list names the rest: the caller's completion time and bench_engine's
/// host costs.
bool lower_is_better(const std::string& metric) {
  static const std::set<std::string> kLower = {
      "completion_s", "wall_s",    "peak_queue_depth",
      "allocations",  "alloc_bytes", "mean_dispatch_ns"};
  if (kLower.count(metric) != 0) return true;
  const std::vector<StatField>& fields = stat_fields();
  return std::any_of(fields.begin(), fields.end(), [&](const StatField& f) {
    return f.lower_is_better && metric == f.name;
  });
}

/// One result cell, keyed by its sweep coordinates.
struct Cell {
  std::string key;
  std::vector<std::pair<std::string, double>> stats;
};

/// Deterministic cell identity: every coordinate the sweep varies, with
/// params sorted by name so writer-side ordering differences cannot split
/// a cell into two keys.
std::string cell_key(const util::json::Value& rec) {
  std::string key = "workload=" + rec.string_or("workload", "?") +
                    " variant=" + rec.string_or("variant", "?");
  // Model-matrix sweeps (schema v5) tag non-default cells; the absent field
  // means nonstrict, so legacy baselines keep their keys.
  if (const std::string cons = rec.string_or("consistency", "nonstrict");
      cons != "nonstrict") {
    key += " consistency=" + cons;
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, " age=%g seed=%g repeat=%g",
                rec.number_or("age", 0), rec.number_or("seed", 0),
                rec.number_or("repeat", 0));
  key += buf;
  if (const util::json::Value* params = rec.find("params");
      params != nullptr && params->is_object()) {
    std::vector<std::pair<std::string, double>> sorted;
    for (const auto& [name, v] : params->object) {
      if (v.is_number()) sorted.emplace_back(name, v.number);
    }
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [name, v] : sorted) {
      std::snprintf(buf, sizeof buf, " %s=%.17g", name.c_str(), v);
      key += buf;
    }
  }
  return key;
}

/// Parse + schema-check one document; returns false with a message on any
/// structural problem (exit-2 class).
bool load_doc(const std::string& text, const char* label,
              util::json::Value& doc, std::ostream& out) {
  std::string error;
  auto parsed = util::json::parse(text, &error);
  if (!parsed) {
    out << "bench-compare: " << label << ": " << error << "\n";
    return false;
  }
  doc = std::move(*parsed);
  if (!doc.is_object()) {
    out << "bench-compare: " << label << ": document is not an object\n";
    return false;
  }
  const std::string schema = doc.string_or("schema", "");
  if (schema.rfind("nscc-bench-v", 0) != 0) {
    out << "bench-compare: " << label << ": schema \"" << schema
        << "\" is not nscc-bench-v*\n";
    return false;
  }
  const util::json::Value* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    out << "bench-compare: " << label << ": missing results array\n";
    return false;
  }
  return true;
}

std::vector<Cell> collect_cells(const util::json::Value& doc) {
  std::vector<Cell> cells;
  for (const util::json::Value& rec : doc.find("results")->array) {
    if (!rec.is_object()) continue;
    Cell cell;
    cell.key = cell_key(rec);
    if (const util::json::Value* stats = rec.find("stats");
        stats != nullptr && stats->is_object()) {
      for (const auto& [name, v] : stats->object) {
        if (v.is_number()) cell.stats.emplace_back(name, v.number);
      }
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace

int compare_bench_json(const std::string& baseline_text,
                       const std::string& candidate_text,
                       const CompareOptions& options, std::ostream& out) {
  util::json::Value base_doc;
  util::json::Value cand_doc;
  if (!load_doc(baseline_text, "baseline", base_doc, out) ||
      !load_doc(candidate_text, "candidate", cand_doc, out)) {
    return kCompareError;
  }
  if (base_doc.string_or("schema", "") != cand_doc.string_or("schema", "")) {
    out << "bench-compare: schema mismatch: baseline \""
        << base_doc.string_or("schema", "") << "\" vs candidate \""
        << cand_doc.string_or("schema", "") << "\"\n";
    return kCompareError;
  }
  if (base_doc.string_or("bench", "") != cand_doc.string_or("bench", "")) {
    out << "bench-compare: bench mismatch: baseline \""
        << base_doc.string_or("bench", "") << "\" vs candidate \""
        << cand_doc.string_or("bench", "") << "\"\n";
    return kCompareError;
  }

  const std::vector<Cell> base_cells = collect_cells(base_doc);
  const std::vector<Cell> cand_cells = collect_cells(cand_doc);
  // Two records under one key would make the match ambiguous: the second
  // one would never be compared.
  for (const auto* cells : {&base_cells, &cand_cells}) {
    std::set<std::string> keys;
    for (const Cell& cell : *cells) {
      if (!keys.insert(cell.key).second) {
        out << "bench-compare: "
            << (cells == &base_cells ? "baseline" : "candidate")
            << ": two records share the cell key " << cell.key << "\n";
        return kCompareError;
      }
    }
  }

  int regressions = 0;
  int within = 0;  // Differences absorbed by a tolerance.
  int compared = 0;
  for (const Cell& base : base_cells) {
    const Cell* cand = nullptr;
    for (const Cell& c : cand_cells) {
      if (c.key == base.key) {
        cand = &c;
        break;
      }
    }
    if (cand == nullptr) {
      out << "REGRESSION " << base.key << ": cell missing from candidate\n";
      ++regressions;
      continue;
    }
    for (const auto& [metric, base_v] : base.stats) {
      const double* cand_v = nullptr;
      for (const auto& [name, v] : cand->stats) {
        if (name == metric) {
          cand_v = &v;
          break;
        }
      }
      if (cand_v == nullptr) {
        out << "REGRESSION " << base.key << ": metric " << metric
            << " missing from candidate\n";
        ++regressions;
        continue;
      }
      ++compared;
      if (*cand_v == base_v) continue;
      double tol = options.default_tolerance;
      if (auto it = options.metric_tolerance.find(metric);
          it != options.metric_tolerance.end()) {
        tol = it->second;
      }
      const double denom =
          std::max({std::fabs(base_v), std::fabs(*cand_v), 1e-300});
      const double rel = (*cand_v - base_v) / denom;
      // Direction: a tolerated metric only fails when it moved the wrong
      // way; an unknown-direction metric fails on any out-of-tolerance
      // change (deterministic sim — unexplained drift is the signal).
      bool worse = std::fabs(rel) > tol;
      if (worse && higher_is_better(metric) && rel > 0) worse = false;
      if (worse && lower_is_better(metric) && rel < 0) worse = false;
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s %s: %s %.17g -> %.17g (%+.2f%%, tol %.2f%%)\n",
                    worse ? "REGRESSION" : "ok", base.key.c_str(),
                    metric.c_str(), base_v, *cand_v, rel * 100.0, tol * 100.0);
      out << line;
      if (worse) {
        ++regressions;
      } else {
        ++within;
      }
    }
  }

  out << "bench-compare: " << base_cells.size() << " baseline cell(s), "
      << compared << " metric(s) compared, " << within
      << " within tolerance, " << regressions << " regression(s)\n";
  return regressions > 0 ? kCompareRegression : kComparePass;
}

}  // namespace nscc::harness
