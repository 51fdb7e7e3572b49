#include "harness/cell.hpp"

#include <algorithm>
#include <stdexcept>

#include "harness/sweep.hpp"
#include "harness/workload.hpp"
#include "util/table.hpp"

namespace nscc::harness {

namespace {

using Fields = std::vector<std::pair<std::string, double>>;

/// Add `from` into `into` field by field (`into` empty = take the names).
void accumulate(Fields& into, const Fields& from) {
  if (into.empty()) {
    for (const auto& [name, value] : from) into.emplace_back(name, 0.0);
  }
  if (into.size() != from.size()) {
    throw std::logic_error("cell runs reported different field lists");
  }
  for (std::size_t i = 0; i < into.size(); ++i) into[i].second += from[i].second;
}

void divide(Fields& fields, double n) {
  for (auto& field : fields) field.second /= n;
}

}  // namespace

std::vector<VariantSpec> CellConfig::paper_variants(
    const std::vector<dsm::Iteration>& ages) {
  std::vector<VariantSpec> variants = {make_variant("async", 0)};
  for (const dsm::Iteration age : ages) {
    variants.push_back(make_variant("partial", age));
  }
  return variants;
}

double CellVariant::field(const std::string& name, double fallback) const {
  for (const auto& [key, value] : fields) {
    if (key == name) return value;
  }
  return fallback;
}

const CellVariant& CellResult::variant(const std::string& name,
                                       dsm::Iteration age) const {
  for (const auto& v : variants) {
    if (v.spec.name == name && v.spec.age == age) return v;
  }
  throw std::out_of_range("CellResult: no variant " + name + " age " +
                          std::to_string(age));
}

double CellResult::best_partial_over_best_competitor() const {
  double best_partial = 0.0;
  double best_other = 0.0;
  for (const auto& v : variants) {
    double& best = v.spec.mode == dsm::Mode::kPartialAsync ? best_partial
                                                           : best_other;
    best = std::max(best, v.speedup);
  }
  return best_other > 0.0 ? best_partial / best_other : 0.0;
}

CellResult run_cell(Workload& workload, const CellConfig& config) {
  if (config.reps < 1) {
    throw std::invalid_argument("run_cell: reps must be >= 1, got " +
                                std::to_string(config.reps));
  }
  std::vector<VariantSpec> specs = {{"serial", dsm::Mode::kSynchronous, 0},
                                    make_variant("sync", 0)};
  for (const auto& v : config.variants) {
    if (v.name == "sync") {
      throw std::invalid_argument(
          "run_cell: sync always runs first; list only the other variants");
    }
    specs.push_back(v);
  }

  CellResult cell;
  for (const auto& spec : specs) cell.variants.push_back({spec, 0.0, 0.0, {}});
  for (int rep = 0; rep < config.reps; ++rep) {
    RunConfig base = config.base;
    base.seed += 1000ULL * static_cast<std::uint64_t>(rep);
    const RunStats serial = workload.reference(base);
    const double serial_s = sim::to_seconds(serial.completion_time);
    RunStats sync;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const RunStats stats =
          i == 0 ? serial
                 : workload.run_matched(for_variant(base, specs[i]),
                                        config.machine, serial,
                                        i == 1 ? nullptr : &sync);
      if (i == 1) sync = stats;
      const double time_s = sim::to_seconds(stats.completion_time);
      CellVariant& v = cell.variants[i];
      v.speedup += serial_s / time_s;
      v.sum_time_s += time_s;
      accumulate(v.fields, stats.to_fields());
    }
  }
  for (auto& v : cell.variants) {
    v.speedup /= config.reps;
    divide(v.fields, config.reps);
  }
  return cell;
}

CellResult average_cells(const std::vector<CellResult>& cells) {
  if (cells.empty()) return {};
  double serial_sum = 0.0;
  for (const auto& cell : cells) serial_sum += cell.variants.front().sum_time_s;
  CellResult avg;
  for (const auto& proto : cells.front().variants) {
    CellVariant v{proto.spec, 0.0, 0.0, {}};
    for (const auto& cell : cells) {
      const CellVariant& cv = cell.variant(proto.spec.name, proto.spec.age);
      v.sum_time_s += cv.sum_time_s;
      accumulate(v.fields, cv.fields);
    }
    // The paper's average: summed serial time over summed variant time.
    v.speedup = v.sum_time_s > 0.0 ? serial_sum / v.sum_time_s : 0.0;
    divide(v.fields, static_cast<double>(cells.size()));
    avg.variants.push_back(std::move(v));
  }
  return avg;
}

void record_cell(Sweep& sweep, const std::string& workload,
                 const CellConfig& config, const CellResult& cell,
                 std::vector<std::pair<std::string, double>> params) {
  params.emplace_back("reps", config.reps);
  for (const auto& v : cell.variants) {
    Fields stats = {{"speedup", v.speedup}};
    stats.insert(stats.end(), v.fields.begin(), v.fields.end());
    sweep.add({.workload = workload,
               .variant = v.spec.name,
               .age = v.spec.age,
               .seed = config.base.seed,
               .repeat = -1,
               .params = params,
               .stats = std::move(stats)});
  }
}

std::vector<std::string> figure_columns(
    std::vector<std::string> leading, const std::vector<VariantSpec>& variants) {
  leading.emplace_back("sync");
  for (const auto& v : variants) leading.push_back(v.tag());
  leading.emplace_back("best/bestcomp");
  return leading;
}

void add_speedups(util::Table& table, const CellResult& cell) {
  for (const auto& v : cell.variants) {
    if (v.spec.name != "serial") table.cell(v.speedup, 2);
  }
  table.cell(cell.best_partial_over_best_competitor(), 2);
}

}  // namespace nscc::harness
