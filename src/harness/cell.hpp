// The paper's figure protocol (Section 5.1.1) over any harness::Workload:
// one cell is one problem instance run as the serial reference, the
// synchronous program, and every other variant, each `reps` times.
//
//  * The serial program and the synchronous program run the workload's
//    fixed budget; the sync result sets the quality bar the async and
//    Global_Read variants must match (Workload::run_matched applies each
//    application's matching rule).
//  * Rep r runs with seed = base seed + 1000 r.  Speedups are serial time
//    over variant time, averaged over reps; every RunStats field (extras
//    included) is averaged over reps too.
//  * Cells average the paper's way: summed serial time over summed variant
//    time, and plain means of every other field.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness/run_config.hpp"
#include "rt/vm.hpp"

namespace nscc::util {
class Table;
}  // namespace nscc::util

namespace nscc::harness {

class Sweep;
class Workload;

struct CellConfig {
  /// The variants run after sync, in order (sync always runs: it sets the
  /// bar).  Default: the paper's async and Global_Read ages 0/5/10/20/30.
  std::vector<VariantSpec> variants = paper_variants({0, 5, 10, 20, 30});
  int reps = 1;  ///< >= 1.
  /// Common knobs of every run; base.seed is rep 0's seed.  The cell
  /// runner sets mode, age, seed and coalescing per variant and rep.
  RunConfig base;
  rt::MachineConfig machine;

  /// Async followed by one Global_Read variant per age.
  [[nodiscard]] static std::vector<VariantSpec> paper_variants(
      const std::vector<dsm::Iteration>& ages);
};

struct CellVariant {
  VariantSpec spec;  ///< name "serial" for the sequential reference.
  double speedup = 0.0;     ///< Serial time over variant time.
  double sum_time_s = 0.0;  ///< Completion time summed over reps.
  /// RunStats::to_fields() averaged over reps (over cells for averages);
  /// "completion_s" is the mean completion time.
  std::vector<std::pair<std::string, double>> fields;

  /// The averaged field `name`; `fallback` when the runs did not report it
  /// (the serial reference has none of the parallel runs' extras, such as
  /// rollbacks or quality_ok).
  [[nodiscard]] double field(const std::string& name,
                             double fallback = 0.0) const;
};

struct CellResult {
  std::vector<CellVariant> variants;  ///< serial, sync, then the config's.

  /// Throws std::out_of_range when no variant has that name and age.
  [[nodiscard]] const CellVariant& variant(const std::string& name,
                                           dsm::Iteration age = 0) const;
  /// The paper's white bar: best Global_Read speedup over the best of
  /// serial, sync and async; > 1 means the partially asynchronous program
  /// wins.
  [[nodiscard]] double best_partial_over_best_competitor() const;
};

/// Run one cell of `workload` as configured.  Throws std::invalid_argument
/// when reps < 1 or the variant list names sync.
CellResult run_cell(Workload& workload, const CellConfig& config);

/// Cross-cell average (all cells must share one variant list).
CellResult average_cells(const std::vector<CellResult>& cells);

/// Add one --json-out record per variant of `cell` (repeat = -1: means over
/// config.reps) to `sweep`: `params` plus "reps" as coordinates, "speedup"
/// and every averaged RunStats field as stats.
void record_cell(Sweep& sweep, const std::string& workload,
                 const CellConfig& config, const CellResult& cell,
                 std::vector<std::pair<std::string, double>> params);

/// Figure-table header: `leading` columns, then sync and `variants` by tag,
/// then the best-partial bar.
[[nodiscard]] std::vector<std::string> figure_columns(
    std::vector<std::string> leading, const std::vector<VariantSpec>& variants);
/// Append a cell's figure-table cells to the current row: every non-serial
/// speedup, then best_partial_over_best_competitor().
void add_speedups(util::Table& table, const CellResult& cell);

}  // namespace nscc::harness
