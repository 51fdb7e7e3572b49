// Regenerates Figure 2: speedups of the synchronous, fully asynchronous, and
// Global_Read (age 0/5/10/20/30) island-GA implementations over the cached
// serial GA, on the unloaded 10 Mbps shared Ethernet, for 2..16 processors.
// Prints the paper's three panels: the best case (function 1), the
// eight-function average (ratio of summed serial to summed parallel times),
// and the "best partially asynchronous over best competitor" bar.
//
// Defaults are reduced for a quick run; --paper-scale restores the paper's
// 1000-generation, 25-repetition protocol (expect a long run).
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cell.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("generations", 200, "sync/serial generation budget (paper: 1000)")
      .add_int("reps", 2, "repetitions (paper: 25)")
      .range("reps", 1)
      .add_int("functions", 8, "use test functions 1..N")
      .range("functions", 1, 8)
      .add_int_list("procs", "2,4,8,16", "comma-separated processor counts")
      .range("procs", 1)
      .add_int("seed", 1, "base seed")
      .add_bool("paper-scale", false, "paper protocol: 1000 gens, 25 reps")
      .add_bool("csv", false, "also emit CSV");
  nscc::harness::Sweep sweep("fig2_ga_unloaded");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);

  nscc::harness::GaIslandWorkload ga;
  ga.generations = static_cast<int>(flags.get_int("generations"));
  nscc::harness::CellConfig cfg;
  cfg.reps = static_cast<int>(flags.get_int("reps"));
  if (flags.get_bool("paper-scale")) {
    ga.generations = 1000;
    cfg.reps = 25;
  }
  cfg.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int nfuncs = static_cast<int>(flags.get_int("functions"));

  for (const std::int64_t P : flags.get_int_list("procs")) {
    ga.demes = static_cast<int>(P);
    std::vector<nscc::harness::CellResult> cells;
    for (int f = 1; f <= nfuncs; ++f) {
      ga.function_id = f;
      cells.push_back(nscc::harness::run_cell(ga, cfg));
      // Each variant's aggregated cell (means over reps -> repeat = -1).
      for (const auto& v : cells.back().variants) {
        nscc::harness::SweepRecord rec;
        rec.workload = "ga.island";
        rec.variant = v.spec.name;
        rec.age = v.spec.age;
        rec.seed = cfg.base.seed;
        rec.repeat = -1;
        rec.params = {{"processors", static_cast<double>(P)},
                      {"function", static_cast<double>(f)},
                      {"generations", static_cast<double>(ga.generations)},
                      {"reps", static_cast<double>(cfg.reps)}};
        rec.stats = {{"speedup", v.speedup},
                     {"mean_time_s", v.field("completion_s")},
                     {"final_best", v.field("best_fitness")},
                     {"mean_generations", v.field("generations")},
                     {"quality_ok_fraction", v.field("quality_ok", 1.0)},
                     {"bus_utilization", v.field("bus_utilization")},
                     {"mean_warp", v.field("mean_warp")}};
        sweep.add(std::move(rec));
      }
    }
    const auto avg = nscc::harness::average_cells(cells);

    nscc::util::Table table("Figure 2 - GA speedups, unloaded network, P=" +
                            std::to_string(P));
    table.columns(nscc::harness::figure_columns({"series"}, cfg.variants));
    add_speedups(table.row().cell("f1 (best case)"), cells.front());
    add_speedups(table.row().cell("average (8 fns)"), avg);
    table.print(std::cout);

    nscc::util::Table diag("diagnostics (f1): generations to match sync "
                           "quality, bus utilization, warp");
    diag.columns({"variant", "gens", "quality ok", "bus util", "warp"});
    for (const auto& v : cells.front().variants) {
      if (v.spec.name == "serial") continue;
      diag.row()
          .cell(v.spec.tag())
          .cell(v.field("generations"), 0)
          .cell(v.field("quality_ok"), 2)
          .cell(v.field("bus_utilization"), 2)
          .cell(v.field("mean_warp"), 2);
    }
    diag.print(std::cout);
    std::cout << '\n';
    if (flags.get_bool("csv")) std::cout << table.to_csv() << '\n';
  }
  return sweep.write() ? 0 : 1;
}
