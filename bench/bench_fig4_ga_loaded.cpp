// Regenerates Figure 4: GA speedups on the loaded network.  Four processors
// run the benchmarks while a network loader injects 0.5 / 1 / 2 Mbps of
// background traffic into the shared 10 Mbps Ethernet (the paper used two
// dedicated loader nodes).  Prints function 1 (best case) and the
// eight-function average per load level, plus the best-partial-over-best-
// competitor bar, which the paper shows growing with load.
#include <iostream>
#include <vector>

#include "harness/cell.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("generations", 200, "sync/serial generation budget (paper: 1000)")
      .range("generations", 1)
      .add_int("reps", 2, "repetitions (paper: 25)")
      .range("reps", 1)
      .add_int("functions", 8, "use test functions 1..N")
      .range("functions", 1, 8)
      .add_int("processors", 4, "GA processors (paper: 4 + 2 loader nodes)")
      .range("processors", 1)
      .add_int("seed", 1, "base seed")
      .add_bool("paper-scale", false, "paper protocol: 1000 gens, 25 reps");
  if (!flags.parse(argc, argv)) return 1;

  nscc::harness::GaIslandWorkload ga;
  ga.generations = static_cast<int>(flags.get_int("generations"));
  ga.demes = static_cast<int>(flags.get_int("processors"));
  nscc::harness::CellConfig cfg;
  cfg.reps = static_cast<int>(flags.get_int("reps"));
  if (flags.get_bool("paper-scale")) {
    ga.generations = 1000;
    cfg.reps = 25;
  }
  cfg.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int nfuncs = static_cast<int>(flags.get_int("functions"));

  nscc::util::Table table("Figure 4 - GA speedups on the loaded network (P=" +
                          std::to_string(ga.demes) + ")");
  table.columns(nscc::harness::figure_columns({"load", "series"}, cfg.variants));

  for (double load : {0.0, 0.5, 1.0, 2.0}) {
    cfg.base.loader_offered_bps = load * 1e6;
    std::vector<nscc::harness::CellResult> cells;
    for (int f = 1; f <= nfuncs; ++f) {
      ga.function_id = f;
      cells.push_back(nscc::harness::run_cell(ga, cfg));
    }
    const std::string label = nscc::util::format_double(load, 1) + " Mbps";
    add_speedups(table.row().cell(label).cell("f1"), cells.front());
    add_speedups(table.row().cell(label).cell("average"),
                 nscc::harness::average_cells(cells));
  }
  table.print(std::cout);
  return 0;
}
