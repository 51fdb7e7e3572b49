// Regenerates Figure 3: speedups of the parallel probabilistic-inference
// implementations (sync, async, Global_Read ages) over the sequential logic
// sampler, on a 2-node configuration with an unloaded network, for the four
// belief networks of Table 2, plus the cross-network average and the
// "best partial over best competitor" bar.
#include <iostream>
#include <string>
#include <utility>

#include "bayes/generators.hpp"
#include "harness/cell.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("reps", 3, "repetitions (paper: 10)")
      .range("reps", 1)
      .add_int("queries", 3, "query nodes per network")
      .add_int("seed", 21, "base seed")
      .add_bool("paper-scale", false, "paper protocol: 10 reps")
      .add_bool("csv", false, "also emit CSV");
  nscc::harness::Sweep sweep("fig3_bayes");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);

  nscc::harness::CellConfig cfg;
  cfg.reps = flags.get_bool("paper-scale")
                 ? 10
                 : static_cast<int>(flags.get_int("reps"));
  cfg.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int queries = static_cast<int>(flags.get_int("queries"));

  // Two processors, as in the paper: the small networks do not exhibit
  // enough parallelism for more.
  nscc::harness::BayesSamplingWorkload bayes;
  bayes.evidence.clear();
  bayes.query_names.clear();
  std::vector<std::string> names;
  std::vector<nscc::harness::CellResult> cells;
  for (auto& [name, net] : nscc::bayes::table2_networks()) {
    // One query set per network, drawn from the base seed.
    bayes.queries = nscc::bayes::default_queries(net, queries, cfg.base.seed);
    bayes.network = std::move(net);
    cells.push_back(nscc::harness::run_cell(bayes, cfg));
    names.push_back(name);
    // Aggregated per-variant records (means over reps -> repeat = -1); the
    // belief-network instance rides on the workload name after ':'.
    const std::size_t net_index = cells.size() - 1;
    for (const auto& v : cells.back().variants) {
      nscc::harness::SweepRecord rec;
      rec.workload = "bayes.sampling:" + name;
      rec.variant = v.spec.name;
      rec.age = v.spec.age;
      rec.seed = cfg.base.seed;
      rec.repeat = -1;
      rec.params = {{"processors", static_cast<double>(bayes.parts)},
                    {"network_index", static_cast<double>(net_index)},
                    {"queries", static_cast<double>(queries)},
                    {"reps", static_cast<double>(cfg.reps)}};
      rec.stats = {{"speedup", v.speedup},
                   {"mean_time_s", v.field("completion_s")},
                   {"converged_fraction", v.field("converged")},
                   {"rollbacks", v.field("rollbacks")},
                   {"nodes_resampled", v.field("nodes_resampled")},
                   {"mean_warp", v.field("mean_warp")}};
      sweep.add(std::move(rec));
    }
  }
  const auto avg = nscc::harness::average_cells(cells);

  nscc::util::Table table(
      "Figure 3 - Bayesian network speedups, 2 processors, unloaded network");
  table.columns(nscc::harness::figure_columns({"network"}, cfg.variants));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    add_speedups(table.row().cell(names[i]), cells[i]);
  }
  add_speedups(table.row().cell("average"), avg);
  table.print(std::cout);

  nscc::util::Table diag("Rollback diagnostics (mean per run)");
  diag.columns({"network", "async rollbacks", "async resampled",
                "age5 rollbacks", "age5 resampled", "age30 rollbacks",
                "age30 resampled"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& async = cells[i].variant("async");
    const auto& age5 = cells[i].variant("partial", 5);
    const auto& age30 = cells[i].variant("partial", 30);
    diag.row()
        .cell(names[i])
        .cell(async.field("rollbacks"), 0)
        .cell(async.field("nodes_resampled"), 0)
        .cell(age5.field("rollbacks"), 0)
        .cell(age5.field("nodes_resampled"), 0)
        .cell(age30.field("rollbacks"), 0)
        .cell(age30.field("nodes_resampled"), 0);
  }
  std::cout << '\n';
  diag.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return sweep.write() ? 0 : 1;
}
