// Extension experiment (paper Section 6 future work): larger Bayesian
// networks.  The paper's 54-node networks "did not exhibit enough
// parallelism to be run on larger configurations"; here we scale the same
// random-network recipe to a few hundred nodes and run 2- and 4-way
// partitions, showing (a) parallel inference finally beating the
// uniprocessor, and (b) the Global_Read variants extending their lead as
// the per-iteration computation grows relative to communication.
#include <iostream>
#include <tuple>

#include "bayes/generators.hpp"
#include "bayes/partitioner.hpp"
#include "harness/cell.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nscc;
  util::Flags flags;
  flags.add_int("seed", 21, "random seed")
      .add_int("queries", 3, "query nodes per network")
      .range("queries", 1);
  harness::Sweep sweep("ext_bayes_scaling");
  harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);

  harness::CellConfig cfg;
  cfg.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.variants = harness::CellConfig::paper_variants({10, 30});

  util::Table table("Extension - larger belief networks (paper future work)");
  table.columns(harness::figure_columns(
      {"network", "nodes", "P", "edge-cut", "serial s"}, cfg.variants));

  harness::BayesSamplingWorkload bayes;
  bayes.evidence.clear();
  bayes.query_names.clear();
  for (auto [label, nodes, epn] :
       {std::tuple{"L200", 200, 2.0}, {"L400", 400, 1.8}}) {
    bayes::RandomNetworkConfig nc;
    nc.nodes = nodes;
    nc.edges = static_cast<int>(nodes * epn);
    nc.skew = 0.55;
    nc.seed = cfg.base.seed ^ static_cast<std::uint64_t>(nodes);
    bayes.network = bayes::make_random_network(nc);
    bayes.queries = bayes::default_queries(
        bayes.network, static_cast<int>(flags.get_int("queries")),
        cfg.base.seed);
    for (int P : {2, 4}) {
      bayes.parts = P;
      const harness::CellResult cell = harness::run_cell(bayes, cfg);
      harness::record_cell(sweep, bayes.name() + ":" + label, cfg, cell,
                           {{"nodes", static_cast<double>(nodes)},
                            {"processors", static_cast<double>(P)}});
      const int cut = bayes::edge_cut(
          bayes.network, bayes::partition_network(bayes.network, {.parts = P}));
      add_speedups(table.row()
                       .cell(label)
                       .cell(nodes)
                       .cell(P)
                       .cell(cut)
                       .cell(cell.variant("serial").field("completion_s"), 1),
                   cell);
    }
  }
  table.print(std::cout);
  return sweep.write() ? 0 : 1;
}
