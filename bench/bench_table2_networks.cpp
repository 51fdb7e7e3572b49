// Regenerates Table 2 (the four Bayesian belief networks): nodes, edges per
// node, values per node, the 2-way edge-cut produced by our METIS-substitute
// partitioner, and the uniprocessor inference time of the logic-sampling
// engine (90% CI to +/-0.01).  Paper reference values are printed alongside.
#include <iostream>
#include <map>
#include <string>

#include "bayes/generators.hpp"
#include "bayes/partitioner.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("queries", 3, "query nodes per network")
      .add_int("seed", 21, "base seed")
      .add_bool("csv", false, "also emit CSV");
  if (!flags.parse(argc, argv)) return 1;

  // Paper's Table 2 values, for side-by-side comparison.
  struct PaperRow {
    double edges_per_node;
    double values;
    int cut;
    double time_s;
  };
  const std::map<std::string, PaperRow> paper = {
      {"A", {2.2, 2, 24, 11.12}},
      {"AA", {2.4, 2, 30, 11.19}},
      {"C", {2.0, 2, 24, 11.81}},
      {"Hailfinder", {1.2, 4, 4, 3.15}},
  };

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  nscc::harness::BayesSamplingWorkload bayes;
  bayes.evidence.clear();
  bayes.query_names.clear();
  nscc::harness::RunConfig run;
  run.seed = seed;

  nscc::util::Table table("Table 2 - four Bayesian belief networks");
  table.columns({"network", "nodes", "edges/node (paper)", "values/node (paper)",
                 "edge-cut 2p (paper)", "uniproc time s (paper)", "samples"});
  for (auto& [name, net] : nscc::bayes::table2_networks()) {
    const auto& p = paper.at(name);
    auto fmt = [](double ours, double theirs, int prec) {
      return nscc::util::format_double(ours, prec) + " (" +
             nscc::util::format_double(theirs, prec) + ")";
    };
    nscc::bayes::PartitionConfig pc;
    pc.parts = 2;
    const int cut =
        nscc::bayes::edge_cut(net, nscc::bayes::partition_network(net, pc));
    bayes.queries = nscc::bayes::default_queries(
        net, static_cast<int>(flags.get_int("queries")), seed);
    bayes.network = std::move(net);
    const nscc::harness::RunStats serial = bayes.reference(run);
    table.row()
        .cell(name)
        .cell(static_cast<std::int64_t>(bayes.network.size()))
        .cell(fmt(bayes.network.edges_per_node(), p.edges_per_node, 1))
        .cell(fmt(bayes.network.average_cardinality(), p.values, 0))
        .cell(std::to_string(cut) + " (" + std::to_string(p.cut) + ")")
        .cell(fmt(nscc::sim::to_seconds(serial.completion_time), p.time_s, 2))
        .cell(static_cast<std::uint64_t>(serial.extra_value("samples_drawn")));
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return 0;
}
