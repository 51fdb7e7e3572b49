// Extension experiment (paper Section 4.1): the SP2's high-performance
// switch instead of the Ethernet.  The paper reported Ethernet numbers
// because its applications' communication demands made that the
// illustrative platform, and expected that "applications with higher
// communication requirements will see similar benefits from non-strict
// coherence even on faster interconnects".  This harness runs the island GA
// on both interconnects and shows (a) everything scales much further on the
// switch, and (b) the Global_Read programs retain an edge that grows with
// the communication load (processor count).
#include <iostream>

#include "harness/cell.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("function", 1, "GA test function")
      .range("function", 1, 8)
      .add_int("generations", 150, "generation budget")
      .range("generations", 1)
      .add_int("seed", 1, "base seed");
  if (!flags.parse(argc, argv)) return 1;

  nscc::util::Table table("Extension - Ethernet vs SP2 switch (island GA f" +
                          std::to_string(flags.get_int("function")) + ")");
  table.columns({"network", "P", "sync", "async", "age10", "age30",
                 "best partial/sync", "net util (sync)"});

  nscc::harness::GaIslandWorkload ga;
  ga.function_id = static_cast<int>(flags.get_int("function"));
  ga.generations = static_cast<int>(flags.get_int("generations"));
  nscc::harness::CellConfig cfg;
  cfg.variants = nscc::harness::CellConfig::paper_variants({10, 30});
  cfg.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  for (auto [label, network] :
       {std::pair{"10Mb Ethernet", nscc::rt::Network::kEthernet},
        {"SP2 switch", nscc::rt::Network::kSp2Switch}}) {
    cfg.machine.network = network;
    for (int P : {4, 16}) {
      ga.demes = P;
      const auto cell = nscc::harness::run_cell(ga, cfg);
      const auto& sync = cell.variant("sync");
      const double best_partial = std::max(cell.variant("partial", 10).speedup,
                                           cell.variant("partial", 30).speedup);
      table.row()
          .cell(label)
          .cell(static_cast<std::int64_t>(P))
          .cell(sync.speedup, 2)
          .cell(cell.variant("async").speedup, 2)
          .cell(cell.variant("partial", 10).speedup, 2)
          .cell(cell.variant("partial", 30).speedup, 2)
          .cell(best_partial / sync.speedup, 2)
          .cell(sync.field("bus_utilization"), 2);
    }
  }
  table.print(std::cout);
  return 0;
}
