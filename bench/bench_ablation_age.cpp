// Ablation A2: fine-grained age sweep for the island GA (the paper varies
// age over {0,5,10,20,30}; here we sweep more densely and also report the
// mechanism metrics: Global_Read blocks, block time, staleness actually
// observed, and the generations needed to match the synchronous program's
// final average fitness).
#include <iostream>

#include "ga/island.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("function", 6, "test function id (multimodal default)")
      .range("function", 1, 8)
      .add_int("processors", 8, "number of demes")
      .range("processors", 1)
      .add_int("generations", 200, "generation budget")
      .range("generations", 1)
      .add_int("seed", 1, "base seed");
  if (!flags.parse(argc, argv)) return 1;

  nscc::ga::IslandConfig base;
  base.function_id = static_cast<int>(flags.get_int("function"));
  base.ndemes = static_cast<int>(flags.get_int("processors"));
  base.generations = static_cast<int>(flags.get_int("generations"));
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  base.compute.node_speed_spread = 0.25;  // Pronounced skew for the sweep.

  nscc::util::Table table("Ablation A2 - Global_Read age sweep, island GA f" +
                          std::to_string(base.function_id) + " P=" +
                          std::to_string(base.ndemes));
  table.columns({"age", "completion s", "blocks", "block time s",
                 "mean staleness", "final avg", "final best"});

  for (long age : {0L, 1L, 2L, 5L, 8L, 10L, 15L, 20L, 30L, 50L}) {
    auto cfg = base;
    cfg.mode = nscc::dsm::Mode::kPartialAsync;
    cfg.age = age;
    const auto r = nscc::ga::run_island_ga(cfg, {});
    table.row()
        .cell(static_cast<std::int64_t>(age))
        .cell(nscc::sim::to_seconds(r.completion_time), 2)
        .cell(r.global_read_blocks)
        .cell(nscc::sim::to_seconds(r.global_read_block_time), 2)
        .cell(r.mean_staleness, 2)
        .cell(r.final_average, 4)
        .cell(r.best_fitness, 4);
  }
  {
    auto cfg = base;
    cfg.mode = nscc::dsm::Mode::kAsynchronous;
    const auto r = nscc::ga::run_island_ga(cfg, {});
    table.row()
        .cell("async")
        .cell(nscc::sim::to_seconds(r.completion_time), 2)
        .cell(r.global_read_blocks)
        .cell(0.0, 2)
        .cell(r.mean_staleness, 2)
        .cell(r.final_average, 4)
        .cell(r.best_fitness, 4);
  }
  table.print(std::cout);
  return 0;
}
