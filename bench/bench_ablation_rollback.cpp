// Ablation A3: rollback control in the parallel logic sampler.  Sweeps the
// Global_Read age and reports rollback counts, the invalidated work
// (nodes resampled), Global_Read blocking, and completion time, on both a
// mismatch-heavy random network and the speculation-friendly
// Hailfinder-like network (paper Section 3.2: the benefit of Global_Read is
// to restrict the number of costly rollbacks).
#include <iostream>

#include "bayes/generators.hpp"
#include "bayes/parallel_sampling.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("iterations", 4000, "sampling iterations per run")
      .add_int("seed", 21, "base seed")
      .add_bool("csv", false, "also emit CSV");
  if (!flags.parse(argc, argv)) return 1;

  nscc::util::Table table("Ablation A3 - rollback vs Global_Read age");
  table.columns({"network", "variant", "rollbacks", "nodes resampled",
                 "gr blocks", "block time s", "completion s"});

  for (const auto& named : nscc::bayes::table2_networks()) {
    if (named.name != "A" && named.name != "Hailfinder") continue;
    const auto queries = nscc::bayes::default_queries(named.net, 3, 11);
    auto run_one = [&](const std::string& label, nscc::dsm::Mode mode,
                       long age) {
      nscc::bayes::ParallelInferenceConfig cfg;
      cfg.mode = mode;
      cfg.age = age;
      cfg.iterations =
          static_cast<std::uint64_t>(flags.get_int("iterations"));
      cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
      const auto r = nscc::bayes::run_parallel_logic_sampling(
          named.net, {}, queries, cfg, {});
      table.row()
          .cell(named.name)
          .cell(label)
          .cell(r.rollbacks)
          .cell(r.nodes_resampled)
          .cell(r.global_read_blocks)
          .cell(nscc::sim::to_seconds(r.global_read_block_time), 2)
          .cell(nscc::sim::to_seconds(r.full_run_time), 2);
    };
    run_one("sync", nscc::dsm::Mode::kSynchronous, 0);
    for (long age : {0L, 2L, 5L, 10L, 20L, 30L}) {
      run_one("age" + std::to_string(age), nscc::dsm::Mode::kPartialAsync, age);
    }
    run_one("async", nscc::dsm::Mode::kAsynchronous, 0);
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return 0;
}
