// Tests for the harness cell runner: the paper's figure protocol (variant
// list and order, quality-matched budgets, paper-style averages, the
// best-vs-best-competitor bar) on reduced GA and Bayes cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bayes/generators.hpp"
#include "bayes/partitioner.hpp"
#include "harness/cell.hpp"
#include "harness/workloads.hpp"

namespace {

using nscc::harness::CellConfig;
using nscc::harness::CellResult;
using nscc::harness::GaIslandWorkload;

GaIslandWorkload tiny_ga() {
  GaIslandWorkload ga;
  ga.function_id = 1;
  ga.demes = 2;
  ga.generations = 40;
  return ga;
}

CellConfig tiny_cell() {
  CellConfig cfg;
  cfg.variants = CellConfig::paper_variants({0, 10});
  cfg.base.seed = 5;
  return cfg;
}

TEST(GaExperiments, CellProducesAllVariants) {
  auto ga = tiny_ga();
  const auto cell = run_cell(ga, tiny_cell());
  ASSERT_EQ(cell.variants.size(), 5u);
  const std::vector<std::string> tags = {"serial", "sync", "async", "age0",
                                         "age10"};
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(cell.variants[i].spec.tag(), tags[i]);
  }
  EXPECT_DOUBLE_EQ(cell.variant("serial").speedup, 1.0);
  for (const auto& v : cell.variants) {
    EXPECT_GT(v.field("completion_s"), 0.0) << v.spec.tag();
    EXPECT_GT(v.field("generations"), 0.0) << v.spec.tag();
  }
  EXPECT_THROW((void)cell.variant("nope"), std::out_of_range);
  EXPECT_THROW((void)cell.variant("partial", 5), std::out_of_range);
}

TEST(GaExperiments, BestPartialOverBestCompetitor) {
  auto ga = tiny_ga();
  const auto cell = run_cell(ga, tiny_cell());
  const double best_partial = std::max(cell.variant("partial", 0).speedup,
                                       cell.variant("partial", 10).speedup);
  const double best_other =
      std::max({cell.variant("serial").speedup, cell.variant("sync").speedup,
                cell.variant("async").speedup});
  EXPECT_NEAR(cell.best_partial_over_best_competitor(),
              best_partial / best_other, 1e-12);
}

TEST(GaExperiments, AverageUsesSummedTimes) {
  auto ga = tiny_ga();
  auto cfg = tiny_cell();
  cfg.reps = 2;
  std::vector<CellResult> cells;
  cells.push_back(run_cell(ga, cfg));
  ga.function_id = 3;
  cells.push_back(run_cell(ga, cfg));
  const auto avg = nscc::harness::average_cells(cells);
  ASSERT_EQ(avg.variants.size(), cells.front().variants.size());
  // Paper metric: sum of serial times over sum of variant times.
  const double serial_sum = cells[0].variant("serial").sum_time_s +
                            cells[1].variant("serial").sum_time_s;
  const double sync_sum = cells[0].variant("sync").sum_time_s +
                          cells[1].variant("sync").sum_time_s;
  EXPECT_NEAR(avg.variant("sync").speedup, serial_sum / sync_sum, 1e-12);
  EXPECT_DOUBLE_EQ(avg.variant("serial").speedup, 1.0);
  // Every other field is a plain mean over cells.
  EXPECT_DOUBLE_EQ(avg.variant("sync").field("mean_warp"),
                   (cells[0].variant("sync").field("mean_warp") +
                    cells[1].variant("sync").field("mean_warp")) /
                       2);
}

TEST(GaExperiments, DeterministicCells) {
  auto ga = tiny_ga();
  const auto a = run_cell(ga, tiny_cell());
  const auto b = run_cell(ga, tiny_cell());
  ASSERT_EQ(a.variants.size(), b.variants.size());
  for (std::size_t i = 0; i < a.variants.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.variants[i].speedup, b.variants[i].speedup);
    EXPECT_EQ(a.variants[i].fields, b.variants[i].fields);
  }
}

TEST(GaExperiments, MissedSyncBarGrowsGenerations) {
  // Sixteen demes on f6 for 20 generations: the uncontrolled asynchronous
  // program ends short of the sync program's average fitness, so the
  // matching rule grows its budget past the base 20.
  GaIslandWorkload ga;
  ga.function_id = 6;
  ga.demes = 16;
  ga.generations = 20;
  CellConfig cfg;
  cfg.variants = CellConfig::paper_variants({});
  cfg.base.seed = 1;
  const auto cell = run_cell(ga, cfg);
  EXPECT_EQ(cell.variant("serial").field("generations"), 20.0);
  EXPECT_EQ(cell.variant("sync").field("generations"), 20.0);
  EXPECT_GT(cell.variant("async").field("generations"), 20.0);
  EXPECT_LE(cell.variant("async").field("generations"), 60.0);
}

TEST(GaExperiments, RejectsBadConfigs) {
  auto ga = tiny_ga();
  auto cfg = tiny_cell();
  cfg.reps = 0;
  EXPECT_THROW((void)run_cell(ga, cfg), std::invalid_argument);
  cfg = tiny_cell();
  cfg.variants.push_back(nscc::harness::make_variant("sync", 0));
  EXPECT_THROW((void)run_cell(ga, cfg), std::invalid_argument);
}

TEST(BayesExperiments, Table2RowsMatchStructure) {
  const auto nets = nscc::bayes::table2_networks();
  ASSERT_EQ(nets.size(), 4u);
  EXPECT_EQ(nets[0].name, "A");
  EXPECT_EQ(nets[3].name, "Hailfinder");
  nscc::harness::BayesSamplingWorkload bayes;
  bayes.evidence.clear();
  nscc::harness::RunConfig run;
  run.seed = 21;
  std::vector<int> cuts;
  std::vector<double> times;
  for (const auto& [name, net] : nets) {
    nscc::bayes::PartitionConfig pc;
    pc.parts = 2;
    cuts.push_back(
        nscc::bayes::edge_cut(net, nscc::bayes::partition_network(net, pc)));
    bayes.network = net;
    bayes.queries = nscc::bayes::default_queries(net, 2, 21);
    times.push_back(
        nscc::sim::to_seconds(bayes.reference(run).completion_time));
    EXPECT_GE(net.size(), 54) << name;
    EXPECT_GT(cuts.back(), 0) << name;
    EXPECT_GT(times.back(), 0.0) << name;
  }
  // Table 2's qualitative facts: Hailfinder has by far the smallest cut
  // and the smallest uniprocessor inference time.
  EXPECT_LT(cuts[3], cuts[0] / 2);
  EXPECT_LT(times[3], times[0] / 2);
}

TEST(BayesExperiments, CellVariantsAndAverage) {
  nscc::harness::BayesSamplingWorkload bayes;
  auto nets = nscc::bayes::table2_networks();
  bayes.network = nets[3].net;  // Hailfinder.
  bayes.evidence.clear();
  bayes.queries = nscc::bayes::default_queries(bayes.network, 3, 21);
  CellConfig cfg;
  cfg.variants = CellConfig::paper_variants({10});
  cfg.base.seed = 21;
  std::vector<CellResult> cells;
  cells.push_back(run_cell(bayes, cfg));
  const auto& cell = cells[0];
  ASSERT_EQ(cell.variants.size(), 4u);  // serial, sync, async, age10.
  EXPECT_DOUBLE_EQ(cell.variant("serial").speedup, 1.0);
  // The paper's ordering on the speculation-friendly network:
  // sync < async < Global_Read.
  EXPECT_LT(cell.variant("sync").speedup, cell.variant("async").speedup);
  EXPECT_LT(cell.variant("async").speedup,
            cell.variant("partial", 10).speedup);
  const auto avg = nscc::harness::average_cells(cells);
  ASSERT_EQ(avg.variants.size(), 4u);
  EXPECT_NEAR(avg.variants[0].speedup, 1.0, 1e-12);
}

}  // namespace
