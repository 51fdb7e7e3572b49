// Harness-layer tests: registry behaviour, the RunConfig -> legacy-config
// mapping of every workload adapter, and the golden parity table.
//
// The golden table pins the exact metrics the four pre-refactor example
// drivers printed for fixed small configs, on both interconnects.  The
// simulation is deterministic, so the harness port must reproduce them
// byte-for-byte; any drift means the refactor changed an application's
// behaviour, not just its packaging.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/run_config.hpp"
#include "harness/workload.hpp"
#include "harness/workloads.hpp"
#include "rt/vm.hpp"

namespace {

using namespace nscc;
using harness::Registry;
using harness::RunConfig;
using harness::RunStats;

TEST(Registry, GlobalHasTheFourBuiltinWorkloads) {
  auto& reg = Registry::global();
  EXPECT_EQ(reg.size(), 4u);
  for (const char* name :
       {"ga.island", "bayes.sampling", "solver.jacobi", "nn.train"}) {
    auto* w = reg.find(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
  }
  EXPECT_EQ(reg.find("no.such.workload"), nullptr);
}

TEST(Registry, RejectsDuplicateNames) {
  Registry reg;
  harness::register_builtin_workloads(reg);
  ASSERT_EQ(reg.size(), 4u);
  EXPECT_FALSE(reg.add(std::make_unique<harness::GaIslandWorkload>()));
  EXPECT_EQ(reg.size(), 4u);
}

TEST(Registry, FindOnEmptyRegistryIsNull) {
  Registry reg;
  EXPECT_EQ(reg.find("ga.island"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
}

// ---- RunConfig -> legacy-config parity -------------------------------------

RunConfig sample_run() {
  RunConfig run;
  run.mode = dsm::Mode::kPartialAsync;
  run.age = 7;
  run.seed = 42;
  run.propagation.coalesce = true;
  run.propagation.read_timeout = 123 * sim::kMillisecond;
  run.loader_offered_bps = 2e6;
  return run;
}

TEST(Parity, GaIslandBuildMapsEveryField) {
  harness::GaIslandWorkload w;
  w.function_id = 3;
  w.demes = 5;
  w.generations = 77;
  const ga::IslandConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_TRUE(cfg.propagation.coalesce);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.function_id, 3);
  EXPECT_EQ(cfg.ndemes, 5);
  EXPECT_EQ(cfg.generations, 77);
}

TEST(Parity, BayesBuildMapsEveryField) {
  harness::BayesSamplingWorkload w;
  w.parts = 3;
  w.iterations = 999;
  const bayes::ParallelInferenceConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.parts, 3);
  EXPECT_EQ(cfg.iterations, 999u);
}

TEST(Parity, JacobiBuildMapsEveryField) {
  harness::JacobiWorkload w;
  w.grid = 9;
  w.processors = 3;
  w.tolerance = 1e-6;
  const solver::ParallelJacobiConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_TRUE(cfg.propagation.coalesce);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.processors, 3);
  EXPECT_DOUBLE_EQ(cfg.tolerance, 1e-6);
  EXPECT_EQ(cfg.check_interval, 25);  // The legacy jacobi_solver default.
}

TEST(Parity, NnBuildMapsEveryField) {
  harness::NnTrainWorkload w;
  w.workers = 6;
  w.steps = 123;
  const nn::TrainConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.workers, 6);
  EXPECT_EQ(cfg.steps, 123);
}

// ---- Golden metrics --------------------------------------------------------

struct GoldenRow {
  const char* workload;
  const char* network;  // "ethernet" | "sp2"
  const char* variant;  // "sync" | "async" | "partial"
  sim::Time completion_time;
  std::uint64_t messages_sent;
  std::uint64_t global_read_blocks;
  sim::Time global_read_block_time;
  double quality;
  bool deadlocked;
};

// Captured from the pre-refactor per-app drivers (deterministic simulation;
// exact values).  Configs: ga.island f1, 4 demes, 40 generations, seed 7;
// bayes.sampling Figure 1, 2 parts, 1500 iterations, seed 11;
// solver.jacobi 12x12 Poisson, P=4, tol 1e-7, check every 25, seed 5;
// nn.train two-spirals(60), 4 workers, 80 steps, seed 7, partial age 2.
// All partial ages 10 unless noted; coalesce iff partial (ga and solver
// honour it; bayes and nn never coalesce).
const GoldenRow kGolden[] = {
    {"ga.island", "ethernet", "sync", 1380090335, 732, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "ethernet", "async", 1144798081, 492, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "ethernet", "partial", 1136349597, 492, 6, 11854142,
     7.514669923145609e-05, false},
    {"ga.island", "sp2", "sync", 1359007439, 732, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "sp2", "async", 1140647152, 492, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "sp2", "partial", 1135998155, 492, 5, 10598342,
     7.514669923145609e-05, false},
    {"bayes.sampling", "ethernet", "sync", 6252661962, 9002, 3000, 2273817200,
     0.79928315412186379, false},
    {"bayes.sampling", "ethernet", "async", 3390735243, 6201, 0, 0,
     0.79928315412186379, false},
    {"bayes.sampling", "ethernet", "partial", 1255840889, 1381, 43, 393799675,
     0.79928315412186379, false},
    {"bayes.sampling", "sp2", "sync", 5987210412, 9002, 3000, 1933316600,
     0.79928315412186379, false},
    {"bayes.sampling", "sp2", "async", 3382177871, 6194, 0, 0,
     0.79928315412186379, false},
    {"bayes.sampling", "sp2", "partial", 1251309978, 1379, 35, 383996398,
     0.79928315412186379, false},
    {"solver.jacobi", "ethernet", "sync", 2369206750, 4914, 0, 0,
     6.3698217367402776e-08, false},
    {"solver.jacobi", "ethernet", "async", 968387409, 2382, 0, 0,
     6.8683521758927668e-08, false},
    {"solver.jacobi", "ethernet", "partial", 940967034, 2203, 265, 342854793,
     5.4146196415416625e-08, false},
    {"solver.jacobi", "sp2", "sync", 2013126008, 4914, 0, 0,
     6.3698217367402776e-08, false},
    {"solver.jacobi", "sp2", "async", 892354457, 2214, 0, 0,
     7.5415694134051137e-08, false},
    {"solver.jacobi", "sp2", "partial", 900703286, 2226, 44, 49778757,
     5.3192594995365994e-08, false},
    {"nn.train", "ethernet", "sync", 1567652859, 644, 320, 5714292254,
     0.23438190940819084, false},
    {"nn.train", "ethernet", "async", 1434434619, 644, 0, 0,
     0.33470809886347064, false},
    {"nn.train", "ethernet", "partial", 1474180957, 644, 312, 5266919106,
     0.23456452125305255, false},
    {"nn.train", "sp2", "sync", 423170080, 644, 320, 1175236150,
     0.23438190940819084, false},
    {"nn.train", "sp2", "async", 334082350, 644, 0, 0,
     0.29409001511218097, false},
    {"nn.train", "sp2", "partial", 335014844, 644, 311, 797926182,
     0.23456705591026542, false},
};

/// Build the registry with the small golden problem sizes and seeds.
struct GoldenSetup {
  Registry registry;
  std::uint64_t seed(const std::string& workload) const {
    if (workload == "bayes.sampling") return 11;
    if (workload == "solver.jacobi") return 5;
    return 7;
  }
  long partial_age(const std::string& workload) const {
    return workload == "nn.train" ? 2 : 10;
  }
  GoldenSetup() {
    auto ga = std::make_unique<harness::GaIslandWorkload>();
    ga->function_id = 1;
    ga->demes = 4;
    ga->generations = 40;
    registry.add(std::move(ga));
    auto bayes = std::make_unique<harness::BayesSamplingWorkload>();
    bayes->parts = 2;
    bayes->iterations = 1500;
    registry.add(std::move(bayes));
    auto jacobi = std::make_unique<harness::JacobiWorkload>();
    jacobi->grid = 12;
    jacobi->processors = 4;
    jacobi->tolerance = 1e-7;
    registry.add(std::move(jacobi));
    auto nn = std::make_unique<harness::NnTrainWorkload>();
    nn->workers = 4;
    nn->steps = 80;
    registry.add(std::move(nn));
  }
};

TEST(Golden, HarnessReproducesPreRefactorMetricsExactly) {
  GoldenSetup setup;
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(std::string(row.workload) + " / " + row.network + " / " +
                 row.variant);
    auto* workload = setup.registry.find(row.workload);
    ASSERT_NE(workload, nullptr);

    // The variant wiring harness::drive() and the cell runner share.
    RunConfig base;
    base.seed = setup.seed(row.workload);
    const RunConfig run = harness::for_variant(
        base,
        harness::make_variant(row.variant, setup.partial_age(row.workload)));

    rt::MachineConfig machine;
    machine.network = std::string(row.network) == "sp2"
                          ? rt::Network::kSp2Switch
                          : rt::Network::kEthernet;

    const RunStats stats = workload->run(run, machine);
    EXPECT_EQ(stats.completion_time, row.completion_time);
    EXPECT_EQ(stats.messages_sent, row.messages_sent);
    EXPECT_EQ(stats.global_read_blocks, row.global_read_blocks);
    EXPECT_EQ(stats.global_read_block_time, row.global_read_block_time);
    EXPECT_EQ(stats.quality, row.quality);  // Exact: deterministic sim.
    EXPECT_EQ(stats.deadlocked, row.deadlocked);
  }
}

// ---- Variant parsing -------------------------------------------------------

TEST(Variants, ForVariantCoalescesOnlyThePartialVariant) {
  RunConfig base;
  base.seed = 9;
  for (const char* name : {"sync", "async", "partial"}) {
    const auto variant = harness::make_variant(name, 4);
    const RunConfig run = harness::for_variant(base, variant);
    EXPECT_EQ(run.mode, variant.mode) << name;
    EXPECT_EQ(run.age, variant.age) << name;
    EXPECT_EQ(run.propagation.coalesce, std::string(name) == "partial");
    EXPECT_EQ(run.seed, 9u) << name;
  }
  EXPECT_EQ(harness::make_variant("partial", 4).tag(), "age4");
}

TEST(Reference, EveryBuiltinWorkloadHasASerialBaseline) {
  GoldenSetup setup;
  for (const auto& name : setup.registry.names()) {
    RunConfig run;
    run.seed = setup.seed(name);
    const RunStats serial = setup.registry.find(name)->reference(run);
    EXPECT_GT(serial.completion_time, 0) << name;
    EXPECT_FALSE(serial.quality_name.empty()) << name;
  }
}

TEST(Variants, ParseAndLabel) {
  const auto variants = harness::parse_variants("sync,partial", 10);
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0].mode, dsm::Mode::kSynchronous);
  EXPECT_EQ(variants[0].label(), "synchronous");
  EXPECT_EQ(variants[1].mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(variants[1].age, 10);
  EXPECT_EQ(variants[1].label(), "Global_Read(10)");
}

}  // namespace
