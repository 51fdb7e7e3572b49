// Cross-stack integration tests: full end-to-end runs exercising several
// subsystems together, plus runtime edge cases not covered by the per-module
// suites.
#include <gtest/gtest.h>

#include "bayes/generators.hpp"
#include "bayes/parallel_sampling.hpp"
#include "dsm/shared_space.hpp"
#include "ga/island.hpp"
#include "harness/cell.hpp"
#include "harness/workloads.hpp"
#include "nn/train.hpp"
#include "rt/vm.hpp"
#include "solver/jacobi.hpp"

namespace {

using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;

TEST(Runtime, SingleTaskBarrierIsTrivial) {
  MachineConfig cfg;
  cfg.ntasks = 1;
  VirtualMachine vm(cfg);
  bool done = false;
  vm.add_task("solo", [&](Task& t) {
    t.barrier();
    done = true;
  });
  vm.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(vm.deadlocked());
}

TEST(Runtime, SenderWindowThrottlesAFlood) {
  MachineConfig cfg;
  cfg.ntasks = 2;
  cfg.sender_window_bytes = 4096;
  cfg.bus.bandwidth_bps = 1e6;  // Slow wire: the window must fill.
  VirtualMachine vm(cfg);
  vm.add_task("sink", [](Task& t) {
    for (int i = 0; i < 50; ++i) (void)t.recv(1);
  });
  vm.add_task("flooder", [](Task& t) {
    for (int i = 0; i < 50; ++i) {
      Packet p;
      p.pack_double_vec(std::vector<double>(128, 0.0));  // ~1KB each.
      t.send(0, 1, std::move(p));
    }
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_GT(vm.task(1).stats().send_backpressure_events, 0u);
  EXPECT_GT(vm.task(1).stats().send_backpressure_time, 0);
}

TEST(Runtime, UnlimitedWindowNeverBlocks) {
  MachineConfig cfg;
  cfg.ntasks = 2;
  cfg.sender_window_bytes = 0;
  cfg.bus.bandwidth_bps = 1e6;
  VirtualMachine vm(cfg);
  vm.add_task("sink", [](Task& t) {
    for (int i = 0; i < 20; ++i) (void)t.recv(1);
  });
  vm.add_task("flooder", [](Task& t) {
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.pack_double_vec(std::vector<double>(128, 0.0));
      t.send(0, 1, std::move(p));
    }
  });
  vm.run();
  EXPECT_EQ(vm.task(1).stats().send_backpressure_events, 0u);
}

TEST(Integration, GaCellOnTheSwitchRunsEndToEnd) {
  nscc::harness::GaIslandWorkload ga;
  ga.function_id = 2;
  ga.demes = 4;
  ga.generations = 30;
  nscc::harness::CellConfig cfg;
  cfg.variants = nscc::harness::CellConfig::paper_variants({5});
  cfg.base.seed = 3;
  cfg.machine.network = nscc::rt::Network::kSp2Switch;
  const auto cell = nscc::harness::run_cell(ga, cfg);
  ASSERT_EQ(cell.variants.size(), 4u);
  for (const auto& v : cell.variants) {
    EXPECT_GT(v.speedup, 0.0) << v.spec.tag();
  }
}

TEST(Integration, AllFourApplicationsShareOneSubstrate) {
  // Smoke-run every application class on small inputs; all must complete
  // deterministically on the same simulated machine configuration.
  nscc::ga::IslandConfig ga;
  ga.function_id = 3;
  ga.mode = nscc::dsm::Mode::kPartialAsync;
  ga.age = 5;
  ga.ndemes = 3;
  ga.generations = 15;
  ga.seed = 5;
  EXPECT_FALSE(nscc::ga::run_island_ga(ga, {}).deadlocked);

  const auto net = nscc::bayes::make_hailfinder_like();
  nscc::bayes::ParallelInferenceConfig bi;
  bi.mode = nscc::dsm::Mode::kPartialAsync;
  bi.age = 5;
  bi.iterations = 400;
  bi.seed = 5;
  EXPECT_FALSE(nscc::bayes::run_parallel_logic_sampling(
                   net, {}, nscc::bayes::default_queries(net, 2, 5), bi, {})
                   .deadlocked);

  const auto sys = nscc::solver::make_poisson_2d(8, 5);
  nscc::solver::ParallelJacobiConfig ja;
  ja.mode = nscc::dsm::Mode::kPartialAsync;
  ja.age = 5;
  ja.processors = 3;
  ja.tolerance = 1e-6;
  EXPECT_TRUE(nscc::solver::run_parallel_jacobi(sys, ja, {}).converged);

  const auto data = nscc::nn::make_two_spirals(20, 0.02, 5);
  nscc::nn::TrainConfig tr;
  tr.mode = nscc::dsm::Mode::kPartialAsync;
  tr.age = 2;
  tr.steps = 40;
  tr.workers = 3;
  tr.seed = 5;
  EXPECT_FALSE(nscc::nn::train_parallel(data, tr, {}).deadlocked);
}

TEST(Integration, MixedDsmTrafficAndAppMessagesCoexist) {
  // DSM updates, barrier traffic, and app-tag messages interleave on one
  // bus without cross-talk.
  MachineConfig cfg;
  cfg.ntasks = 3;
  VirtualMachine vm(cfg);
  std::vector<int> app_payloads;
  vm.add_task("writer", [](Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_written(1, {1, 2});
    for (int i = 0; i < 10; ++i) {
      t.compute(nscc::sim::kMillisecond);
      Packet p;
      p.pack_i32(i);
      space.write(1, i, std::move(p));
      // Interleave a direct application message.
      Packet q;
      q.pack_i32(100 + i);
      t.send(1, 77, std::move(q));
    }
    t.barrier();
  });
  vm.add_task("reader1", [&](Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_read(1, 0);
    for (int i = 0; i < 10; ++i) {
      const auto& v = space.global_read(1, i, 0);
      EXPECT_GE(v.iteration, i);
      app_payloads.push_back(t.recv(77).payload.unpack_i32());
    }
    t.barrier();
  });
  vm.add_task("reader2", [](Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_read(1, 0);
    (void)space.global_read(1, 9, 0);
    t.barrier();
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  ASSERT_EQ(app_payloads.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(app_payloads[static_cast<std::size_t>(i)], 100 + i);
}

}  // namespace
