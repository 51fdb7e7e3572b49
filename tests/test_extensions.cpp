// Tests for the extensions grounded in the paper's own text: the requesting
// Global_Read implementation (Section 2), the dynamic age controller
// (Section 6 future work), and their integration into the island GA.
#include <gtest/gtest.h>

#include "dsm/adaptive_age.hpp"
#include "dsm/shared_space.hpp"
#include "ga/island.hpp"
#include "rt/vm.hpp"

namespace {

using nscc::dsm::AdaptiveAgeController;
using nscc::dsm::GlobalReadImpl;
using nscc::dsm::SharedSpace;
using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sim::kMillisecond;

MachineConfig fast_config(int ntasks) {
  MachineConfig c;
  c.ntasks = ntasks;
  c.bus.propagation_delay = 0;
  c.bus.frame_overhead_bytes = 0;
  c.send_sw_overhead = 0;
  c.recv_sw_overhead = 0;
  return c;
}

/// Task `pid`'s counter `name` in `vm`'s registry.
std::uint64_t count(const VirtualMachine& vm, const char* name, int pid) {
  return vm.obs().registry().counter_value(name, pid);
}

TEST(RequestingGlobalRead, SendsOneRequestPerBlockedRead) {
  VirtualMachine vm(fast_config(2));
  vm.add_task("writer", [&](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    for (int i = 0; i < 5; ++i) {
      t.compute(10 * kMillisecond);
      Packet p;
      p.pack_double(i);
      space.write(1, i, std::move(p));
    }
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace space(t, {.coalesce = false,
                          .read_impl = GlobalReadImpl::kRequest});
    space.declare_read(1, 0);
    for (int i = 0; i < 5; ++i) {
      (void)space.global_read(1, i, 0);  // Always starved: blocks each time.
    }
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(count(vm, "dsm.requests_sent", 1), 5u);
  // The writer saw the starvation hints (its DSM entry points drain them).
  EXPECT_GT(count(vm, "dsm.hints_received", 0), 0u);
}

TEST(RequestingGlobalRead, DemandRepliesServeSatisfiableRequests) {
  // The writer is AHEAD of what the reader needs, but its update to the
  // reader was lost conceptually: here we force the situation by having
  // the writer produce before the reader declares interest in an old
  // iteration — the demand is immediately satisfiable from the local copy.
  VirtualMachine vm(fast_config(2));
  nscc::sim::Time reader_done = 0;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    Packet p;
    p.pack_double(7.0);
    space.write(1, 10, std::move(p));  // Far ahead already.
    // Idle loop that touches the DSM so demands get served.
    for (int i = 0; i < 20; ++i) {
      t.compute(5 * kMillisecond);
      space.poll();
    }
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace space(t, {.coalesce = false,
                          .read_impl = GlobalReadImpl::kRequest});
    space.declare_read(1, 0);
    t.compute(30 * kMillisecond);
    // The initial write's update arrived long ago; drop it to simulate a
    // reader that joined late: read it, then demand something newer than
    // its (already current) copy cannot be -- i.e. this read is satisfied.
    (void)space.global_read(1, 10, 0);
    reader_done = t.now();
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_GT(reader_done, 0);
  // None: the original update already satisfied the read.
  EXPECT_EQ(count(vm, "dsm.request_replies", 0), 0u);
}

TEST(RequestingGlobalRead, WaitImplSendsNoRequests) {
  VirtualMachine vm(fast_config(2));
  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    t.compute(5 * kMillisecond);
    Packet p;
    p.pack_double(0.0);
    space.write(1, 0, std::move(p));
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace space(t);  // Default: kWait.
    space.declare_read(1, 0);
    (void)space.global_read(1, 0, 0);
  });
  vm.run();
  EXPECT_EQ(count(vm, "dsm.requests_sent", 1), 0u);
}

TEST(AdaptiveAge, RaisesUnderSustainedBlocking) {
  AdaptiveAgeController::Config cfg;
  cfg.initial_age = 5;
  cfg.increase_step = 3;
  cfg.max_age = 20;
  AdaptiveAgeController ctl(cfg);
  for (int i = 0; i < 10; ++i) {
    ctl.observe(100 * kMillisecond, 20 * kMillisecond, 1.0);  // 20% blocked.
  }
  EXPECT_EQ(ctl.age(), 20);  // Clamped at max.
  EXPECT_GT(ctl.increases(), 0u);
}

TEST(AdaptiveAge, LowersWhenComfortable) {
  AdaptiveAgeController::Config cfg;
  cfg.initial_age = 20;
  cfg.decrease_step = 2;
  cfg.min_age = 2;
  AdaptiveAgeController ctl(cfg);
  for (int i = 0; i < 20; ++i) {
    ctl.observe(100 * kMillisecond, 0, 1.0);  // Never blocked, fresh data.
  }
  EXPECT_EQ(ctl.age(), 2);  // Clamped at min.
  EXPECT_GT(ctl.decreases(), 0u);
}

TEST(AdaptiveAge, HoldsInTheDeadBand) {
  AdaptiveAgeController::Config cfg;
  cfg.initial_age = 10;
  AdaptiveAgeController ctl(cfg);
  // Slightly blocked (under threshold) and staleness near the budget:
  // neither rule fires.
  for (int i = 0; i < 10; ++i) {
    ctl.observe(100 * kMillisecond, 2 * kMillisecond, 8.0);
  }
  EXPECT_EQ(ctl.age(), 10);
  EXPECT_EQ(ctl.increases() + ctl.decreases(), 0u);
}

TEST(AdaptiveAge, IgnoresDegenerateIntervals) {
  AdaptiveAgeController ctl;
  const auto before = ctl.age();
  ctl.observe(0, 0, 0.0);
  EXPECT_EQ(ctl.age(), before);
}

TEST(AdaptiveAge, IslandGaIntegrationConvergesAndAdapts) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 1;
  cfg.mode = nscc::dsm::Mode::kPartialAsync;
  cfg.adaptive_age = true;
  cfg.adaptive.initial_age = 25;
  cfg.ndemes = 4;
  cfg.generations = 60;
  cfg.seed = 77;
  cfg.compute.node_speed_spread = 0.3;
  const auto r = nscc::ga::run_island_ga(cfg, {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_LT(r.best_fitness, 0.5);
  EXPECT_GT(r.age_adjustments, 0u);          // It actually adapted...
  EXPECT_LT(r.mean_final_age, 25.0);         // ...down from a lazy start
  EXPECT_GE(r.mean_final_age, 0.0);          // on an unloaded network.
}

TEST(AdaptiveAge, DisabledByDefault) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 1;
  cfg.mode = nscc::dsm::Mode::kPartialAsync;
  cfg.age = 7;
  cfg.ndemes = 3;
  cfg.generations = 20;
  cfg.seed = 79;
  const auto r = nscc::ga::run_island_ga(cfg, {});
  EXPECT_EQ(r.age_adjustments, 0u);
  EXPECT_DOUBLE_EQ(r.mean_final_age, 7.0);
}

}  // namespace
