// Heap-allocation budgets of the per-message hot path, of the MLP kernels
// and of whole benchmark runs, read from the process-wide counters behind
// obs::alloc_counts().  Every budget is taken after a warm-up that grows
// the reused buffers (key heap, callback slab, transmit-state pool, packet
// pool, mailboxes, unpack scratch) to their working size; from then on an
// event, a message or an applied update must not touch the heap beyond
// what the budget names.  A closure that silently outgrows its inline
// buffer, a copy where a move was meant, or a packet that bypasses the
// machine's packet pool fails here.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dsm/shared_space.hpp"
#include "harness/workloads.hpp"
#include "nn/mlp.hpp"
#include "obs/profiler.hpp"
#include "rt/vm.hpp"
#include "sim/engine.hpp"

namespace {

using nscc::obs::alloc_counts;
using nscc::sim::Engine;
using nscc::sim::kMillisecond;

std::uint64_t allocs() { return alloc_counts().count; }

/// A payload of `bytes` bytes on `p`'s buffer: one allocation for a fresh
/// packet, none for a pooled one that has held this size before.
nscc::rt::Packet payload_of(std::uint32_t bytes, nscc::rt::Packet p = {}) {
  p.reserve(bytes);
  for (std::uint32_t i = 0; i < bytes; ++i) {
    p.pack_u8(static_cast<std::uint8_t>(i));
  }
  return p;
}

TEST(AllocBudget, EngineEventsAndWatchdogsAllocateNothing) {
  Engine eng;
  std::uint64_t ran = 0;
  std::uint64_t fired = 0;
  auto round = [&](int events) {
    for (int i = 0; i < events; ++i) {
      const std::array<std::uint64_t, 4> pad{};
      auto fn = [&ran, pad] { ran += 1 + pad[0]; };
      static_assert(sizeof(fn) == 40, "a 40-byte capture");
      eng.schedule(eng.now() + 1 + i % 7, std::move(fn));
      const auto wd = eng.set_watchdog(eng.now() + 5, [&fired] { ++fired; });
      EXPECT_TRUE(eng.cancel_watchdog(wd));
    }
    eng.run();
  };
  round(1000);  // Warm-up: grows the key heap and the slab.
  const std::uint64_t before = allocs();
  round(1000);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(ran, 2000u);
  EXPECT_EQ(fired, 0u);
}

/// Allocations per message, after warm-up, of two tasks trading bursts of
/// `burst` fresh 35-byte payloads (one allocation each, made here) on a
/// perfect Ethernet: no fault plan, no reliable transport.  Each side
/// computes while the other's burst arrives, so the whole burst waits in
/// its mailbox before the receives drain it.
double ping_pong_allocs_per_message(int burst) {
  nscc::rt::MachineConfig machine;
  machine.ntasks = 2;
  nscc::rt::VirtualMachine vm(machine);
  constexpr int kWarm = 200;
  constexpr int kRounds = 2000;
  constexpr int kTag = 7;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  vm.add_task("ping", [&](nscc::rt::Task& t) {
    for (int i = 0; i < kWarm + kRounds; ++i) {
      if (i == kWarm) before = allocs();
      for (int b = 0; b < burst; ++b) t.send(1, kTag, payload_of(35));
      t.compute(10 * kMillisecond);
      for (int b = 0; b < burst; ++b) (void)t.recv(kTag);
    }
    after = allocs();
  });
  vm.add_task("pong", [&](nscc::rt::Task& t) {
    for (int i = 0; i < kWarm + kRounds; ++i) {
      t.compute(10 * kMillisecond);
      for (int b = 0; b < burst; ++b) (void)t.recv(kTag);
      for (int b = 0; b < burst; ++b) t.send(0, kTag, payload_of(35));
    }
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  return static_cast<double>(after - before) / (2.0 * kRounds * burst);
}

TEST(AllocBudget, PingPongAllocatesOnlyItsPayloads) {
  // The runtime adds nothing to the payload: no transmit state, no
  // delivery closure, no copy at delivery, and no mailbox block even when
  // several messages wait in a mailbox at once.
  for (const int burst : {1, 4}) {
    SCOPED_TRACE(burst);
    EXPECT_LE(ping_pong_allocs_per_message(burst), 1.0);
  }
}

TEST(AllocBudget, ApplyUpdateAllocatesNothing) {
  // The writer sends two bursts; the reader applies the first (warm-up:
  // the unpack scratch and the location's buffer reach the value size),
  // then counts allocations while it applies the second.
  nscc::rt::MachineConfig machine;
  machine.ntasks = 2;
  nscc::rt::VirtualMachine vm(machine);
  constexpr int kBurst = 200;
  std::uint64_t applied = 0;
  std::uint64_t spent = 0;
  vm.add_task("writer", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_written(1, {1});
    for (int i = 0; i < 2 * kBurst; ++i) {
      if (i == kBurst) t.compute(1000 * kMillisecond);
      space.write(1, i, payload_of(24));
    }
  });
  vm.add_task("reader", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_read(1, 0);
    t.compute(500 * kMillisecond);  // The first burst is queued by now.
    space.poll();
    t.compute(2000 * kMillisecond);  // And the second.
    const std::uint64_t before = allocs();
    space.poll();
    spent = allocs() - before;
    applied = space.stats().updates_applied;
  });
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  ASSERT_EQ(applied, 2u * kBurst);
  EXPECT_EQ(spent, 0u) << spent << " allocations for " << kBurst
                       << " applied updates";
}

TEST(AllocBudget, CoalescedFanOutAllocatesNothing) {
  // One writer publishes a 2.7 KB value (nn-partial's parameter vector)
  // to four readers with coalescing on, drawing each value from the
  // machine's packet pool, faster than the Ethernet drains the updates;
  // every reader waits in one Global_Read for the last value, applying
  // each update as it lands.  After warm-up the writes, their frames, the
  // coalesced stashes and resends, and the applies allocate nothing.
  nscc::rt::MachineConfig machine;
  machine.ntasks = 5;
  nscc::rt::VirtualMachine vm(machine);
  nscc::dsm::PropagationPolicy policy;
  policy.coalesce = true;
  constexpr int kWarm = 200;
  constexpr int kLast = kWarm + 300;
  constexpr std::uint32_t kBytes = 2712;
  std::uint64_t before = 0;
  std::uint64_t spent = 0;
  std::uint64_t coalesced = 0;
  int readers_done = 0;
  vm.add_task("writer", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t, policy);
    space.declare_written(1, {1, 2, 3, 4});
    for (int i = 0; i <= kLast; ++i) {
      if (i == kWarm) before = allocs();
      space.write(1, i, payload_of(kBytes, t.vm().packets().acquire()));
      t.compute(kMillisecond);
    }
    coalesced = space.stats().updates_coalesced;
    t.compute(10000 * kMillisecond);  // Outlive the measured window.
  });
  for (int r = 1; r <= 4; ++r) {
    vm.add_task("reader", [&](nscc::rt::Task& t) {
      nscc::dsm::SharedSpace space(t, policy);
      space.declare_read(1, 0);
      (void)space.global_read(1, kLast, 0);
      if (++readers_done == 4) spent = allocs() - before;
      t.compute(10000 * kMillisecond);
    });
  }
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  ASSERT_EQ(readers_done, 4);
  EXPECT_GT(coalesced, 0u) << "the stash-and-resend path ran";
  EXPECT_EQ(spent, 0u) << spent << " allocations for " << kLast - kWarm
                       << " writes to four readers";
}

TEST(AllocBudget, ParkedReleaseBurstFlushesWithoutAllocating) {
  // Release-acquire visibility: updates that arrive between acquires are
  // parked in wire form and published, in release order, at the next
  // Global_Read.  The reader parks and flushes a first burst (warm-up: the
  // release log, the unpack scratch and the packet pool reach their
  // working size), then counts allocations while it parks and flushes a
  // second.
  nscc::rt::MachineConfig machine;
  machine.ntasks = 2;
  nscc::rt::VirtualMachine vm(machine);
  nscc::dsm::PropagationPolicy policy;
  policy.consistency = "release-acquire";
  constexpr int kBurst = 200;
  std::uint64_t spent = 0;
  std::uint64_t parked = 0;
  std::uint64_t flushed = 0;
  vm.add_task("writer", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t, policy);
    space.declare_written(1, {1});
    for (int i = 0; i < 2 * kBurst; ++i) {
      if (i == kBurst) t.compute(1000 * kMillisecond);
      space.write(1, i, payload_of(24, t.vm().packets().acquire()));
    }
  });
  vm.add_task("reader", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t, policy);
    space.declare_read(1, 0);
    t.compute(500 * kMillisecond);  // The first burst is queued by now.
    space.poll();
    (void)space.global_read(1, kBurst - 1, 0);
    t.compute(2000 * kMillisecond);  // And the second.
    const std::uint64_t before = allocs();
    space.poll();
    (void)space.global_read(1, 2 * kBurst - 1, 0);
    spent = allocs() - before;
    parked = space.stats().updates_parked;
    flushed = space.stats().updates_flushed;
  });
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  ASSERT_EQ(parked, 2u * kBurst);
  ASSERT_EQ(flushed, 2u * kBurst);
  EXPECT_EQ(spent, 0u) << spent << " allocations to park and flush "
                       << kBurst << " updates";
}

TEST(AllocBudget, MlpKernelsAllocateNothing) {
  // The nn-partial net and data set.  The first round sizes `grad`; the
  // kernels' own scratch was sized when the net was built.
  const nscc::nn::Mlp net({2, 16, 16, 1}, 7);
  const auto data = nscc::nn::make_two_spirals(60, 0.02, 7);
  std::vector<double> grad;
  double sink = 0.0;
  auto round = [&] {
    sink += net.gradient(data.inputs, data.targets, 16, 16, grad);
    sink += net.loss(data.inputs, data.targets);
    sink += net.accuracy(data.inputs, data.targets);
  };
  round();
  const std::uint64_t before = allocs();
  round();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocBudget, LossySwitchJacobiRunStaysUnderItsBudget) {
  // One whole jacobi-lossy-sp2 benchmark run (seed 7): 16 blocks of a
  // 160x160 Poisson system, synchronous, over a 2%-lossy SP2 switch.  It
  // allocated 276,987 times while the lossy path delivered every frame as
  // a copy and the system was assembled row by row from empty vectors;
  // by-move delivery, a reserved publish packet and reserved rows cut
  // that to 136,553.  Drawing the published blocks, the DSM frames and
  // the transport ACKs from the machine's packet pool cut it to 29,222.
  // The budget leaves a little room above that.
  nscc::harness::JacobiWorkload jacobi;
  jacobi.grid = 160;
  jacobi.processors = 16;
  jacobi.tolerance = 1e-9;
  nscc::harness::RunConfig run;
  run.seed = 7;
  run.propagation.read_timeout = 50 * kMillisecond;
  nscc::rt::MachineConfig machine;
  machine.network = nscc::rt::Network::kSp2Switch;
  machine.fault.link.loss_prob = 0.02;
  machine.fault.seed = run.seed ^ 0xFA17ULL;
  machine.transport.enabled = true;
  (void)jacobi.run(run, machine);  // Warm-up: process-wide pools.
  const std::uint64_t before = allocs();
  const auto stats = jacobi.run(run, machine);
  const std::uint64_t spent = allocs() - before;
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_LE(spent, 30000U);
}

TEST(AllocBudget, BayesSyncRunStaysUnderItsBudget) {
  // One whole bayes-sync benchmark run (seed 7): the Figure 1 network in
  // two parts, 20,000 synchronous iterations over Ethernet.  It allocated
  // 340,472 times while every publication built a fresh payload vector and
  // kept a second copy of it; one flat history buffer per phase cut that
  // to 160,481, about two per interface update (the writer's packet and
  // the DSM frame).  Both now come from the machine's packet pool, which
  // cut the run to 440: the set-up of the run, not its updates.  The
  // budget leaves a little room above that.
  nscc::harness::BayesSamplingWorkload bayes;
  bayes.parts = 2;
  bayes.iterations = 20000;
  nscc::harness::RunConfig run;
  run.seed = 7;
  (void)bayes.run(run, {});  // Warm-up: process-wide pools.
  const std::uint64_t before = allocs();
  const auto stats = bayes.run(run, {});
  const std::uint64_t spent = allocs() - before;
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_LE(spent, 500U);
}

TEST(AllocBudget, GaPartialRunStaysUnderItsBudget) {
  // One whole ga-partial benchmark run (seed 7): 8 demes on Rastrigin
  // (f6), 400 generations, Global_Read(10) over Ethernet.  It allocated
  // 95,765 times while the fitness cache kept a map node, a bucket vector
  // and a genome copy per entry and every evaluation decoded into a fresh
  // vector; the flat cache and the deme's decode scratch cut that to
  // 34,711, and the deme's ranking and migrant-order scratch to 25,167.
  // Pooled migrant packets and DSM frames cut it to 4,424.  The budget
  // leaves a little room above that.
  nscc::harness::GaIslandWorkload ga;
  ga.demes = 8;
  ga.function_id = 6;
  ga.generations = 400;
  nscc::harness::RunConfig run;
  run.seed = 7;
  run.mode = nscc::dsm::Mode::kPartialAsync;
  run.age = 10;
  run.propagation.coalesce = true;
  (void)ga.run(run, {});  // Warm-up: process-wide pools.
  const std::uint64_t before = allocs();
  const auto stats = ga.run(run, {});
  const std::uint64_t spent = allocs() - before;
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_LE(spent, 4600U);
}

TEST(AllocBudget, NnPartialRunStaysUnderItsBudget) {
  // One whole nn-partial benchmark run (seed 7): a parameter server and
  // four workers, 2,500 steps, Global_Read(2) over Ethernet with
  // coalescing.  It allocated 23,329 times while every published
  // parameter vector and every DSM frame was a fresh buffer; the packet
  // pool cut that to 10,841, nearly all of them the workers' gradient
  // messages.  The budget leaves a little room above that.
  nscc::harness::NnTrainWorkload nn;
  nn.workers = 4;
  nn.steps = 2500;
  nscc::harness::RunConfig run;
  run.seed = 7;
  run.mode = nscc::dsm::Mode::kPartialAsync;
  run.age = 2;
  run.propagation.coalesce = true;
  (void)nn.run(run, {});  // Warm-up: process-wide pools.
  const std::uint64_t before = allocs();
  const auto stats = nn.run(run, {});
  const std::uint64_t spent = allocs() - before;
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_LE(spent, 11200U);
}

TEST(AllocBudget, UntracedMachineAllocatesUnderOneMegabyte) {
  // The trace ring (2^18 events by default) is allocated only when tracing
  // is switched on; a machine built with default obs::Options stays small.
  const std::uint64_t before = alloc_counts().bytes;
  nscc::rt::VirtualMachine vm(nscc::rt::MachineConfig{});
  EXPECT_LT(alloc_counts().bytes - before, 1u << 20);
  EXPECT_FALSE(vm.obs().tracer().enabled());
}

}  // namespace
