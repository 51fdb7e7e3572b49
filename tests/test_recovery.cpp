// Tests for the crash-restart recovery stack: crash windows that destroy
// process state, periodic checkpointing charged in virtual time, heartbeat
// failure detection with degraded reads, and the rejoin protocol —
// exercised end-to-end through all four workloads plus targeted VM- and
// transport-level checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "harness/driver.hpp"
#include "harness/run_config.hpp"
#include "harness/workloads.hpp"
#include "recovery/recovery.hpp"
#include "rt/packet.hpp"
#include "rt/transport.hpp"
#include "rt/vm.hpp"
#include "sim/time.hpp"

namespace {

using nscc::fault::FaultPlan;
using nscc::fault::Window;
using nscc::harness::RunConfig;
using nscc::harness::RunStats;
using nscc::recovery::Policy;
using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::SeqTracker;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sim::kMillisecond;
using nscc::sim::kSecond;
using nscc::sim::Time;

Time seconds(double s) {
  return static_cast<Time>(s * static_cast<double>(kSecond));
}

/// A crash of `node` over [at, at+dur) on a 1%-lossy network.
FaultPlan crash_plan(double at_s, double dur_s, int node,
                     double loss = 0.01) {
  FaultPlan plan;
  plan.link.loss_prob = loss;
  plan.crashes[node].push_back(
      Window{seconds(at_s), seconds(at_s + dur_s)});
  return plan;
}

RunConfig recovery_run(Policy policy, int age, std::uint64_t seed,
                       double checkpoint_s) {
  RunConfig run;
  run.mode = nscc::dsm::Mode::kPartialAsync;
  run.age = static_cast<nscc::dsm::Iteration>(age);
  run.seed = seed;
  run.propagation.coalesce = true;
  run.recovery.policy = policy;
  run.recovery.checkpoint_interval = seconds(checkpoint_s);
  return run;
}

MachineConfig machine_for(const FaultPlan& plan,
                          const RunConfig& run) {
  MachineConfig machine;
  machine.fault = plan;
  machine.transport.enabled = !plan.empty() || run.recovery.enabled();
  return machine;
}

nscc::harness::GaIslandWorkload small_ga() {
  nscc::harness::GaIslandWorkload ga;
  ga.function_id = 1;
  ga.demes = 4;
  ga.generations = 40;
  return ga;
}

nscc::harness::JacobiWorkload small_jacobi() {
  nscc::harness::JacobiWorkload jacobi;
  jacobi.grid = 24;
  jacobi.processors = 4;
  jacobi.tolerance = 1e-7;
  return jacobi;
}

// ---------------------------------------------------------------------------
// Acceptance matrix: GA island model
// ---------------------------------------------------------------------------

TEST(Recovery, GaCrashWithoutRecoveryDeadlocks) {
  auto ga = small_ga();
  const RunConfig run = recovery_run(Policy::kNone, 10, 7, 0.1);
  const FaultPlan plan = crash_plan(0.4, 0.08, 1);
  const RunStats stats = ga.run(run, machine_for(plan, run));
  EXPECT_TRUE(stats.deadlocked)
      << "a mid-run stateful crash with no recovery must wedge the run";
  // No coordinator is attached under kNone, so recovery counters stay zero
  // even though the VM tore the task down.
  EXPECT_EQ(stats.restores, 0u);
  EXPECT_EQ(stats.rejoins, 0u);
}

TEST(Recovery, GaDegradedReadsSurviveTheCrash) {
  auto ga = small_ga();
  const RunConfig run = recovery_run(Policy::kDegraded, 10, 7, 0.1);
  const FaultPlan plan = crash_plan(0.4, 0.08, 1);
  const RunStats stats = ga.run(run, machine_for(plan, run));
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.rejoins, 0u);
  EXPECT_GT(stats.degraded_reads, 0u)
      << "survivors must have read past the dead producer";
}

TEST(Recovery, GaRejoinCompletesWithin15PercentOfCrashFree) {
  auto ga = small_ga();
  const RunConfig run = recovery_run(Policy::kRejoin, 10, 7, 0.1);
  const RunStats base = ga.run(run, machine_for(FaultPlan{}, run));
  ASSERT_FALSE(base.deadlocked);
  EXPECT_EQ(base.crashes, 0u);

  const FaultPlan plan = crash_plan(0.4, 0.08, 1);
  const RunStats crashed = ga.run(run, machine_for(plan, run));
  ASSERT_FALSE(crashed.deadlocked);
  EXPECT_EQ(crashed.crashes, 1u);
  EXPECT_EQ(crashed.restores, 1u);
  EXPECT_EQ(crashed.rejoins, 1u);
  EXPECT_GT(crashed.checkpoints_taken, 0u);
  EXPECT_LE(nscc::sim::to_seconds(crashed.completion_time),
            1.15 * nscc::sim::to_seconds(base.completion_time))
      << "rejoin at age 10 must land within 15% of crash-free completion";
}

// ---------------------------------------------------------------------------
// Acceptance matrix: Jacobi solver (the quality-loss story is sharpest here:
// the residual is a direct measure of what degraded mode gave up)
// ---------------------------------------------------------------------------

TEST(Recovery, JacobiCrashWithoutRecoveryDeadlocks) {
  auto jacobi = small_jacobi();
  const RunConfig run = recovery_run(Policy::kNone, 10, 5, 0.1);
  const FaultPlan plan = crash_plan(1.0, 0.1, 1);
  const RunStats stats = jacobi.run(run, machine_for(plan, run));
  EXPECT_TRUE(stats.deadlocked);
}

TEST(Recovery, JacobiDegradedCompletesWithQualityLoss) {
  auto jacobi = small_jacobi();
  const RunConfig run = recovery_run(Policy::kDegraded, 10, 5, 0.1);
  const FaultPlan plan = crash_plan(1.0, 0.1, 1);
  const RunStats stats = jacobi.run(run, machine_for(plan, run));
  ASSERT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_GT(stats.degraded_reads, 0u);
  // The dead block never converges, so the final residual is orders of
  // magnitude above tolerance: the run completes but pays in quality.
  EXPECT_GT(stats.quality, 1e-3);
}

TEST(Recovery, JacobiRejoinRecoversBothTimeAndQuality) {
  auto jacobi = small_jacobi();
  const RunConfig run = recovery_run(Policy::kRejoin, 10, 5, 0.1);
  const RunStats base = jacobi.run(run, machine_for(FaultPlan{}, run));
  ASSERT_FALSE(base.deadlocked);

  const FaultPlan plan = crash_plan(1.0, 0.1, 1);
  const RunStats crashed = jacobi.run(run, machine_for(plan, run));
  ASSERT_FALSE(crashed.deadlocked);
  EXPECT_EQ(crashed.crashes, 1u);
  EXPECT_EQ(crashed.restores, 1u);
  EXPECT_EQ(crashed.rejoins, 1u);
  EXPECT_LE(nscc::sim::to_seconds(crashed.completion_time),
            1.15 * nscc::sim::to_seconds(base.completion_time));
  // Unlike degraded mode, the rejoined node finishes its block: the
  // residual comes back down to the crash-free ballpark.
  EXPECT_LT(crashed.quality, 1e-5);
}

// ---------------------------------------------------------------------------
// Acceptance matrix: NN training and Bayes sampling (smoke-level — the
// detailed numbers live in EXPERIMENTS.md)
// ---------------------------------------------------------------------------

TEST(Recovery, NnTrainingSurvivesWorkerCrash) {
  nscc::harness::NnTrainWorkload nn;  // 4 workers, 500 steps.
  const FaultPlan plan = crash_plan(0.8, 0.1, 2);

  const RunConfig degraded = recovery_run(Policy::kDegraded, 2, 7, 0.2);
  const RunStats d = nn.run(degraded, machine_for(plan, degraded));
  EXPECT_FALSE(d.deadlocked);
  EXPECT_EQ(d.crashes, 1u);

  const RunConfig rejoin = recovery_run(Policy::kRejoin, 2, 7, 0.2);
  const RunStats r = nn.run(rejoin, machine_for(plan, rejoin));
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.rejoins, 1u);
}

TEST(Recovery, BayesRejoinMatchesCrashFreeQuality) {
  nscc::harness::BayesSamplingWorkload bayes;  // 2 parts, 6000 iterations.
  const RunConfig run = recovery_run(Policy::kRejoin, 10, 11, 0.2);
  // Crash-free baseline on the *same* lossy network: loss alone already
  // perturbs the chain, so only the crash window may differ.
  FaultPlan loss_only;
  loss_only.link.loss_prob = 0.01;
  const RunStats base = bayes.run(run, machine_for(loss_only, run));
  ASSERT_FALSE(base.deadlocked);

  const FaultPlan plan = crash_plan(2.0, 0.2, 1);
  const RunStats crashed = bayes.run(run, machine_for(plan, run));
  ASSERT_FALSE(crashed.deadlocked);
  EXPECT_EQ(crashed.crashes, 1u);
  EXPECT_EQ(crashed.rejoins, 1u);
  // The restored checkpoint replays the exact sampler state, so the chain
  // statistic is unchanged by the crash.
  EXPECT_NEAR(crashed.quality, base.quality, 1e-6);
}

// ---------------------------------------------------------------------------
// Checkpoint cost accounting and determinism
// ---------------------------------------------------------------------------

TEST(Recovery, CheckpointCostIsChargedInVirtualTime) {
  MachineConfig config;
  config.ntasks = 2;
  config.transport.enabled = true;
  VirtualMachine vm(config);
  nscc::recovery::Config cfg;
  cfg.policy = Policy::kRejoin;
  cfg.checkpoint_interval = 100 * kMillisecond;
  nscc::recovery::Coordinator coord(vm, cfg);
  for (int id = 0; id < 2; ++id) {
    vm.add_task("worker", [&](Task& task) {
      nscc::recovery::FnCheckpoint state(
          [] {
            Packet p;
            p.pack_u64(0xC0FFEEu);
            return p;
          },
          [](Packet&) {});
      for (int i = 1; i <= 10; ++i) {
        task.compute(50 * kMillisecond);
        coord.maybe_checkpoint(task, i, state);
      }
    });
  }
  vm.run();
  const nscc::obs::Registry& reg = vm.obs().registry();
  EXPECT_GT(reg.counter_value("recovery.checkpoints_taken"), 0u);
  const std::uint64_t cost = reg.counter_value("recovery.checkpoint_cost_ns");
  EXPECT_GT(cost, 0u);
  // The snapshot cost lands on the checkpointing task's own virtual clock:
  // total compute equals the loop work plus exactly the charged cost.
  const Time loop_work = 2 * 10 * 50 * kMillisecond;
  const std::uint64_t total = reg.counter_value("rt.compute_time_ns", 0) +
                              reg.counter_value("rt.compute_time_ns", 1);
  EXPECT_EQ(total, static_cast<std::uint64_t>(loop_work) + cost);
}

// A crash window far longer than the stall limit (200 heartbeat ticks,
// 10 s) with the survivor blocked on the victim throughout: the detector
// must still be running after the rejoin, so a second crash is detected
// as well.
TEST(Recovery, SecondCrashAfterALongWindowIsDetected) {
  MachineConfig config;
  config.ntasks = 2;
  config.transport.enabled = true;
  config.fault.crashes[1] = {Window{seconds(1.0), seconds(31.0)},
                                   Window{seconds(32.0), seconds(33.0)}};
  VirtualMachine vm(config);
  nscc::recovery::Config cfg;
  cfg.policy = Policy::kRejoin;
  cfg.checkpoint_interval = 0;
  nscc::recovery::Coordinator coord(vm, cfg);
  vm.add_task("waiter", [](Task& task) { (void)task.recv(8); });
  vm.add_task("worker", [](Task& task) {
    for (int i = 0; i < 20; ++i) task.compute(100 * kMillisecond);
    task.send(0, 8, Packet{});
  });
  const Time end = vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_GE(end, seconds(35.0));
  const nscc::obs::Registry& reg = vm.obs().registry();
  EXPECT_EQ(reg.counter_value("recovery.crashes"), 2u);
  EXPECT_EQ(reg.counter_value("recovery.rejoins"), 2u);
  EXPECT_EQ(reg.counter_value("recovery.suspected"), 2u)
      << "the crash after the rejoin went undetected";
}

// The union view asks only the live peers: the victim's own row (which
// nobody judges) and the frozen row of a node that finished do not keep a
// crashed node alive.  Under the quorum gate the survivors suspect the
// victim at the first tick past the silence limit and declare it at the
// next; a node that finished normally goes quiet without being declared.
TEST(Recovery, UnionViewDeclaresACrashUnderTheQuorumGate) {
  const Time crash_at = seconds(1.0);
  MachineConfig config;
  config.ntasks = 4;
  config.transport.enabled = true;
  config.fault.crashes[1] = {Window{crash_at, seconds(5.0)}};
  VirtualMachine vm(config);
  nscc::recovery::Config cfg;
  cfg.policy = Policy::kDegraded;
  cfg.checkpoint_interval = 0;
  cfg.quorum_fraction = 0.5;  // 2 of 4: the two survivors hold it.
  nscc::recovery::Coordinator coord(vm, cfg);
  Time victim_gone_at = 0;
  bool survivor_always_alive = true;
  vm.add_task("prober", [&](Task& task) {
    while (task.now() < seconds(1.9)) {
      task.compute(5 * kMillisecond);
      if (victim_gone_at == 0 && !coord.alive(1)) victim_gone_at = task.now();
      survivor_always_alive = survivor_always_alive && coord.alive(3);
    }
  });
  vm.add_task("victim", [](Task& task) {
    while (task.now() < seconds(3.0)) task.compute(10 * kMillisecond);
  });
  vm.add_task("early", [](Task& task) { task.compute(200 * kMillisecond); });
  vm.add_task("survivor", [](Task& task) {
    while (task.now() < seconds(2.0)) task.compute(10 * kMillisecond);
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  const Time limit = nscc::recovery::kSuspectLimit;
  const Time heartbeat = nscc::recovery::kHeartbeatInterval;
  ASSERT_GT(victim_gone_at, 0) << "the union view never let the victim go";
  EXPECT_GT(victim_gone_at, crash_at + limit);
  EXPECT_LE(victim_gone_at, crash_at + limit + 2 * heartbeat);
  EXPECT_TRUE(survivor_always_alive);
  EXPECT_FALSE(coord.alive(2)) << "a finished node must be judged gone";
  const nscc::obs::Registry& reg = vm.obs().registry();
  EXPECT_EQ(reg.counter_value("recovery.crashes"), 1u);
  // Both survivors declared the victim; the early finisher is not counted.
  EXPECT_EQ(reg.counter_value("recovery.suspected"), 2u);
  EXPECT_EQ(reg.counter_value("recovery.quorum_parks"), 0u);
  // Latency counts once for the one dead node, not once per observer.
  const auto latency =
      static_cast<Time>(reg.counter_value("recovery.detection_latency_ns"));
  EXPECT_GT(latency, limit);
  EXPECT_LE(latency, limit + 2 * heartbeat);
}

TEST(Recovery, CrashRecoveryRunsAreDeterministic) {
  const RunConfig run = recovery_run(Policy::kRejoin, 10, 5, 0.1);
  const FaultPlan plan = crash_plan(1.0, 0.1, 1);
  auto a_wl = small_jacobi();
  const RunStats a = a_wl.run(run, machine_for(plan, run));
  auto b_wl = small_jacobi();
  const RunStats b = b_wl.run(run, machine_for(plan, run));
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
}

// ---------------------------------------------------------------------------
// SwitchFabric: crash + whole-medium outage on the SP2 switch
// ---------------------------------------------------------------------------

TEST(Recovery, SwitchFabricSurvivesCrashDuringOutage) {
  auto ga = small_ga();
  const RunConfig run = recovery_run(Policy::kRejoin, 10, 7, 0.1);
  FaultPlan plan = crash_plan(0.4, 0.08, 1, 0.005);
  plan.outages.push_back(Window{seconds(0.25), seconds(0.3)});
  MachineConfig machine = machine_for(plan, run);
  machine.network = nscc::rt::Network::kSp2Switch;
  const RunStats stats = ga.run(run, machine);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.rejoins, 1u);
  EXPECT_GT(stats.frames_lost, 0u)
      << "the outage window and crash must both drop frames on the fabric";
}

// ---------------------------------------------------------------------------
// VM-level mechanics: kill/respawn epochs and crash windows
// ---------------------------------------------------------------------------

TEST(Recovery, KillRespawnBumpsEpochAndStampsMessages) {
  MachineConfig config;
  config.ntasks = 2;
  VirtualMachine vm(config);
  std::vector<std::uint64_t> epochs_seen;
  vm.add_task("receiver", [&](Task& task) {
    while (auto msg = task.recv_timeout(1, 2 * kSecond)) {
      epochs_seen.push_back(msg->epoch);
    }
  });
  vm.add_task("sender", [&](Task& task) {
    for (int i = 0; i < 8; ++i) {
      task.compute(50 * kMillisecond);
      Packet p;
      p.pack_i32(i);
      task.send(0, 1, std::move(p));
    }
  });
  vm.add_start_hook([&] {
    vm.engine().schedule(120 * kMillisecond, [&] { vm.kill_task(1); });
    vm.engine().schedule(200 * kMillisecond, [&] { vm.respawn_task(1); });
  });
  vm.run();
  ASSERT_FALSE(epochs_seen.empty());
  EXPECT_EQ(epochs_seen.front(), 0u) << "pre-crash messages carry epoch 0";
  EXPECT_EQ(epochs_seen.back(), 1u) << "post-respawn messages carry epoch 1";
  EXPECT_EQ(vm.task(1).epoch(), 1u);
}

TEST(Recovery, CrashWindowTearsTheVictimDown) {
  MachineConfig config;
  config.ntasks = 2;
  config.fault.crashes[1].push_back(Window{seconds(0.5), seconds(1.0)});
  VirtualMachine vm(config);
  int completed = 0;
  for (int id = 0; id < 2; ++id) {
    vm.add_task("worker", [&](Task& task) {
      for (int i = 0; i < 20; ++i) task.compute(100 * kMillisecond);
      ++completed;
    });
  }
  vm.run();
  EXPECT_EQ(completed, 1) << "a crash window unwinds the victim's fiber";
}

// ---------------------------------------------------------------------------
// SeqTracker memory bound (satellite S1): flat memory across 10k messages
// with permanently-lost sequence numbers punching holes in the stream
// ---------------------------------------------------------------------------

TEST(SeqTracker, MemoryStaysFlatAcrossTenThousandMessages) {
  SeqTracker tracker;
  std::size_t peak = 0;
  for (std::uint64_t seq = 1; seq <= 10000; ++seq) {
    if (seq % 97 == 0) continue;  // Abandoned frame: a hole that never fills.
    EXPECT_TRUE(tracker.fresh(seq));
    peak = std::max(peak, tracker.pending());
    ASSERT_LE(tracker.pending(), SeqTracker::kMaxAhead)
        << "sparse set must stay bounded at seq " << seq;
  }
  EXPECT_GT(peak, 0u);
  EXPECT_GT(tracker.floor(), 9000u)
      << "the contiguous floor must advance past forgotten holes";
  // Recently-seen sequence numbers still deduplicate.
  EXPECT_FALSE(tracker.fresh(10000));
  EXPECT_FALSE(tracker.fresh(9999));
}

TEST(SeqTracker, OutOfOrderWindowDeduplicatesExactly) {
  SeqTracker tracker;
  // Deliver a shuffled window, then replay all of it.
  const std::vector<std::uint64_t> window = {3, 1, 5, 2, 8, 4, 7, 6};
  for (const auto seq : window) EXPECT_TRUE(tracker.fresh(seq));
  for (const auto seq : window) EXPECT_FALSE(tracker.fresh(seq));
  EXPECT_EQ(tracker.floor(), 8u);
  EXPECT_EQ(tracker.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Membership pins: the CI crash-recovery and partition cells, driven through
// the same flags and defaults as the example binaries, captured before the
// membership seam moved from per-space probes to the machine.  Every number
// a blocked read's membership checks can move is pinned, plus a hash of the
// whole RunStats row.
// ---------------------------------------------------------------------------

struct MembershipPin {
  int exit_code;
  Time completion_time;
  std::uint64_t messages_sent;
  std::uint64_t frames_lost;
  std::uint64_t retransmissions;
  std::uint64_t degraded_reads;
  std::uint64_t partition_stale_served;
  std::uint64_t diverged_locations;
  std::uint64_t reconciled_locations;
  std::uint64_t split_brain_declarations;
  std::uint64_t stats_hash;  ///< FNV-1a over RunStats::to_fields().
};

std::uint64_t hash_fields(const RunStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : s.to_fields()) {
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  return h;
}

/// Drive `workload` with the example binary's seed (and network) default
/// and `args`, silently, and check its one row and exit code against `want`.
void expect_membership_pin(const std::string& workload,
                           std::map<std::string, std::string> defaults,
                           std::vector<std::string> args,
                           const MembershipPin& want) {
  std::vector<nscc::harness::Row> rows;
  nscc::harness::DriveOptions options;
  options.workload = workload;
  options.flag_defaults = std::move(defaults);
  options.epilogue = "-";
  options.epilogue_check = [&rows](const std::vector<nscc::harness::Row>& r) {
    rows = r;
    return std::string{};
  };
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = nscc::harness::drive(static_cast<int>(argv.size()),
                                      argv.data(), options);
  (void)testing::internal::GetCapturedStdout();
  (void)testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, want.exit_code);
  ASSERT_EQ(rows.size(), 1u);
  const RunStats& s = rows[0].stats;
  EXPECT_EQ(s.completion_time, want.completion_time);
  EXPECT_EQ(s.messages_sent, want.messages_sent);
  EXPECT_EQ(s.frames_lost, want.frames_lost);
  EXPECT_EQ(s.retransmissions, want.retransmissions);
  EXPECT_EQ(s.degraded_reads, want.degraded_reads);
  EXPECT_EQ(s.partition_stale_served, want.partition_stale_served);
  EXPECT_EQ(s.diverged_locations, want.diverged_locations);
  EXPECT_EQ(s.reconciled_locations, want.reconciled_locations);
  EXPECT_EQ(s.split_brain_declarations, want.split_brain_declarations);
  EXPECT_EQ(hash_fields(s), want.stats_hash) << std::hex << hash_fields(s);
}

const std::vector<std::string> kGaCell = {
    "--variants=partial", "--function=1", "--demes=4", "--generations=40"};
const std::vector<std::string> kJacobiCell = {"--variants=partial",
                                              "--grid=24"};
const std::vector<std::string> kNnCell = {"--variants=partial", "--age=2"};
const std::vector<std::string> kBayesCell = {"--variants=partial",
                                             "--age=10"};

std::vector<std::string> with(std::vector<std::string> base,
                              const std::vector<std::string>& more) {
  base.insert(base.end(), more.begin(), more.end());
  return base;
}

void expect_ga_pin(const std::vector<std::string>& extra,
                   const MembershipPin& want) {
  expect_membership_pin("ga.island", {{"seed", "7"}}, with(kGaCell, extra),
                        want);
}

void expect_jacobi_pin(const std::vector<std::string>& extra,
                       const MembershipPin& want) {
  expect_membership_pin("solver.jacobi", {{"seed", "5"}},
                        with(kJacobiCell, extra), want);
}

void expect_nn_pin(const std::vector<std::string>& extra,
                   const MembershipPin& want) {
  expect_membership_pin("nn.train", {{"network", "sp2"}, {"seed", "7"}},
                        with(kNnCell, extra), want);
}

void expect_bayes_pin(const std::vector<std::string>& extra,
                      const MembershipPin& want) {
  expect_membership_pin("bayes.sampling", {{"seed", "11"}},
                        with(kBayesCell, extra), want);
}

std::vector<std::string> ga_crash(const std::string& policy) {
  return {"--age=10", "--loss-rate=0.01", "--crash-at=0.4",
          "--crash-for=0.08", "--crash-node=1", "--recovery=" + policy,
          "--checkpoint-interval=0.1"};
}

std::vector<std::string> jacobi_crash(const std::string& policy) {
  return {"--age=10", "--loss-rate=0.01", "--crash-at=1.0",
          "--crash-for=0.1", "--crash-node=1", "--recovery=" + policy,
          "--checkpoint-interval=0.1"};
}

std::vector<std::string> nn_crash(const std::string& policy) {
  return {"--loss-rate=0.01", "--crash-at=0.8", "--crash-for=0.1",
          "--crash-node=2", "--recovery=" + policy,
          "--checkpoint-interval=0.2"};
}

const std::vector<std::string> kHalfSplit = {
    "--partition-at=0.05:0.6:0,1|2,3", "--recovery=degraded",
    "--checkpoint-interval=0.1"};

TEST(MembershipPinned, GaCrashDegraded) {
  expect_ga_pin(ga_crash("degraded"),
                {0, 1074988464, 606, 22, 10, 60, 0, 0, 0, 0,
                 0x0b945cdc71573525ULL});
}

TEST(MembershipPinned, GaCrashRejoin) {
  expect_ga_pin(ga_crash("rejoin"),
                {0, 1289906669, 773, 25, 10, 0, 0, 0, 0, 0,
                 0xa858ab0cc68f6f7eULL});
}

TEST(MembershipPinned, JacobiCrashDegraded) {
  expect_jacobi_pin(jacobi_crash("degraded"),
                    {0, 1772640592, 1962, 41, 14, 511, 0, 0, 0, 0,
                     0x702efb4c70e42f03ULL});
}

TEST(MembershipPinned, JacobiCrashRejoin) {
  expect_jacobi_pin(jacobi_crash("rejoin"),
                    {0, 2362269257, 2757, 57, 28, 0, 0, 0, 0, 0,
                     0x17da45478404f99fULL});
}

TEST(MembershipPinned, NnCrashDegraded) {
  expect_nn_pin(nn_crash("degraded"),
                {0, 2114732948, 4403, 85, 61, 0, 0, 0, 0, 0,
                 0xc4f945612ca33c6fULL});
}

TEST(MembershipPinned, NnCrashRejoin) {
  expect_nn_pin(nn_crash("rejoin"),
                {0, 2270786715, 4924, 93, 71, 0, 0, 0, 0, 0,
                 0xebb175e37414d46eULL});
}

TEST(MembershipPinned, BayesCrashRejoin) {
  expect_bayes_pin({"--loss-rate=0.01", "--crash-at=2.0", "--crash-for=0.2",
                    "--crash-node=1", "--recovery=rejoin",
                    "--checkpoint-interval=0.2"},
                   {0, 5828502227, 5780, 79, 12, 0, 0, 0, 0, 0,
                    0x73e785159a0866e2ULL});
}

TEST(MembershipPinned, GaPartitionQuorumHeal) {
  expect_ga_pin(with({"--age=4", "--quorum=0.6"}, kHalfSplit),
                {0, 1322070981, 807, 300, 200, 3, 65, 8, 8, 0,
                 0x6ed8bc29347511d6ULL});
}

TEST(MembershipPinned, JacobiPartitionQuorumHeal) {
  expect_jacobi_pin(with({"--age=4", "--quorum=0.6"}, kHalfSplit),
                    {0, 3331262952, 3317, 224, 212, 0, 17, 3, 3, 0,
                     0xe0a1ca5d48f71f31ULL});
}

// nn is 5 nodes (server + 4 workers): the majority keeps the server.
TEST(MembershipPinned, NnPartitionQuorumHeal) {
  expect_nn_pin({"--steps=60", "--partition-at=0.05:0.6:0,1,2|3,4",
                 "--quorum=0.6", "--recovery=degraded",
                 "--checkpoint-interval=0.2"},
                {0, 778381443, 790, 453, 376, 0, 68, 2, 2, 0,
                 0xddbb7988e11d95edULL});
}

TEST(MembershipPinned, BayesPartitionQuorumHeal) {
  expect_bayes_pin({"--iterations=1000", "--partition-at=0.2:1.5:0|1",
                    "--quorum=0.6", "--recovery=degraded",
                    "--checkpoint-interval=0.2"},
                   {0, 2098166025, 1000, 249, 168, 0, 216, 2, 2, 0,
                    0x7ed6b3e591633a5dULL});
}

// No quorum gate and no heal: both halves declare each other dead.
TEST(MembershipPinned, GaSplitBrain) {
  expect_ga_pin(with({"--age=4", "--quorum=0", "--heal=false"}, kHalfSplit),
                {5, 1188426494, 767, 358, 212, 114, 0, 8, 8, 4,
                 0xe4197881d5dd5a5dULL});
}

// A crash under a majority quorum: the survivors' union view must let the
// victim go, or the Jacobi residual reduce and the NN server's min_applied
// wait on it forever.
TEST(MembershipPinned, JacobiCrashQuorum) {
  expect_jacobi_pin(with(jacobi_crash("degraded"), {"--quorum=0.6"}),
                    {0, 1819611094, 1968, 41, 16, 511, 0, 2, 0, 0,
                     0xda3af1cb642f7740ULL});
}

TEST(MembershipPinned, NnCrashQuorum) {
  expect_nn_pin(with(nn_crash("degraded"), {"--quorum=0.6"}),
                {0, 2160138256, 4399, 85, 60, 0, 0, 0, 0, 0,
                 0x4abd65258051cce9ULL});
}

}  // namespace
