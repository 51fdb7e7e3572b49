// Partition-tolerance tests: the acceptance matrix from the issue.
//
// A scheduled group partition splits the cluster mid-run.  With the quorum
// gate and anti-entropy heal on, neither side may declare the other dead;
// minority reads past the age bound are served degraded (divergence
// tracked per location), and at window end writers republish over the
// reliable channel until every diverged location reconciles — the run
// completes clean under --sanitize=strict.  With the gate and heal off,
// both sides declare each other dead (mutual dead declarations = the
// split-brain signal) and the driver exits 5.  Exercised on GA + Jacobi
// over both interconnects, plus determinism and flag-validation checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "harness/driver.hpp"
#include "harness/run_config.hpp"
#include "harness/workloads.hpp"
#include "recovery/recovery.hpp"
#include "rt/vm.hpp"
#include "sanitize/sanitize.hpp"
#include "sim/time.hpp"

namespace {

using nscc::fault::FaultPlan;
using nscc::fault::PartitionWindow;
using nscc::fault::Window;
using nscc::harness::RunConfig;
using nscc::harness::RunStats;
using nscc::recovery::Policy;
using nscc::rt::MachineConfig;
using nscc::rt::Network;
using nscc::sim::kSecond;
using nscc::sim::Time;

Time seconds(double s) {
  return static_cast<Time>(s * static_cast<double>(kSecond));
}

/// The issue's canonical split: nodes {0,1} vs {2,3} for [0.05 s, 0.6 s) —
/// long enough that the detector's silence limit elapses inside it.
FaultPlan half_split_plan() {
  FaultPlan plan;
  PartitionWindow split;
  split.window = Window{seconds(0.05), seconds(0.6)};
  split.groups = {{0, 1}, {2, 3}};
  plan.partitions.push_back(split);
  return plan;
}

/// quorum > 0 gates dead declarations; heal republishes at window end.
RunConfig partition_run(double quorum, bool heal, std::uint64_t seed = 7) {
  RunConfig run;
  run.mode = nscc::dsm::Mode::kPartialAsync;
  run.age = 4;
  run.seed = seed;
  run.propagation.coalesce = true;
  run.propagation.partition_heal = heal;
  run.recovery.policy = Policy::kDegraded;
  run.recovery.checkpoint_interval = seconds(0.1);
  run.recovery.quorum_fraction = quorum;
  return run;
}

MachineConfig machine_for(const FaultPlan& plan, Network network,
                          bool strict = false,
                          nscc::harness::Workload* w = nullptr,
                          const RunConfig* run = nullptr) {
  MachineConfig machine;
  machine.network = network;
  machine.fault = plan;
  machine.transport.enabled = true;
  if (strict) {
    machine.sanitize.level = nscc::sanitize::Level::kStrict;
    machine.sanitize.spec = w->tolerance_spec(*run);
  }
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

/// The quorum+heal acceptance cell: completes, serves divergence-bounded
/// reads without declaring anyone dead, reconciles every diverged
/// location, and stays clean under the strict sanitizer.
void expect_quorum_heal_converges(nscc::harness::Workload& w,
                                  Network network) {
  RunConfig run = partition_run(0.6, true);
  const RunStats stats =
      w.run(run, machine_for(half_split_plan(), network, true, &w, &run));
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.partition_drops, 0u) << "the split must cut frames";
  EXPECT_EQ(stats.split_brain_declarations, 0u)
      << "no side holds a 0.6 quorum during a 2|2 split, so nobody may "
         "declare anybody dead";
  EXPECT_EQ(stats.diverged_locations, stats.reconciled_locations)
      << "anti-entropy heal must reconcile every diverged location";
  EXPECT_EQ(stats.sanitize_violations, 0u)
      << "degraded partition reads stay inside the tolerance contract";
}

/// The no-quorum cell: both sides escalate suspicion to dead declarations
/// and the mutual-declaration counter records the split-brain.
void expect_no_quorum_split_brains(nscc::harness::Workload& w,
                                   Network network) {
  const RunConfig run = partition_run(0.0, false);
  const RunStats stats =
      w.run(run, machine_for(half_split_plan(), network));
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.partition_drops, 0u);
  EXPECT_GT(stats.split_brain_declarations, 0u)
      << "without the quorum gate both sides must declare each other dead";
}

// ---------------------------------------------------------------------------
// Acceptance matrix: GA + Jacobi x ethernet + sp2
// ---------------------------------------------------------------------------

TEST(Partition, GaQuorumHealConvergesEthernet) {
  auto ga = small_ga();
  expect_quorum_heal_converges(ga, Network::kEthernet);
}

TEST(Partition, GaQuorumHealConvergesSp2) {
  auto ga = small_ga();
  expect_quorum_heal_converges(ga, Network::kSp2Switch);
}

TEST(Partition, JacobiQuorumHealConvergesEthernet) {
  auto jacobi = small_jacobi();
  expect_quorum_heal_converges(jacobi, Network::kEthernet);
}

TEST(Partition, JacobiQuorumHealConvergesSp2) {
  auto jacobi = small_jacobi();
  expect_quorum_heal_converges(jacobi, Network::kSp2Switch);
}

TEST(Partition, GaNoQuorumSplitBrainsEthernet) {
  auto ga = small_ga();
  expect_no_quorum_split_brains(ga, Network::kEthernet);
}

TEST(Partition, GaNoQuorumSplitBrainsSp2) {
  auto ga = small_ga();
  expect_no_quorum_split_brains(ga, Network::kSp2Switch);
}

TEST(Partition, JacobiNoQuorumSplitBrainsEthernet) {
  auto jacobi = small_jacobi();
  expect_no_quorum_split_brains(jacobi, Network::kEthernet);
}

TEST(Partition, JacobiNoQuorumSplitBrainsSp2) {
  auto jacobi = small_jacobi();
  expect_no_quorum_split_brains(jacobi, Network::kSp2Switch);
}

// ---------------------------------------------------------------------------
// Determinism: same (seed, plan) => byte-identical partitioned runs
// ---------------------------------------------------------------------------

void expect_identical_partition_runs(Network network) {
  auto ga = small_ga();
  const RunConfig run = partition_run(0.6, true);
  const RunStats a = ga.run(run, machine_for(half_split_plan(), network));
  const RunStats b = ga.run(run, machine_for(half_split_plan(), network));
  const auto fa = a.to_fields();
  const auto fb = b.to_fields();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].first, fb[i].first);
    EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first;
  }
}

TEST(Partition, SameSeedSamePlanByteIdenticalEthernet) {
  expect_identical_partition_runs(Network::kEthernet);
}

TEST(Partition, SameSeedSamePlanByteIdenticalSp2) {
  expect_identical_partition_runs(Network::kSp2Switch);
}

// ---------------------------------------------------------------------------
// Driver exit codes and flag validation
// ---------------------------------------------------------------------------

int drive_ga(const std::vector<std::string>& extra) {
  nscc::harness::DriveOptions options;
  options.workload = "ga.island";
  options.flag_defaults = {{"variants", "partial"}};
  std::vector<std::string> args = {"test", "--demes=4", "--generations=40",
                                   "--function=1", "--age=4", "--seed=7",
                                   "--recovery=degraded"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return nscc::harness::drive(static_cast<int>(argv.size()), argv.data(),
                              options);
}

TEST(PartitionDriver, QuorumHealExitsZeroUnderStrict) {
  EXPECT_EQ(drive_ga({"--partition-at=0.05:0.6:0,1|2,3", "--quorum=0.6",
                      "--sanitize=strict"}),
            0);
}

TEST(PartitionDriver, NoQuorumSplitBrainIsExitFive) {
  EXPECT_EQ(drive_ga({"--partition-at=0.05:0.6:0,1|2,3", "--quorum=0",
                      "--heal=false"}),
            5);
}

TEST(PartitionDriver, FlagValidationIsExitOne) {
  EXPECT_EQ(drive_ga({"--quorum=1.5"}), 1);
  EXPECT_EQ(drive_ga({"--quorum=-0.1"}), 1);
  EXPECT_EQ(drive_ga({"--partition-at=junk"}), 1);
  EXPECT_EQ(drive_ga({"--blackhole-at=0.1:0.5:1:1"}), 1);
  // Values that used to run at exit 0: a crash time past the horizon or
  // not finite (the cast to virtual time crashed node 1 at t~0), a
  // partition that never ends (so never happens), and NaN/inf settings.
  for (const std::vector<std::string>& flags :
       std::vector<std::vector<std::string>>{
           {"--crash-at=1e12", "--recovery=degraded"},
           {"--crash-at=inf", "--recovery=degraded"},
           {"--partition-at=0.05:inf:0,1|2,3", "--quorum=0.6",
            "--recovery=degraded"},
           {"--quorum=nan"},
           {"--crash-at=nan"},
           {"--checkpoint-interval=nan"},
           {"--read-timeout-ms=inf"},
           {"--sample-interval=nan"}}) {
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(drive_ga(flags), 1) << flags[0];
    const std::string err = testing::internal::GetCapturedStderr();
    // No run started (not even the serial reference), and the message
    // names the flag.
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << flags[0];
    const std::string name = flags[0].substr(0, flags[0].find('='));
    EXPECT_NE(err.find(name), std::string::npos) << err;
  }
}

}  // namespace
