// RunStats truth tests.  Every workload runs at its golden-table size (see
// test_harness.cpp) under three faults: 2% frame loss with the reliable
// transport, a stateful crash with rejoin, and a partition that heals.
// RunStats is filled from the machine's metrics registry by one function,
// so each counter must show what the machine did on every workload, and
// attaching observers (a metrics series, the staleness sanitizer) must not
// change a single field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "harness/run_config.hpp"
#include "harness/workloads.hpp"
#include "recovery/recovery.hpp"
#include "rt/vm.hpp"
#include "sanitize/sanitize.hpp"
#include "sim/time.hpp"

namespace {

using namespace nscc;
using harness::RunConfig;
using harness::RunStats;

sim::Time seconds(double s) {
  return static_cast<sim::Time>(s * static_cast<double>(sim::kSecond));
}

/// One workload at its golden-table size, seed and partial age, plus the
/// two halves a partition splits its nodes into.
struct Case {
  std::unique_ptr<harness::Workload> workload;
  std::uint64_t seed;
  dsm::Iteration age;
  std::vector<std::vector<int>> halves;
};

std::vector<Case> golden_cases() {
  std::vector<Case> cases;
  auto ga = std::make_unique<harness::GaIslandWorkload>();
  ga->function_id = 1;
  ga->demes = 4;
  ga->generations = 40;
  cases.push_back({std::move(ga), 7, 10, {{0, 1}, {2, 3}}});
  auto bayes = std::make_unique<harness::BayesSamplingWorkload>();
  bayes->parts = 2;
  bayes->iterations = 1500;
  cases.push_back({std::move(bayes), 11, 10, {{0}, {1}}});
  auto jacobi = std::make_unique<harness::JacobiWorkload>();
  jacobi->grid = 12;
  jacobi->processors = 4;
  jacobi->tolerance = 1e-7;
  cases.push_back({std::move(jacobi), 5, 10, {{0, 1}, {2, 3}}});
  // The server (node 0) and four workers: the majority keeps the server.
  auto nn = std::make_unique<harness::NnTrainWorkload>();
  nn->workers = 4;
  nn->steps = 80;
  cases.push_back({std::move(nn), 7, 2, {{0, 1, 2}, {3, 4}}});
  return cases;
}

enum class Fault { kLoss, kCrash, kPartition };

/// The partial variant as the shared driver wires it, with the recovery
/// policy each fault calls for.
RunConfig run_for(const Case& c, Fault fault) {
  RunConfig run;
  run.seed = c.seed;
  run.mode = dsm::Mode::kPartialAsync;
  run.age = c.age;
  run.propagation.coalesce = true;
  run.propagation.read_timeout = 50 * sim::kMillisecond;
  run.recovery.checkpoint_interval = seconds(0.1);
  switch (fault) {
    case Fault::kLoss:
      break;
    case Fault::kCrash:
      run.recovery.policy = recovery::Policy::kRejoin;
      break;
    case Fault::kPartition:
      // Age 4 as in the CI partition matrix: at age 10 a partitioned
      // Jacobi run leaves two diverged locations unreconciled (ROADMAP).
      run.age = std::min<dsm::Iteration>(c.age, 4);
      run.recovery.policy = recovery::Policy::kDegraded;
      run.recovery.quorum_fraction = 0.6;
      run.propagation.partition_heal = true;
      break;
  }
  return run;
}

rt::MachineConfig machine_for(const Case& c, Fault fault) {
  rt::MachineConfig machine;
  machine.transport.enabled = true;
  switch (fault) {
    case Fault::kLoss:
      machine.fault.link.loss_prob = 0.02;
      break;
    case Fault::kCrash:
      machine.fault.nodes[1].crashes.push_back({seconds(0.3), seconds(0.35)});
      break;
    case Fault::kPartition: {
      fault::PartitionWindow split;
      split.window = {seconds(0.05), seconds(0.6)};
      split.groups = c.halves;
      machine.fault.partitions.push_back(split);
      break;
    }
  }
  return machine;
}

/// Run `c` under `fault` three ways — observers off, the metrics sampler
/// writing a series, the sanitizer tracking every read — and require
/// identical RunStats fields.  Returns the unobserved run's stats.
RunStats run_observed_three_ways(const Case& c, Fault fault) {
  const RunConfig run = run_for(c, fault);
  const rt::MachineConfig plain = machine_for(c, fault);
  const RunStats stats = c.workload->run(run, plain);

  rt::MachineConfig sampled = plain;
  const std::string series = ::testing::TempDir() + "run_stats_series.csv";
  sampled.obs.enable = true;
  sampled.obs.metrics_path = series;
  const RunStats with_sampler = c.workload->run(run, sampled);
  std::remove(series.c_str());

  rt::MachineConfig audited = plain;
  audited.sanitize.level = sanitize::Level::kTrack;
  audited.sanitize.spec = c.workload->tolerance_spec(run);
  const RunStats with_sanitizer = c.workload->run(run, audited);

  EXPECT_EQ(with_sampler.to_fields(), stats.to_fields())
      << "the metrics sampler changed RunStats";
  EXPECT_EQ(with_sanitizer.to_fields(), stats.to_fields())
      << "the staleness sanitizer changed RunStats";
  return stats;
}

TEST(RunStatsTruth, LossIsCountedOnEveryWorkload) {
  for (const Case& c : golden_cases()) {
    SCOPED_TRACE(c.workload->name());
    const RunStats s = run_observed_three_ways(c, Fault::kLoss);
    EXPECT_FALSE(s.deadlocked);
    EXPECT_GT(s.frames_lost, 0u);
    EXPECT_GT(s.messages_sent, 0u);
    EXPECT_GT(s.bytes_sent, 0u);
    EXPECT_GT(s.bus_utilization, 0.0);
    EXPECT_GT(s.mean_warp, 0.0);
    EXPECT_GE(s.mean_staleness, 0.0);
  }
}

TEST(RunStatsTruth, StatefulCrashIsCountedOnce) {
  for (const Case& c : golden_cases()) {
    SCOPED_TRACE(c.workload->name());
    const RunStats s = run_observed_three_ways(c, Fault::kCrash);
    EXPECT_FALSE(s.deadlocked);
    EXPECT_EQ(s.crashes, 1u);
    EXPECT_EQ(s.rejoins, 1u);
  }
}

TEST(RunStatsTruth, HealedPartitionReconcilesEveryDivergence) {
  for (const Case& c : golden_cases()) {
    SCOPED_TRACE(c.workload->name());
    const RunStats s = run_observed_three_ways(c, Fault::kPartition);
    EXPECT_FALSE(s.deadlocked);
    EXPECT_GT(s.partition_drops, 0u);
    EXPECT_GT(s.diverged_locations, 0u);
    EXPECT_EQ(s.diverged_locations, s.reconciled_locations);
    EXPECT_EQ(s.split_brain_declarations, 0u);
    // Every split leaves a side without quorum, whose suspicions park.
    EXPECT_GT(s.quorum_parks, 0u);
  }
}

// The run document's stats names, in order: tests, bench/schema.md, the
// CI checks and the benchmark read them by name, so a rename or a reorder
// is a change of format.  Times are written in seconds, counts as counts.
TEST(RunStatsFields, NamesOrderAndUnitsArePinned) {
  RunStats s;
  s.completion_time = seconds(2.5);
  s.messages_sent = 7;
  s.global_read_block_time = 1500 * sim::kMicrosecond;
  s.bus_utilization = 0.25;
  s.detection_latency = seconds(0.125);
  s.lost_iterations = 3;
  s.quality_name = "residual";
  s.quality = 1e-7;
  s.extra = {{"sweeps", 230.0}};
  std::vector<std::string> names;
  for (const auto& [name, value] : s.to_fields()) names.push_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "completion_s",        "deadlocked",
                "messages_sent",       "bytes_sent",
                "global_read_blocks",  "global_read_block_s",
                "bus_utilization",     "mean_staleness",
                "mean_warp",           "frames_lost",
                "retransmissions",     "read_escalations",
                "integrity_dropped",   "sanitize_violations",
                "crashes",             "checkpoints_taken",
                "restores",            "rejoins",
                "degraded_reads",      "detection_latency_s",
                "recovery_latency_s",  "lost_iterations",
                "partition_drops",     "partition_stale_served",
                "heal_frames",         "diverged_locations",
                "reconciled_locations", "split_brain_declarations",
                "quorum_parks",        "updates_parked",
                "updates_flushed",     "ooo_updates",
                "residual",            "sweeps"}));
  auto value = [&s](const std::string& name) {
    for (const auto& [key, v] : s.to_fields()) {
      if (key == name) return v;
    }
    ADD_FAILURE() << "no field " << name;
    return -1.0;
  };
  EXPECT_EQ(value("completion_s"), 2.5);
  EXPECT_EQ(value("messages_sent"), 7.0);
  EXPECT_EQ(value("global_read_block_s"), 0.0015);
  EXPECT_EQ(value("bus_utilization"), 0.25);
  EXPECT_EQ(value("detection_latency_s"), 0.125);
  EXPECT_EQ(value("lost_iterations"), 3.0);
  EXPECT_EQ(value("residual"), 1e-7);
  EXPECT_EQ(value("sweeps"), 230.0);
}

TEST(RunStatsTruth, PlainReadsRecordStalenessInAsyncRuns) {
  // The asynchronous variants read with plain reads; passing the reader's
  // iteration puts their staleness in the same histogram Global_Read uses.
  for (const Case& c : golden_cases()) {
    if (c.workload->name() == "bayes.sampling") continue;  // Polls only.
    SCOPED_TRACE(c.workload->name());
    RunConfig run;
    run.seed = c.seed;
    run.mode = dsm::Mode::kAsynchronous;
    const RunStats s = c.workload->run(run, rt::MachineConfig{});
    EXPECT_GT(s.mean_staleness, 0.0);
  }
}

TEST(RunStatsTruth, PooledBuffersLeaveCoalescingRunsUnchanged) {
  // The two coalescing benchmark workloads at full size (ga-partial and
  // nn-partial, seed 7), run traced with the sanitizer tracking every read
  // and then untraced.  Pooled packet buffers cross the coalescing
  // stash, the parked and mailboxed frames and the values reads return,
  // so a buffer reused while still read, or reused without clearing,
  // would show as a difference here.
  auto ga = std::make_unique<harness::GaIslandWorkload>();
  ga->demes = 8;
  ga->function_id = 6;
  ga->generations = 400;
  auto nn = std::make_unique<harness::NnTrainWorkload>();
  nn->workers = 4;
  nn->steps = 2500;
  const std::pair<std::unique_ptr<harness::Workload>, dsm::Iteration>
      benches[] = {{std::move(ga), 10}, {std::move(nn), 2}};
  for (const auto& [workload, age] : benches) {
    SCOPED_TRACE(workload->name());
    RunConfig run;
    run.seed = 7;
    run.mode = dsm::Mode::kPartialAsync;
    run.age = age;
    run.propagation.coalesce = true;
    rt::MachineConfig traced;
    traced.obs.enable = true;
    traced.sanitize.level = sanitize::Level::kTrack;
    traced.sanitize.spec = workload->tolerance_spec(run);
    const RunStats observed = workload->run(run, traced);
    const RunStats plain = workload->run(run, rt::MachineConfig{});
    EXPECT_FALSE(plain.deadlocked);
    EXPECT_EQ(observed.sanitize_violations, 0u);
    EXPECT_EQ(observed.to_fields(), plain.to_fields());
  }
}

}  // namespace
