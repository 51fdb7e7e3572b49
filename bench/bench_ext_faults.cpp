// Extension E: completion time under frame loss (loss-rate x age sweep).
//
// The paper's robustness argument is about load; this harness makes the
// stronger one about loss.  The island GA runs over an Ethernet whose
// frames are dropped with per-frame probability `loss`, for the lockstep
// variant (age 0: barrier + fresh Global_Read each generation, updates
// forced reliable) and two bounded-staleness variants (age 10 and 30,
// best-effort updates + starvation watchdog).  Each cell reports the
// completion time and its ratio to the same variant's fault-free run,
// plus the recovery work performed: frames lost on the wire, transport
// retransmissions, and Global_Read watchdog escalations.
//
// The expected shape: the synchronous column degrades with the loss rate
// (every lost reliable frame is a retransmission round-trip on the
// critical path), while the age>=10 columns stay within a few percent of
// their fault-free time — loss is absorbed by the staleness budget.
//
// A second sweep makes the crash-recovery argument: at 1% loss, one node
// is torn down mid-run (stateful crash semantics) under each recovery
// policy.  `none` deadlocks, `degraded` completes on stale reads, and
// `rejoin` restores the last checkpoint and catches up — the table and
// JSON report the recovery work (checkpoints, restores, rejoins,
// degraded reads, iterations rolled back).
//
// A third sweep replaces clean losses with payload corruption
// (corruption-rate x age): frame CRCs must turn every damaged frame into
// an ordinary loss, so each cell should match the loss table's shape and
// the DSM quarantine counter should stay at zero.
//
// A fourth sweep makes the partition-tolerance argument: the cluster is
// split into two halves for a scheduled window (partition-duration x age)
// with quorum-gated membership and anti-entropy heal.  Neither half holds
// the quorum, so both sides serve divergence-bounded degraded reads
// instead of split-braining; at window end writers republish over the
// reliable channel and every diverged location must reconcile.
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "ga/island.hpp"
#include "harness/sweep.hpp"
#include "obs/obs.hpp"
#include "recovery/recovery.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

/// One sweep cell: the run's unified counters (the GA result's RunStats).
using Cell = nscc::harness::RunStats;

double completion_s(const Cell& cell) {
  return nscc::sim::to_seconds(cell.completion_time);
}

Cell run(double loss, long age, int demes, int generations,
         std::uint64_t seed, std::uint64_t fault_seed,
         nscc::sim::Time read_timeout,
         nscc::recovery::Policy policy = nscc::recovery::Policy::kNone,
         const nscc::fault::Window* crash = nullptr, double corrupt = 0.0,
         const nscc::fault::PartitionWindow* partition = nullptr,
         double quorum = 0.0, bool heal = false) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 1;
  cfg.mode = age == 0 ? nscc::dsm::Mode::kSynchronous
                      : nscc::dsm::Mode::kPartialAsync;
  cfg.age = age;
  cfg.ndemes = demes;
  cfg.generations = generations;
  cfg.seed = seed;
  cfg.propagation.coalesce = age > 0;
  if (age > 0) cfg.propagation.read_timeout = read_timeout;
  cfg.recovery.policy = policy;
  cfg.recovery.checkpoint_interval = 100 * nscc::sim::kMillisecond;
  cfg.recovery.quorum_fraction = quorum;
  cfg.propagation.partition_heal = heal;
  // Corrupted sweeps exercise the whole integrity layer: transport frame
  // CRCs drop damaged frames as loss, and the DSM update checksum
  // quarantines anything that slips past.
  cfg.propagation.integrity = corrupt > 0.0;

  nscc::fault::FaultPlan plan;
  plan.seed = fault_seed;
  plan.link.loss_prob = loss;
  plan.link.corrupt_prob = corrupt;
  if (crash != nullptr) {
    plan.nodes[1].crashes.push_back(*crash);
    plan.crash_semantics = nscc::fault::CrashSemantics::kStateful;
  }
  if (partition != nullptr) plan.partitions.push_back(*partition);
  nscc::rt::MachineConfig machine;
  machine.fault = plan;
  machine.transport.enabled = !plan.empty() || cfg.recovery.enabled();

  return nscc::ga::run_island_ga(cfg, machine);
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("demes", 8, "GA nodes")
      .add_int("generations", 120, "generations per deme")
      .add_int("seed", 1, "base seed")
      .add_bool("csv", false, "also emit CSV");
  nscc::obs::add_flags(flags);
  nscc::fault::add_flags(flags);
  nscc::harness::Sweep sweep("ext_faults");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);
  const int demes = static_cast<int>(flags.get_int("demes"));
  const int generations = static_cast<int>(flags.get_int("generations"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed"));
  nscc::sim::Time read_timeout = nscc::fault::read_timeout_from_flags(flags);
  if (read_timeout == 0) read_timeout = 50 * nscc::sim::kMillisecond;

  const std::vector<double> losses = {0.0, 0.001, 0.01, 0.05};
  const std::vector<long> ages = {0, 10, 30};

  // Fault-free baselines, one per variant.
  std::vector<Cell> base;
  for (long age : ages) {
    base.push_back(
        run(0.0, age, demes, generations, seed, fault_seed, read_timeout));
  }

  nscc::util::Table table("Extension E - completion time vs frame loss");
  table.columns({"loss", "variant", "completion s", "vs fault-free",
                 "frames lost", "retx", "escalations"});
  for (double loss : losses) {
    for (std::size_t i = 0; i < ages.size(); ++i) {
      const long age = ages[i];
      const Cell cell =
          loss == 0.0
              ? base[i]
              : run(loss, age, demes, generations, seed, fault_seed,
                    read_timeout);
      const std::string label =
          age == 0 ? "sync" : "age" + std::to_string(age);
      table.row()
          .cell(nscc::util::format_double(loss * 100.0, 1) + " %")
          .cell(label + (cell.deadlocked ? " (DEADLOCK)" : ""))
          .cell(completion_s(cell), 2)
          .cell(completion_s(cell) / completion_s(base[i]), 3)
          .cell(cell.frames_lost)
          .cell(cell.retransmissions)
          .cell(cell.read_escalations);
      nscc::harness::SweepRecord rec;
      rec.workload = "ga.island";
      rec.variant = age == 0 ? "sync" : "partial";
      rec.age = age;
      rec.seed = seed;
      rec.repeat = 0;
      rec.params = {{"loss", loss},
                    {"demes", static_cast<double>(demes)},
                    {"generations", static_cast<double>(generations)}};
      rec.stats = {{"completion_s", completion_s(cell)},
                   {"vs_fault_free", completion_s(cell) / completion_s(base[i])},
                   {"frames_lost", static_cast<double>(cell.frames_lost)},
                   {"retransmissions",
                    static_cast<double>(cell.retransmissions)},
                   {"read_escalations", static_cast<double>(cell.read_escalations)},
                   {"deadlocked", cell.deadlocked ? 1.0 : 0.0}};
      sweep.add(std::move(rec));
    }
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();

  // Crash-recovery sweep: one node torn down mid-run at 1% loss, per
  // policy.  The crash lands at 40% of the crash-free age-10 completion so
  // it scales with --demes/--generations.
  const double kCrashLoss = 0.01;
  const double crash_at_s = 0.4 * completion_s(base[1]);
  nscc::fault::Window crash;
  crash.start = static_cast<nscc::sim::Time>(
      crash_at_s * static_cast<double>(nscc::sim::kSecond));
  crash.end = crash.start + static_cast<nscc::sim::Time>(
                                0.08 * static_cast<double>(nscc::sim::kSecond));

  nscc::util::Table rtable(
      "Extension E2 - crash-restart recovery (1% loss, node 1 down)");
  rtable.columns({"policy", "variant", "completion s", "vs crash-free",
                  "crashes", "ckpts", "restores", "rejoins", "degraded",
                  "lost iters"});
  const std::vector<std::pair<std::string, nscc::recovery::Policy>> policies =
      {{"none", nscc::recovery::Policy::kNone},
       {"degraded", nscc::recovery::Policy::kDegraded},
       {"rejoin", nscc::recovery::Policy::kRejoin}};
  for (const auto& [pname, policy] : policies) {
    for (std::size_t i = 1; i < ages.size(); ++i) {
      const long age = ages[i];
      const Cell cell = run(kCrashLoss, age, demes, generations, seed,
                            fault_seed, read_timeout, policy, &crash);
      const std::string label = "age" + std::to_string(age);
      rtable.row()
          .cell(pname)
          .cell(label + (cell.deadlocked ? " (DEADLOCK)" : ""))
          .cell(completion_s(cell), 2)
          .cell(completion_s(cell) / completion_s(base[i]), 3)
          .cell(cell.crashes)
          .cell(cell.checkpoints_taken)
          .cell(cell.restores)
          .cell(cell.rejoins)
          .cell(cell.degraded_reads)
          .cell(static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, cell.lost_iterations)));
      nscc::harness::SweepRecord rec;
      rec.workload = "ga.island";
      rec.variant = "partial";
      rec.age = age;
      rec.seed = seed;
      rec.repeat = 0;
      rec.params = {{"loss", kCrashLoss},
                    {"demes", static_cast<double>(demes)},
                    {"generations", static_cast<double>(generations)},
                    {"crash_at_s", crash_at_s},
                    {"policy", static_cast<double>(policy)}};
      rec.stats = {
          {"completion_s", completion_s(cell)},
          {"vs_crash_free", completion_s(cell) / completion_s(base[i])},
          {"deadlocked", cell.deadlocked ? 1.0 : 0.0},
          {"crashes", static_cast<double>(cell.crashes)},
          {"checkpoints_taken",
           static_cast<double>(cell.checkpoints_taken)},
          {"restores", static_cast<double>(cell.restores)},
          {"rejoins", static_cast<double>(cell.rejoins)},
          {"degraded_reads", static_cast<double>(cell.degraded_reads)},
          {"detection_latency_s",
           nscc::sim::to_seconds(cell.detection_latency)},
          {"recovery_latency_s",
           nscc::sim::to_seconds(cell.recovery_latency)},
          {"lost_iterations",
           static_cast<double>(cell.lost_iterations)}};
      sweep.add(std::move(rec));
    }
  }
  std::cout << '\n';
  rtable.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << rtable.to_csv();

  // Corruption sweep: damaged payloads instead of clean losses.  Frame
  // CRCs turn corruption into loss, so the expected shape matches the loss
  // table — the sync column pays retransmission round-trips while the
  // bounded-staleness columns absorb the drops — and the quarantine
  // counter stays at zero (nothing damaged reaches the DSM).
  const std::vector<double> corrupts = {0.001, 0.01, 0.05};
  nscc::util::Table ctable(
      "Extension E3 - completion time vs payload corruption");
  ctable.columns({"corrupt", "variant", "completion s", "vs fault-free",
                  "retx", "escalations", "quarantined"});
  for (double corrupt : corrupts) {
    for (std::size_t i = 0; i < ages.size(); ++i) {
      const long age = ages[i];
      const Cell cell = run(0.0, age, demes, generations, seed, fault_seed,
                            read_timeout, nscc::recovery::Policy::kNone,
                            nullptr, corrupt);
      const std::string label =
          age == 0 ? "sync" : "age" + std::to_string(age);
      ctable.row()
          .cell(nscc::util::format_double(corrupt * 100.0, 1) + " %")
          .cell(label + (cell.deadlocked ? " (DEADLOCK)" : ""))
          .cell(completion_s(cell), 2)
          .cell(completion_s(cell) / completion_s(base[i]), 3)
          .cell(cell.retransmissions)
          .cell(cell.read_escalations)
          .cell(cell.integrity_dropped);
      nscc::harness::SweepRecord rec;
      rec.workload = "ga.island";
      rec.variant = age == 0 ? "sync" : "partial";
      rec.age = age;
      rec.seed = seed;
      rec.repeat = 0;
      rec.params = {{"corrupt", corrupt},
                    {"demes", static_cast<double>(demes)},
                    {"generations", static_cast<double>(generations)}};
      rec.stats = {{"completion_s", completion_s(cell)},
                   {"vs_fault_free", completion_s(cell) / completion_s(base[i])},
                   {"retransmissions",
                    static_cast<double>(cell.retransmissions)},
                   {"read_escalations", static_cast<double>(cell.read_escalations)},
                   {"integrity_dropped",
                    static_cast<double>(cell.integrity_dropped)},
                   {"sanitize_violations",
                    static_cast<double>(cell.sanitize_violations)},
                   {"deadlocked", cell.deadlocked ? 1.0 : 0.0}};
      sweep.add(std::move(rec));
    }
  }
  std::cout << '\n';
  ctable.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << ctable.to_csv();

  // Partition sweep: the cluster splits into two halves for a scheduled
  // window (duration x age), with quorum-gated membership and anti-entropy
  // heal on.  Neither half holds a 5/8 quorum, so both sides serve
  // divergence-bounded degraded reads instead of declaring each other dead;
  // at window end the writers republish and every diverged location
  // reconciles — `diverged` must equal `reconciled` in every cell.
  const double part_start_s = 0.2 * completion_s(base[1]);
  const std::vector<double> part_durs_s = {0.1 * completion_s(base[1]),
                                           0.3 * completion_s(base[1])};
  const double kQuorum = 0.625;
  nscc::fault::PartitionWindow split;
  for (int node = 0; node < demes; ++node) {
    if (node == 0) split.groups.assign(2, {});
    split.groups[static_cast<std::size_t>(node < demes / 2 ? 0 : 1)]
        .push_back(node);
  }
  nscc::util::Table ptable(
      "Extension E4 - partition-and-heal (half split, quorum 5/8)");
  ptable.columns({"split s", "variant", "completion s", "vs fault-free",
                  "part drops", "stale served", "heal frames", "diverged",
                  "reconciled"});
  for (double dur_s : part_durs_s) {
    split.window.start = static_cast<nscc::sim::Time>(
        part_start_s * static_cast<double>(nscc::sim::kSecond));
    split.window.end =
        split.window.start +
        static_cast<nscc::sim::Time>(dur_s *
                                     static_cast<double>(nscc::sim::kSecond));
    for (std::size_t i = 1; i < ages.size(); ++i) {
      const long age = ages[i];
      const Cell cell =
          run(0.0, age, demes, generations, seed, fault_seed, read_timeout,
              nscc::recovery::Policy::kDegraded, nullptr, 0.0, &split,
              kQuorum, true);
      const std::string label = "age" + std::to_string(age);
      ptable.row()
          .cell(nscc::util::format_double(dur_s, 2))
          .cell(label + (cell.deadlocked ? " (DEADLOCK)" : ""))
          .cell(completion_s(cell), 2)
          .cell(completion_s(cell) / completion_s(base[i]), 3)
          .cell(cell.partition_drops)
          .cell(cell.partition_stale_served)
          .cell(cell.heal_frames)
          .cell(cell.diverged_locations)
          .cell(cell.reconciled_locations);
      nscc::harness::SweepRecord rec;
      rec.workload = "ga.island";
      rec.variant = "partial";
      rec.age = age;
      rec.seed = seed;
      rec.repeat = 0;
      rec.params = {{"part_start_s", part_start_s},
                    {"part_dur_s", dur_s},
                    {"quorum", kQuorum},
                    {"heal", 1.0},
                    {"demes", static_cast<double>(demes)},
                    {"generations", static_cast<double>(generations)}};
      rec.stats = {
          {"completion_s", completion_s(cell)},
          {"vs_fault_free", completion_s(cell) / completion_s(base[i])},
          {"partition_drops", static_cast<double>(cell.partition_drops)},
          {"partition_stale_served",
           static_cast<double>(cell.partition_stale_served)},
          {"heal_frames", static_cast<double>(cell.heal_frames)},
          {"diverged_locations",
           static_cast<double>(cell.diverged_locations)},
          {"reconciled_locations",
           static_cast<double>(cell.reconciled_locations)},
          {"quorum_parks", static_cast<double>(cell.quorum_parks)},
          {"split_brain_declarations",
           static_cast<double>(cell.split_brain_declarations)},
          {"deadlocked", cell.deadlocked ? 1.0 : 0.0}};
      sweep.add(std::move(rec));
    }
  }
  std::cout << '\n';
  ptable.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << ptable.to_csv();
  return sweep.write() ? 0 : 1;
}
