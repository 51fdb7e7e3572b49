// Extension E: completion time under frame loss (loss-rate x age sweep).
//
// The paper's robustness argument is about load; this harness makes the
// stronger one about loss.  The island GA runs over an Ethernet whose
// frames are dropped with per-frame probability `loss`, for the lockstep
// variant (barrier + fresh Global_Read each generation, updates forced
// reliable) and two bounded-staleness variants (age 10 and 30, best-effort
// updates).  Every variant runs with the 50 ms Global_Read starvation
// watchdog (--read-timeout-ms).  Each row reports the completion time plus
// the recovery work performed: frames lost on the wire, transport
// retransmissions, and Global_Read watchdog escalations; a row's ratio to
// its fault-free run is the two completion_s stats of --json-out.
//
// The expected shape: the synchronous column degrades with the loss rate
// (every lost reliable frame is a retransmission round-trip on the
// critical path), while the bounded-staleness columns stay within a few
// percent of their fault-free time — loss is absorbed by the staleness
// budget.
//
// A second sweep makes the crash-recovery argument: at 1% loss, one node
// is torn down mid-run (stateful crash semantics) under each recovery
// policy.  `none` deadlocks (by design: reported, not an error exit),
// `degraded` completes on stale reads, and `rejoin` restores the last
// checkpoint and catches up.
//
// A third sweep replaces clean losses with payload corruption
// (corruption-rate x age): frame CRCs must turn every damaged frame into
// an ordinary loss, so each row should match the loss table's shape and
// the DSM quarantine counter (`integrity_dropped` in --json-out) should
// stay at zero.
//
// A fourth sweep makes the partition-tolerance argument: the cluster is
// split into two halves for a scheduled window (partition-duration x age)
// with quorum-gated membership and anti-entropy heal.  Neither half holds
// the quorum, so both sides serve divergence-bounded degraded reads
// instead of split-braining; at window end writers republish over the
// reliable channel and every diverged location must reconcile.
//
// The crash and partition windows scale with the fault-free run of the
// first Global_Read age (age 10 by default), so they follow --demes and
// --generations.
//
// Each section adds its own fault to the flag fault plan, and refuses the
// flag that schedules the same fault (E2 --crash-at, E3 --corrupt-rate,
// E4 --partition-at) with exit 1.
#include <algorithm>
#include <stdexcept>

#include "harness/driver.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace nscc;

/// Completion seconds of the first fault-free Global_Read row; 0 when
/// --variants ran none.
double fault_free_partial_s(const std::vector<harness::Row>& rows) {
  const std::vector<std::pair<std::string, double>> fault_free = {
      {"loss", 0.0}};
  const auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
    return r.variant.mode == dsm::Mode::kPartialAsync &&
           r.params == fault_free;
  });
  return it == rows.end() ? 0.0 : sim::to_seconds(it->stats.completion_time);
}

sim::Time at(double seconds) {
  return static_cast<sim::Time>(seconds * static_cast<double>(sim::kSecond));
}

/// harness::drive turns the throw into exit 1 before the section's first
/// row runs.
void refuse_flag_fault(bool given, const std::string& section,
                       const std::string& flag) {
  if (given) {
    throw std::invalid_argument("section " + section +
                                " schedules this fault itself; drop " + flag);
  }
}

}  // namespace

int main(int argc, char** argv) {
  harness::DriveOptions options;
  options.workload = "ga.island";
  options.flag_defaults = {{"variants", "sync,partial"},
                           {"age", "10,30"},
                           {"function", "1"},
                           {"generations", "120"},
                           {"read-timeout-ms", "50"},
                           {"checkpoint-interval", "0.1"}};

  harness::Section loss;
  loss.title = "Extension E - completion time vs frame loss";
  loss.scenario_column = "loss";
  loss.scenarios = [](const util::Flags&, const std::vector<harness::Row>&) {
    return harness::loss_scenarios({0.0, 0.001, 0.01, 0.05});
  };

  // One node torn down at 40% of the fault-free completion, for 80 ms.
  harness::Section crash;
  crash.title = "Extension E2 - crash-restart recovery (1% loss, node 1 down)";
  crash.scenario_column = "policy";
  crash.variants = {"partial"};
  crash.scenarios = [](const util::Flags&,
                       const std::vector<harness::Row>& rows) {
    constexpr double kCrashLoss = 0.01;
    const double crash_at_s = 0.4 * fault_free_partial_s(rows);
    if (crash_at_s == 0.0) return std::vector<harness::Scenario>{};
    const fault::Window window{at(crash_at_s), at(crash_at_s) + at(0.08)};
    std::vector<harness::Scenario> scenarios;
    for (const recovery::Policy policy :
         {recovery::Policy::kNone, recovery::Policy::kDegraded,
          recovery::Policy::kRejoin}) {
      scenarios.push_back(
          {.label = recovery::policy_name(policy),
           .params = {{"loss", kCrashLoss},
                      {"crash_at_s", crash_at_s},
                      {"policy", static_cast<double>(policy)}},
           .configure = [window, policy](harness::RunConfig& run,
                                         rt::MachineConfig& machine) {
             refuse_flag_fault(!machine.fault.crashes.empty(),
                               "E2 (crash-restart recovery)", "--crash-at");
             run.recovery.policy = policy;
             machine.fault.link.loss_prob = kCrashLoss;
             machine.fault.crashes[1].push_back(window);
           },
           .may_deadlock = policy == recovery::Policy::kNone});
    }
    return scenarios;
  };

  // Damaged payloads instead of clean losses.
  harness::Section corrupt;
  corrupt.title = "Extension E3 - completion time vs payload corruption";
  corrupt.scenario_column = "corrupt";
  corrupt.scenarios = [](const util::Flags&,
                         const std::vector<harness::Row>&) {
    std::vector<harness::Scenario> scenarios;
    for (const double rate : {0.001, 0.01, 0.05}) {
      scenarios.push_back(
          {.label = util::format_double(rate * 100.0, 1) + " %",
           .params = {{"corrupt", rate}},
           .configure = [rate](harness::RunConfig&,
                               rt::MachineConfig& machine) {
             refuse_flag_fault(machine.fault.link.corrupt_prob > 0.0,
                               "E3 (payload corruption)", "--corrupt-rate");
             machine.fault.link.corrupt_prob = rate;
           }});
    }
    return scenarios;
  };

  // Half/half split from 20% of the fault-free completion, lasting 10% and
  // 30% of it; neither half holds the 5/8 quorum.
  harness::Section split;
  split.title = "Extension E4 - partition-and-heal (half split, quorum 5/8)";
  split.scenario_column = "split s";
  split.variants = {"partial"};
  split.scenarios = [](const util::Flags& flags,
                       const std::vector<harness::Row>& rows) {
    constexpr double kQuorum = 0.625;
    const double base_s = fault_free_partial_s(rows);
    if (base_s == 0.0) return std::vector<harness::Scenario>{};
    const double start_s = 0.2 * base_s;
    const auto demes = static_cast<int>(flags.get_int("demes"));
    fault::PartitionWindow window;
    window.groups.assign(2, {});
    for (int node = 0; node < demes; ++node) {
      window.groups[node < demes / 2 ? 0 : 1].push_back(node);
    }
    std::vector<harness::Scenario> scenarios;
    for (const double dur_s : {0.1 * base_s, 0.3 * base_s}) {
      window.window = {at(start_s), at(start_s) + at(dur_s)};
      scenarios.push_back(
          {.label = util::format_double(dur_s, 2),
           .params = {{"part_start_s", start_s},
                      {"part_dur_s", dur_s},
                      {"quorum", kQuorum}},
           .configure = [window](harness::RunConfig& run,
                                 rt::MachineConfig& machine) {
             refuse_flag_fault(!machine.fault.partitions.empty(),
                               "E4 (partition-and-heal)", "--partition-at");
             run.recovery.policy = recovery::Policy::kDegraded;
             run.recovery.quorum_fraction = kQuorum;
             machine.fault.partitions.push_back(window);
           }});
    }
    return scenarios;
  };

  options.sections = {loss, crash, corrupt, split};
  return harness::drive(argc, argv, options);
}
