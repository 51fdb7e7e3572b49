#include "harness/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <stdexcept>

#include "dsm/consistency.hpp"
#include "harness/sweep.hpp"
#include "harness/workload.hpp"
#include "obs/obs.hpp"
#include "recovery/recovery.hpp"
#include "sanitize/sanitize.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace nscc::harness {

namespace {

/// Small figures of merit (residuals, near-optimal fitness) need scientific
/// notation; everything else reads best fixed.
std::string format_quality(double v) {
  char buf[32];
  if (v != 0.0 && std::fabs(v) < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3e", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4f", v);
  }
  return buf;
}

/// The preamble line: the serial baseline every variant is compared with.
/// Whole-number extras (counts, flags) print without decimals.
void print_reference(const RunStats& serial) {
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%.2f",
                sim::to_seconds(serial.completion_time));
  std::cout << "serial reference: " << seconds << "s virtual, "
            << serial.quality_name << '=' << format_quality(serial.quality);
  for (const auto& [name, value] : serial.extra) {
    std::cout << ", " << name << '=';
    if (value == std::trunc(value) && std::fabs(value) < 1e15) {
      std::cout << static_cast<long long>(value);
    } else {
      std::cout << format_quality(value);
    }
  }
  std::cout << '\n';
}

const char* network_name(rt::Network network) {
  return network == rt::Network::kSp2Switch ? "sp2" : "ethernet";
}

}  // namespace

std::string Row::label() const {
  return (scenario.empty() ? "" : scenario + ' ') + network_name(network) +
         ' ' + consistency + ' ' + variant.label();
}

namespace {

/// One stderr note per crash window of `plan` that starts at or after the
/// row's completion time, so that a run meant to exercise crash recovery
/// cannot pass unnoticed while the crash never touched what it reports.
void note_unreached_crashes(const Row& row, const fault::FaultPlan& plan) {
  const sim::Time done = row.stats.completion_time;
  const auto seconds = [](sim::Time t) {
    return util::format_double(sim::to_seconds(t), 3);
  };
  for (const auto& [node, faults] : plan.nodes) {
    for (const fault::Window& w : faults.crashes) {
      if (w.start < done) continue;
      std::cerr << "note: row '" << row.label() << "': node " << node
                << " crash window [" << seconds(w.start) << " s, "
                << seconds(w.end)
                << " s) starts at or after the row's completion time "
                << seconds(done)
                << " s virtual: the crash plays no part in the reported "
                   "completion\n";
    }
  }
}

/// The flag front-end's product: everything every row shares.
struct Setup {
  Workload* workload = nullptr;
  RunConfig base;
  rt::MachineConfig machine;  ///< Flag fault plan and sanitizer level.
  obs::Options obs;
  std::vector<VariantSpec> variants;
  std::vector<rt::Network> networks;
  std::vector<std::string> models;
  bool heal = true;
  bool csv = false;
};

/// The row runner: one section's variant x network x model x scenario
/// rows, printed as one table.  `observe` attaches the observability
/// outputs to the section's last Global_Read row, so --trace-out /
/// --metrics-out capture exactly one run (the one the paper's mechanism is
/// about), or to its last row when the section has no Global_Read row.
/// Throws std::invalid_argument, before any row runs, when a row would
/// put background load on the SP2 switch.
std::vector<Row> run_section(const Setup& setup, const Section& section,
                             const std::string& title,
                             const std::vector<Scenario>& scenarios,
                             bool observe) {
  struct Job {
    const Scenario* scenario;
    const std::string* model;
    const VariantSpec* variant;
    RunConfig run;
    rt::MachineConfig machine;
  };
  std::vector<Job> jobs;
  for (const Scenario& scenario : scenarios) {
    for (const rt::Network network : setup.networks) {
      for (const std::string& model : setup.models) {
        for (const VariantSpec& v : setup.variants) {
          if (!section.variants.empty() &&
              std::find(section.variants.begin(), section.variants.end(),
                        v.name) == section.variants.end()) {
            continue;
          }
          Job job{&scenario, &model, &v, for_variant(setup.base, v),
                  setup.machine};
          job.run.propagation.consistency = model;
          job.machine.network = network;
          if (scenario.configure) scenario.configure(job.run, job.machine);
          if (network == rt::Network::kSp2Switch &&
              job.run.loader_offered_bps > 0.0) {
            // The loader drives the shared bus (harness::Cluster), so on
            // the switch every loaded row would print the unloaded one.
            throw std::invalid_argument(
                "background load (" +
                util::format_double(job.run.loader_offered_bps / 1e6, 1) +
                " Mbps) needs --network=ethernet: the load generator "
                "drives the shared Ethernet bus, which SP2 switch traffic "
                "never crosses");
          }
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  std::size_t observed = observe ? jobs.size() - 1 : jobs.size();
  for (std::size_t i = 0; observe && i < jobs.size(); ++i) {
    if (jobs[i].variant->mode == dsm::Mode::kPartialAsync) observed = i;
  }

  std::vector<Row> rows;
  bool any_fault = false;
  bool any_partition = false;
  bool any_recovery = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    RunConfig& run = job.run;
    rt::MachineConfig& machine = job.machine;
    const fault::FaultPlan& plan = machine.fault;
    // Anti-entropy heal only arms when the plan can actually split the
    // cluster, so partition-free runs stay byte-identical.
    run.propagation.partition_heal = setup.heal && plan.partitionable();
    machine.transport.enabled = !plan.empty() || run.recovery.enabled();
    machine.sanitize.spec = setup.workload->tolerance_spec(run);
    if (i == observed) machine.obs = setup.obs;
    any_fault = any_fault || !plan.empty();
    any_partition = any_partition || plan.partitionable();
    any_recovery = any_recovery || run.recovery.enabled();
    const bool crash_planned = std::any_of(
        plan.nodes.begin(), plan.nodes.end(),
        [](const auto& node) { return !node.second.crashes.empty(); });
    rows.push_back({job.scenario->label, job.scenario->params, *job.variant,
                    *job.model, machine.network, job.scenario->may_deadlock,
                    plan.partitionable(), crash_planned, run.recovery,
                    setup.workload->run(run, machine)});
    note_unreached_crashes(rows.back(), plan);
  }

  util::Table table(title);
  std::vector<std::string> cols;
  const bool scenario_column = !scenarios.empty() && !scenarios[0].label.empty();
  if (scenario_column) cols.push_back(section.scenario_column);
  const bool network_column = setup.networks.size() > 1;
  if (network_column) cols.push_back("network");
  // A non-default consistency model earns its own column; the default keeps
  // the legacy table byte-identical.
  const bool model_column =
      setup.models.size() > 1 || setup.models[0] != "nonstrict";
  if (model_column) cols.push_back("model");
  cols.insert(cols.end(), {"variant", "completion s",
                           rows.empty() ? std::string("quality")
                                        : rows[0].stats.quality_name,
                           "messages", "gr blocks", "block time s",
                           "bus util"});
  if (any_fault) {
    cols.insert(cols.end(), {"frames lost", "retx", "escalations"});
  }
  if (any_partition) {
    cols.insert(cols.end(), {"part drops", "stale served", "heal frames",
                             "diverged", "reconciled", "split brains"});
  }
  if (any_recovery) {
    cols.insert(cols.end(),
                {"crashes", "restores", "rejoins", "degraded reads"});
  }
  // Audited runs report the sanitizer's verdicts beside the DSM's decode
  // quarantine.
  const bool audited = setup.machine.sanitize.level != sanitize::Level::kOff;
  if (audited) {
    cols.insert(cols.end(), {"quarantined", "violations"});
  }
  table.columns(cols);
  for (const auto& row : rows) {
    table.row();
    if (scenario_column) table.cell(row.scenario);
    if (network_column) table.cell(network_name(row.network));
    if (model_column) table.cell(row.consistency);
    const RunStats& s = row.stats;
    table.cell(row.variant.label() + (s.deadlocked ? " (DEADLOCK)" : ""))
        .cell(sim::to_seconds(s.completion_time), 2)
        .cell(format_quality(s.quality))
        .cell(s.messages_sent)
        .cell(s.global_read_blocks)
        .cell(sim::to_seconds(s.global_read_block_time), 2)
        .cell(s.bus_utilization, 2);
    if (any_fault) {
      table.cell(s.frames_lost).cell(s.retransmissions).cell(
          s.read_escalations);
    }
    if (any_partition) {
      table.cell(s.partition_drops)
          .cell(s.partition_stale_served)
          .cell(s.heal_frames)
          .cell(s.diverged_locations)
          .cell(s.reconciled_locations)
          .cell(s.split_brain_declarations);
    }
    if (any_recovery) {
      table.cell(s.crashes).cell(s.restores).cell(s.rejoins).cell(
          s.degraded_reads);
    }
    if (audited) {
      table.cell(s.integrity_dropped).cell(s.sanitize_violations);
    }
  }
  table.print(std::cout);
  if (setup.csv) std::cout << '\n' << table.to_csv();
  return rows;
}

/// The --json-out document: the serial reference, then one record per row,
/// labelled as notes name the row and keyed by its variant, age, model,
/// network, scenario params and the workload's declared parameters (the
/// problem instance).
Sweep sweep_of(const std::string& bench, const Workload& workload,
               std::uint64_t seed, const RunStats& reference,
               const std::vector<Row>& rows) {
  const auto instance = workload.param_values();
  Sweep sweep(bench);
  sweep.add({.workload = workload.name(),
             .variant = "serial",
             .seed = seed,
             .params = instance,
             .stats = reference.to_fields()});
  for (const Row& row : rows) {
    SweepRecord rec{.workload = workload.name(),
                    .variant = row.variant.name,
                    .label = row.label(),
                    .consistency = row.consistency,
                    .age = row.variant.age,
                    .seed = seed,
                    .params = instance,
                    .stats = row.stats.to_fields()};
    rec.params.insert(rec.params.end(), row.params.begin(), row.params.end());
    rec.params.emplace_back(
        "sp2", row.network == rt::Network::kSp2Switch ? 1.0 : 0.0);
    sweep.add(std::move(rec));
  }
  return sweep;
}

/// The producing binary for the JSON "bench" field: argv[0]'s basename
/// without the "bench_" prefix.
std::string bench_name(const char* argv0) {
  std::string name = argv0 == nullptr ? "" : argv0;
  if (const auto slash = name.rfind('/'); slash != std::string::npos) {
    name.erase(0, slash + 1);
  }
  if (name.rfind("bench_", 0) == 0) name.erase(0, 6);
  return name;
}

}  // namespace

std::vector<Scenario> load_scenarios(const std::vector<double>& loads_mbps) {
  std::vector<Scenario> scenarios;
  for (const double load_mbps : loads_mbps) {
    scenarios.push_back(
        {.label = util::format_double(load_mbps, 1),
         .params = {{"load_mbps", load_mbps}},
         .configure = [load_mbps](RunConfig& run, rt::MachineConfig&) {
           run.loader_offered_bps = load_mbps * 1e6;
         }});
  }
  return scenarios;
}

std::vector<Scenario> loss_scenarios(const util::Flags& flags,
                                     const std::vector<double>& losses) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("fault-seed"));
  std::vector<Scenario> scenarios;
  for (const double loss : losses) {
    scenarios.push_back(
        {.label = util::format_double(loss * 100.0, 1) + " %",
         .params = {{"loss", loss}},
         .configure = [seed, loss](RunConfig&, rt::MachineConfig& machine) {
           machine.fault = {};
           machine.fault.seed = seed;
           machine.fault.link.loss_prob = loss;
         }});
  }
  return scenarios;
}

int drive(int argc, char** argv, const DriveOptions& options) {
  Workload* workload = Registry::global().find(options.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << options.workload << "'; registered:";
    for (const auto& name : Registry::global().names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    return 2;
  }

  util::Flags flags;
  flags
      .add_enum_list("variants", "sync,async,partial", variant_names(),
                     "consistency variants to run")
      .add_int_list("age", "10",
                    "staleness bounds for the partial (Global_Read) "
                    "variant; one row per age")
      .range("age", 0)
      .add_int("seed", 1, "random seed (also seeds the problem instance)")
      .add_enum_list("network", "ethernet", {"ethernet", "sp2"},
                     "interconnects, one row per network: shared 10 Mbps "
                     "Ethernet and/or SP2 switch")
      .add_enum("recovery", "none", {"none", "degraded", "rejoin"},
                "crash-recovery policy for stateful (--crash-at) windows")
      .add_double("checkpoint-interval", 0.5,
                  "virtual seconds between node checkpoints (0 disables)")
      .add_enum_list("consistency", "nonstrict",
                     dsm::ConsistencyRegistry::instance().names(),
                     "consistency models applied by every DSM instance, one "
                     "row per model: nonstrict (paper default), regional "
                     "(region-scoped fences), release-acquire (updates "
                     "visible only at acquires), or eventual (never block "
                     "on staleness)")
      .add_enum("sanitize", "off", {"off", "track", "strict"},
                "staleness sanitizer: audit every DSM read against the "
                "workload's tolerance contract (strict exits nonzero on any "
                "violation)")
      .add_double("quorum", 0.0,
                  "fraction of the cluster (self included) an observer must "
                  "hear before declaring a suspected peer dead; 0 disables "
                  "the split-brain gate")
      .add_bool("heal", true,
                "anti-entropy heal: writers republish their locations over "
                "the reliable channel when a partition/blackhole window ends")
      .add_int("heartbeat-interval-ms", 50,
               "failure-detector heartbeat period in virtual ms (> 0)")
      .add_int("suspect-timeout-ms", 0,
               "silence before suspecting a peer, in virtual ms (0 derives "
               "the phi-threshold default; otherwise must exceed the "
               "heartbeat interval)")
      .add_bool("csv", false, "also emit each table as CSV");
  Sweep::add_flags(flags);
  obs::add_flags(flags);
  fault::add_flags(flags);
  workload->register_params(flags);
  for (const auto& [name, value] : options.flag_defaults) {
    if (!flags.set_default(name, value)) return 2;
  }
  if (!flags.parse(argc, argv)) return 1;

  workload->configure(flags);
  Setup setup;
  setup.workload = workload;
  try {
    setup.machine.fault = fault::plan_from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "harness: " << e.what() << '\n';
    return 1;
  }
  const double quorum = flags.get_double("quorum");
  if (quorum < 0.0 || quorum > 1.0) {
    std::cerr << "harness: --quorum must be in [0, 1], got " << quorum << '\n';
    return 1;
  }
  const std::int64_t heartbeat_ms = flags.get_int("heartbeat-interval-ms");
  if (heartbeat_ms <= 0) {
    std::cerr << "harness: --heartbeat-interval-ms must be > 0, got "
              << heartbeat_ms << '\n';
    return 1;
  }
  const std::int64_t suspect_ms = flags.get_int("suspect-timeout-ms");
  if (suspect_ms < 0) {
    std::cerr << "harness: --suspect-timeout-ms must be >= 0, got "
              << suspect_ms << '\n';
    return 1;
  }
  if (suspect_ms > 0 && suspect_ms <= heartbeat_ms) {
    std::cerr << "harness: --suspect-timeout-ms (" << suspect_ms
              << ") must exceed --heartbeat-interval-ms (" << heartbeat_ms
              << ") or the detector suspects peers between heartbeats\n";
    return 1;
  }
  setup.heal = flags.get_bool("heal");
  setup.csv = flags.get_bool("csv");
  setup.obs = obs::options_from_flags(flags);
  for (const auto& name : flags.get_list("network")) {
    setup.networks.push_back(name == "sp2" ? rt::Network::kSp2Switch
                                           : rt::Network::kEthernet);
  }
  setup.models = flags.get_list("consistency");
  const std::vector<std::int64_t> ages = flags.get_int_list("age");
  // Each row must keep its own JSON cell key.
  if (std::set<std::int64_t>(ages.begin(), ages.end()).size() != ages.size()) {
    std::cerr << "harness: --age lists an age twice\n";
    return 1;
  }
  setup.variants = parse_variants(
      flags.get_string("variants"),
      std::vector<dsm::Iteration>(ages.begin(), ages.end()));
  const sanitize::Level sanitize_level =
      *sanitize::level_from_name(flags.get_string("sanitize"));
  setup.machine.sanitize.level = sanitize_level;

  RunConfig& base = setup.base;
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  // One watchdog rule for every variant: --read-timeout-ms arms the
  // Global_Read starvation watchdog on sync, async and partial alike.
  base.propagation.read_timeout = fault::read_timeout_from_flags(flags);
  base.recovery.policy =
      *recovery::policy_from_name(flags.get_string("recovery"));
  base.recovery.checkpoint_interval = static_cast<sim::Time>(
      flags.get_double("checkpoint-interval") *
      static_cast<double>(sim::kSecond));
  base.recovery.quorum_fraction = quorum;
  base.recovery.heartbeat_interval =
      static_cast<sim::Time>(heartbeat_ms) * sim::kMillisecond;
  base.recovery.suspect_timeout =
      static_cast<sim::Time>(suspect_ms) * sim::kMillisecond;
  const RunStats reference = workload->reference(base);
  print_reference(reference);

  const std::vector<Section> sections =
      options.sections.empty() ? std::vector<Section>{Section{}}
                               : options.sections;
  std::vector<Row> rows;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const Section& section = sections[i];
    const std::string& title =
        !section.title.empty()   ? section.title
        : !options.title.empty() ? options.title
                                 : workload->description();
    const std::vector<Scenario> scenarios =
        section.scenarios ? section.scenarios(flags, rows)
                          : std::vector<Scenario>{Scenario{}};
    if (i > 0) std::cout << '\n';
    std::vector<Row> section_rows;
    try {
      section_rows = run_section(setup, section, title, scenarios,
                                 i + 1 == sections.size());
    } catch (const std::invalid_argument& e) {
      // harness::Cluster rejects a fault plan naming a node the machine
      // lacks; only the workload's machine size can tell.
      std::cerr << "harness: " << e.what() << '\n';
      return 1;
    }
    rows.insert(rows.end(), std::make_move_iterator(section_rows.begin()),
                std::make_move_iterator(section_rows.end()));
  }
  if (!options.epilogue.empty()) {
    const std::string failed =
        options.epilogue_check ? options.epilogue_check(rows) : "";
    std::cout << '\n' << (failed.empty() ? options.epilogue : failed) << '\n';
  }

  // Written before the deadlock/sanitize/split-brain exit checks below on
  // purpose: a failing run's document is exactly the artifact CI uploads.
  Sweep sweep = sweep_of(bench_name(argc > 0 ? argv[0] : nullptr), *workload,
                         base.seed, reference, rows);
  sweep.configure(flags);
  if (!sweep.write()) return 2;

  // A deadlocked run is a wedged experiment, not a data point: fail loudly
  // so scripts and CI cannot mistake the table for a healthy result.
  for (const auto& row : rows) {
    if (row.stats.deadlocked && !row.may_deadlock) {
      std::cerr << "harness: deadlock — variant '" << row.variant.label()
                << "' never completed (blocked processes reported above by "
                   "the simulator); ";
      if (!row.crash_planned && row.stats.frames_lost > 0) {
        // No crash to survive: a lost update that no reader re-demanded
        // wedged the run.  A recovery policy arms the watchdog too
        // (harness::make_policy).
        if (base.propagation.read_timeout > 0 ||
            row.recovery.enabled()) {
          std::cerr << "frames were lost even with the Global_Read "
                       "watchdog on (--read-timeout-ms)\n";
        } else {
          std::cerr << "frames were lost and no Global_Read watchdog was "
                       "armed; rerun with --read-timeout-ms to re-demand "
                       "lost updates\n";
        }
      } else if (!row.recovery.enabled()) {
        std::cerr << "rerun with --recovery=degraded or --recovery=rejoin to "
                     "survive crash faults\n";
      } else {
        std::cerr << "a barrier-based variant cannot survive the crash, "
                     "even under --recovery="
                  << recovery::policy_name(row.recovery.policy) << '\n';
      }
      return 3;
    }
  }
  // Under --sanitize=strict the tolerance contract is an assertion, not a
  // diagnostic: any read outside the declared envelope fails the run.
  if (sanitize_level == sanitize::Level::kStrict) {
    std::uint64_t violations = 0;
    for (const auto& row : rows) violations += row.stats.sanitize_violations;
    if (violations > 0) {
      std::cerr << "harness: sanitize=strict — " << violations
                << " tolerance-contract violation(s) across " << rows.size()
                << " run(s); per-read detail reported above by each "
                   "machine's sanitizer\n";
      return 4;
    }
  }
  // A partitioned run split-brains when both sides declared each other dead
  // (mutual dead declarations — the quorum gate's job to prevent) or when
  // diverged locations were never reconciled (anti-entropy heal's job).
  // This is the demonstrable failure mode of --quorum=0 --heal=false.  The
  // advice names what the first such row lacked; a row that had both a
  // majority quorum and the heal is named as a failure of them.
  std::uint64_t diverged = 0;
  std::uint64_t reconciled = 0;
  std::uint64_t split_brains = 0;
  const Row* split = nullptr;
  for (const auto& row : rows) {
    if (!row.partitioned) continue;
    diverged += row.stats.diverged_locations;
    reconciled += row.stats.reconciled_locations;
    split_brains += row.stats.split_brain_declarations;
    if (split == nullptr && (row.stats.split_brain_declarations > 0 ||
                             row.stats.diverged_locations >
                                 row.stats.reconciled_locations)) {
      split = &row;
    }
  }
  if (split != nullptr) {
    std::cerr << "harness: split-brain — " << split_brains
              << " mutual dead declaration(s), " << (diverged - reconciled)
              << " diverged location(s) never reconciled; ";
    const bool majority = split->recovery.quorum_fraction > 0.5;
    if (majority && setup.heal) {
      std::cerr << "the quorum-gated, healed row '" << split->label()
                << "' still diverged\n";
    } else {
      std::cerr << "rerun with "
                << (majority ? "" : "a majority --quorum to gate dead "
                                    "declarations")
                << (majority || setup.heal ? "" : " and ")
                << (setup.heal ? "" : "--heal to merge divergent histories")
                << '\n';
    }
    return 5;
  }
  return 0;
}

}  // namespace nscc::harness
