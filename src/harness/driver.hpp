// The one example/driver layer: harness::drive() owns the flag set
// (--variants/--age/--network/--consistency lists, --seed, plus obs, fault,
// and the workload's declared params), and hands the parsed set-up to the
// row runner, which runs every variant x age x network x model x scenario
// row, prints the unified table, and writes the --json-out run document.
// An example or extension bench is nothing but a DriveOptions
// registration.
//
// A driver may also sweep a scenario axis (background load levels, frame
// loss ladders, crash policies): each Scenario adds a labelled table column,
// numeric JSON coordinates, and any RunConfig/MachineConfig override, while
// everything else stays shared.  A driver with several scenario axes runs
// one Section per axis; later sections may derive their scenarios from the
// rows of earlier ones.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/run_config.hpp"
#include "rt/vm.hpp"

namespace nscc::util {
class Flags;
}  // namespace nscc::util

namespace nscc::harness {

/// One point on a driver's scenario axis.  The default Scenario runs the
/// workload once with the flag-derived configuration.
struct Scenario {
  std::string label;  ///< Table cell; empty = no column.
  /// The scenario's coordinates in the --json-out records' params (loss
  /// rate, load, crash time, ...), so every record keeps its own key.
  std::vector<std::pair<std::string, double>> params = {};
  /// Overrides over the flag-derived run (fault plan, loader rate, recovery
  /// policy, quorum, ...).  Applied before the driver derives
  /// the transport and heal wiring from the final fault plan and recovery
  /// policy.  Null = no overrides.
  std::function<void(RunConfig&, rt::MachineConfig&)> configure = {};
  /// A deadlock is this scenario's expected result (a crash with no
  /// recovery policy): the row is reported as DEADLOCK but does not turn
  /// the exit code into 3.
  bool may_deadlock = false;
};

/// One finished run of the row runner.
struct Row {
  std::string scenario;
  std::vector<std::pair<std::string, double>> params;
  VariantSpec variant;
  std::string consistency;  ///< The row's consistency model.
  rt::Network network = rt::Network::kEthernet;
  bool may_deadlock = false;
  bool partitioned = false;  ///< The row's fault plan could split the cluster.
  bool crash_planned = false;  ///< The row's fault plan crashes a node.
  recovery::Config recovery;  ///< The row's recovery policy and quorum.
  RunStats stats;

  /// "[scenario ]network consistency variant", as notes and epilogues
  /// name the row.
  [[nodiscard]] std::string label() const;
};

/// One table of a driver run: a scenario axis crossed with every selected
/// variant, age, network and consistency model.
struct Section {
  /// Table title; empty = DriveOptions::title, then the workload's
  /// description.
  std::string title;
  /// Header of the scenario column (shown when scenarios are labelled).
  std::string scenario_column = "scenario";
  /// Variant names this section runs, filtered from --variants; empty =
  /// every selected variant.
  std::vector<std::string> variants;
  /// Scenario axis built from the parsed flags and the rows of the earlier
  /// sections; null = one default Scenario.
  std::function<std::vector<Scenario>(const util::Flags&,
                                      const std::vector<Row>&)>
      scenarios;
};

struct DriveOptions {
  /// Registered workload name ("ga.island", ...); required.
  std::string workload;
  /// Table title; empty = the workload's description.
  std::string title;
  /// Explanatory text printed after the last table.
  std::string epilogue;
  /// When set, checks the epilogue's claim against the finished rows: it
  /// returns an empty string when the claim holds, or the text printed
  /// instead of the epilogue when it does not.
  std::function<std::string(const std::vector<Row>&)> epilogue_check;
  /// Per-driver defaults for any registered flag (--variants, --age,
  /// --network, workload params, --seed, --read-timeout-ms, ...), applied
  /// before parsing.
  std::map<std::string, std::string> flag_defaults;
  /// The tables to run, in order; empty = one default Section.
  std::vector<Section> sections;
};

/// One scenario per background load level, labelled "2.0" (Mbps) with
/// JSON param "load_mbps".
[[nodiscard]] std::vector<Scenario> load_scenarios(
    const std::vector<double>& loads_mbps);

/// One scenario per frame-loss rate, labelled "1.0 %" with JSON param
/// "loss": each replaces the flag fault plan with a loss-only plan seeded
/// by --fault-seed.
[[nodiscard]] std::vector<Scenario> loss_scenarios(
    const util::Flags& flags, const std::vector<double>& losses);

/// Run a registered workload under the configured variants and scenarios,
/// print the unified table(s), and return the process exit code: 0 on
/// success, 1 on flag errors, 2 on an unknown workload or an unwritable
/// output file, 3 on an unexpected deadlock, 4 on sanitize=strict
/// violations, 5 on detectable split-brain.
int drive(int argc, char** argv, const DriveOptions& options);

}  // namespace nscc::harness
