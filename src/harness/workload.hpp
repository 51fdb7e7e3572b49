// The workload seam: one interface every application implements so drivers,
// bench sweeps, and tests can run "some workload under some consistency
// variant on some machine" without knowing which application it is.
//
// A Workload declares its problem parameters once, in its constructor:
// each declaration binds a member, names its flag, and gives the range the
// application can run and the help text, and the member's initializer is
// the default.  register_params() and configure() are driven by those
// declarations alone, so every flag parse starts from the declared
// defaults and a reused instance carries nothing from one run to the next.
// A Workload maps the unified RunConfig onto its legacy config type; its
// run() returns the unified RunStats.  The Registry maps names
// ("ga.island", ...) to workload instances; the four paper workloads are
// registered by register_builtin_workloads(), which Registry::global()
// applies lazily so static-library link order cannot drop them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "harness/run_config.hpp"
#include "sanitize/sanitize.hpp"

namespace nscc::util {
class Flags;
}  // namespace nscc::util
namespace nscc::rt {
struct MachineConfig;
}  // namespace nscc::rt

namespace nscc::harness {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable registry name, e.g. "ga.island".
  [[nodiscard]] virtual std::string name() const = 0;
  /// One-line description for tables and --help.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Register the declared parameters as flags (--demes, --grid, ...),
  /// each with its declared default and range, so a size the application
  /// cannot run is rejected at parse time.
  void register_params(util::Flags& flags) const;
  /// Set every declared parameter from the registered flags.
  void configure(const util::Flags& flags);
  /// The declared parameters' current values, in declaration order: the
  /// problem instance every run of this workload is keyed by.
  [[nodiscard]] std::vector<std::pair<std::string, double>> param_values()
      const;

  /// Run once on a fresh simulated machine.  `run.seed` also seeds the
  /// workload's problem instance so a (config, machine) pair is a pure
  /// function of its fields.
  virtual RunStats run(const RunConfig& run,
                       const rt::MachineConfig& machine) = 0;

  /// The workload's race-tolerance contract for one configured run: which
  /// shared locations tolerate how much staleness, and whether degraded or
  /// never-written values may flow into their consumers.  The staleness
  /// sanitizer audits every DSM read against this.  Default: an empty spec
  /// (fully tolerant — nothing is certified).
  [[nodiscard]] virtual sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const;

  /// The sequential program this workload parallelises, run once on the
  /// problem instance `run.seed` selects: the serial baseline that speedups
  /// divide by (paper Section 5.1.1).  The driver prints it as a preamble
  /// line; the cell runner uses it as each rep's serial variant.
  [[nodiscard]] virtual RunStats reference(const RunConfig& run) const = 0;

  /// The paper's quality-matching rule (Section 5.1.1), as the cell runner
  /// applies it.  `serial` is this rep's reference(); `sync` is null while
  /// the synchronous variant runs (its result sets the quality bar) and
  /// that result for every other variant.  A workload that grows a budget
  /// to meet the bar reports it in its extras.  Default: run() unchanged.
  virtual RunStats run_matched(const RunConfig& run,
                               const rt::MachineConfig& machine,
                               const RunStats& serial, const RunStats* sync);

 protected:
  /// An integer parameter's runnable values, [lo, hi].
  struct IntRange {
    std::int64_t lo;
    std::int64_t hi = INT64_MAX;
  };
  /// A real parameter's runnable values: finite and > lo.
  struct Above {
    double lo;
  };

  /// Declare a problem parameter: its flag name, the member of `W` it
  /// binds (an int, std::uint64_t or double), the values the application
  /// can run, and its help text.  Called from W's constructor, so the
  /// member's initializer becomes the flag default.
  template <class W, class T>
  void declare(std::string name, T W::*member,
               std::conditional_t<std::is_floating_point_v<T>, Above, IntRange>
                   range,
               std::string help) {
    const auto bound = static_cast<T Workload::*>(member);
    params_.push_back({std::move(name), std::move(help), bound, range,
                       static_cast<double>(this->*bound)});
  }

 private:
  struct Param {
    std::string name;
    std::string help;
    std::variant<int Workload::*, std::uint64_t Workload::*,
                 double Workload::*>
        member;
    std::variant<IntRange, Above> range;
    double def;  ///< The member's value when declared.
  };
  std::vector<Param> params_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register a workload.  Returns false (and drops the workload) when a
  /// workload with the same name is already registered.
  bool add(std::unique_ptr<Workload> workload);

  /// nullptr when no workload has that name.
  [[nodiscard]] Workload* find(const std::string& name) const noexcept;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return workloads_.size(); }

  /// The process-wide registry, with the built-in workloads registered.
  static Registry& global();

 private:
  std::vector<std::unique_ptr<Workload>> workloads_;
};

/// Register the four paper workloads (ga.island, bayes.sampling,
/// solver.jacobi, nn.train) into `registry`.
void register_builtin_workloads(Registry& registry);

}  // namespace nscc::harness
