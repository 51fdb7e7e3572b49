// The workload seam: one interface every application implements so drivers,
// bench sweeps, and tests can run "some workload under some consistency
// variant on some machine" without knowing which application it is.
//
// A Workload owns its problem-specific parameters (registered as flags,
// configured from a parsed flag set or set directly by tests) and maps the
// unified RunConfig onto its legacy config type; its run() returns the
// unified RunStats.  The Registry maps names ("ga.island", ...) to workload
// instances; the four paper workloads are registered by
// register_builtin_workloads(), which Registry::global() applies lazily so
// static-library link order cannot drop them.
#pragma once

#include <memory>
#include <string>
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

  /// Register the workload's problem-size flags (--demes, --grid, ...),
  /// with the ranges the application can run (Flags::range), so a size it
  /// cannot run is rejected at parse time.
  virtual void register_params(util::Flags& flags) const = 0;
  /// Read the registered flags back into the workload's parameters.
  virtual void configure(const util::Flags& flags) = 0;

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
