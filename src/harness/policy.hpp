// The one Mode → PropagationPolicy mapping every workload used to
// hand-roll: which RunConfig::propagation fields a task's SharedSpace
// lifts, the synchronous-mode reliable-updates rule, and the watchdog
// floor a recovery policy needs.  Deduplicated here so the
// consistency-model choice — and any future policy knob — threads through
// all four applications from a single place.  Membership is not a policy
// knob: a SharedSpace reads it from its machine (rt::Membership).
#pragma once

#include "dsm/shared_space.hpp"
#include "harness/run_config.hpp"

namespace nscc::harness {

struct PolicyOptions {
  /// Start from the run's full PropagationPolicy (the GA honours every
  /// knob, read_impl included) instead of the curated subset the other
  /// workloads lift (read_timeout / partition_heal / consistency).
  bool full = false;
  /// Subset mode only: also lift the coalescing decision (the solver;
  /// the nn/bayes tasks never coalesce regardless of mode).
  bool coalesce = false;
  /// Synchronous mode has no staleness tolerance: when the machine has a
  /// reliable transport, force updates onto it (a lost age-0 update would
  /// stall the barrier-step pipeline until recovery).  Pass the machine's
  /// transport availability in `transport_enabled`.
  bool sync_reliable_updates = false;
  bool transport_enabled = false;
};

/// Build the task-level propagation policy for one node of a workload.
[[nodiscard]] dsm::PropagationPolicy make_policy(const RunConfig& run,
                                                 const PolicyOptions& opt);

}  // namespace nscc::harness
