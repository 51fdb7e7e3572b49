#include "harness/policy.hpp"

#include "sim/time.hpp"

namespace nscc::harness {

dsm::PropagationPolicy make_policy(const RunConfig& run,
                                   const PolicyOptions& opt) {
  dsm::PropagationPolicy prop;
  if (opt.full) {
    prop = run.propagation;
  } else {
    prop.read_timeout = run.propagation.read_timeout;
    prop.partition_heal = run.propagation.partition_heal;
    if (opt.coalesce) prop.coalesce = run.propagation.coalesce;
  }
  // The consistency model always threads through: it is the semantics of
  // every read, not a transport knob a workload may curate away.
  prop.consistency = run.propagation.consistency;
  if (opt.sync_reliable_updates && run.mode == dsm::Mode::kSynchronous &&
      opt.transport_enabled) {
    prop.reliable_updates = true;
  }
  // Rejoin liveness needs the starvation watchdog: a restarted node's
  // empty cache is only refilled promptly by explicit demands (peers
  // blocked on *it* cannot be publishing meanwhile).
  if (run.recovery.enabled() && prop.read_timeout <= 0) {
    prop.read_timeout = 50 * sim::kMillisecond;
  }
  return prop;
}

}  // namespace nscc::harness
