#include "harness/policy.hpp"

#include "recovery/recovery.hpp"
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
  if (recovery::Coordinator* rc = opt.recovery; rc != nullptr) {
    const int self = opt.self;
    if (rc->partitioned()) {
      // Per-node membership: this node judges peers from the heartbeats it
      // received, and degrades (never declares) while it cannot hear a
      // quorum.
      prop.writer_alive = [rc, self](int node) {
        return rc->alive(self, node);
      };
      prop.in_quorum = [rc, self] { return rc->in_quorum(self); };
    } else {
      prop.writer_alive = [rc](int node) { return rc->alive(node); };
    }
    prop.detecting = [rc] { return rc->detecting(); };
    // Rejoin liveness needs the starvation watchdog: a restarted node's
    // empty cache is only refilled promptly by explicit demands (peers
    // blocked on *it* cannot be publishing meanwhile).
    if (prop.read_timeout <= 0) prop.read_timeout = 50 * sim::kMillisecond;
  }
  return prop;
}

}  // namespace nscc::harness
