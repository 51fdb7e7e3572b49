// The one testbed every parallel workload runs on (paper Sections 5-5.1):
// a simulated machine of `ntasks` nodes seeded from the run, the optional
// crash-recovery Coordinator, a persistent per-node speed skew (the OS-load
// model), and the paper's network loader program started once the tasks
// are in place.  A workload builds a Cluster, adds its tasks to vm(), and
// calls run(); what the tasks compute and report stays the workload's own.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/run_config.hpp"
#include "recovery/recovery.hpp"
#include "rt/vm.hpp"

namespace nscc::harness {

class Cluster {
 public:
  /// Sizes `machine` to `ntasks` nodes seeded with run.seed, builds the VM,
  /// attaches a recovery::Coordinator when run.recovery is enabled, and
  /// draws node speed factors 1 + node_speed_spread * U[0, 1) from
  /// run.seed ^ 0x5ca1e.  Throws std::invalid_argument when the machine's
  /// fault plan names a node outside [0, ntasks).
  Cluster(rt::MachineConfig machine, const RunConfig& run, int ntasks,
          double node_speed_spread);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] rt::VirtualMachine& vm() noexcept { return vm_; }
  /// The run's recovery coordinator; null when recovery is off.
  [[nodiscard]] recovery::Coordinator* recovery() const noexcept {
    return coord_.get();
  }
  /// Node `node`'s persistent compute-time multiplier.
  [[nodiscard]] double speed(int node) const {
    return speed_[static_cast<std::size_t>(node)];
  }

  /// Call once every task is added.  Starts the background loader (1024 B
  /// Poisson frames at run.loader_offered_bps, seeded run.seed ^ 0x70ad),
  /// runs the machine to a 24 h virtual horizon, and returns the registry's
  /// RunStats with completion_time set to the end of the run and
  /// deadlocked set when the machine wedged or hit the horizon.
  RunStats run();

 private:
  rt::VirtualMachine vm_;
  std::unique_ptr<recovery::Coordinator> coord_;
  std::vector<double> speed_;
  double loader_offered_bps_;
  std::uint64_t seed_;
};

}  // namespace nscc::harness
