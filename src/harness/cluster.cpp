#include "harness/cluster.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "net/load_generator.hpp"
#include "util/rng.hpp"

namespace nscc::harness {

namespace {

/// `machine` sized and seeded for the run, once its fault plan is known to
/// name only nodes the machine has.  Messages name the flag that schedules
/// each window, so a driver can print them as flag errors.
rt::MachineConfig sized(rt::MachineConfig machine, std::uint64_t seed,
                        int ntasks) {
  auto check = [ntasks](int node, const std::string& what) {
    if (node < 0 || node >= ntasks) {
      throw std::invalid_argument(
          what + " names node " + std::to_string(node) +
          ", but the machine has " + std::to_string(ntasks) + " nodes (0-" +
          std::to_string(ntasks - 1) + ")");
    }
  };
  const fault::FaultPlan& plan = machine.fault;
  for (const auto& entry : plan.crashes) check(entry.first, "--crash-node");
  for (const fault::PartitionWindow& p : plan.partitions) {
    for (const auto& group : p.groups) {
      for (const int node : group) check(node, "--partition-at");
    }
  }
  for (const fault::BlackholeWindow& h : plan.blackholes) {
    check(h.src, "--blackhole-at");
    check(h.dst, "--blackhole-at");
  }
  machine.ntasks = ntasks;
  machine.seed = seed;
  return machine;
}

}  // namespace

Cluster::Cluster(rt::MachineConfig machine, const RunConfig& run, int ntasks,
                 double node_speed_spread)
    : vm_(sized(std::move(machine), run.seed, ntasks)),
      speed_(static_cast<std::size_t>(ntasks)),
      loader_offered_bps_(run.loader_offered_bps),
      seed_(run.seed) {
  if (run.recovery.enabled()) {
    coord_ = std::make_unique<recovery::Coordinator>(vm_, run.recovery);
  }
  util::Xoshiro256 skew_rng(seed_ ^ 0x5ca1eULL);
  for (double& s : speed_) s = 1.0 + node_speed_spread * skew_rng.uniform01();
}

RunStats Cluster::run() {
  net::LoadGenerator loader(vm_.engine(), vm_.bus(),
                            net::LoadGeneratorConfig{
                                .offered_bps = loader_offered_bps_,
                                .frame_payload_bytes = 1024,
                                .poisson = true,
                                .seed = seed_ ^ 0x70adULL,
                            });
  const sim::Time end = vm_.run(sim::kHorizon);
  loader.stop();
  RunStats stats = RunStats::from_registry(vm_.obs().registry());
  stats.completion_time = end;
  stats.deadlocked = vm_.deadlocked() || end >= sim::kHorizon;
  return stats;
}

}  // namespace nscc::harness
