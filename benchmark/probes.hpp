// Layer probes: each drives one layer of the simulator (sim, net, rt, dsm)
// through its public API with the workload's node count, update size,
// network and fault plan, and times every call from outside with a span.
// Spans inside the simulator are deliberately absent: the benchmark only
// measures the calls it makes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/policy.hpp"
#include "harness/run_config.hpp"
#include "rt/vm.hpp"
#include "spans.hpp"

namespace nscc::benchmark {

/// Bytes SharedSpace adds around a written value on the wire: location id
/// (4), iteration stamp (8) and the nested packet's length prefix (8).
inline constexpr std::uint32_t kDsmHeaderBytes = 20;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Append `<name>.p50` and `<name>.p99` (nearest rank) of `samples`.
void add_percentiles(Metrics& out, const std::string& name,
                     std::vector<double> samples, const std::string& unit);

/// Nearest-rank median of `samples` (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);

/// Everything a probe needs to mirror one workload.
struct ProbeContext {
  /// The workload's machine: network, fault plan and transport.
  rt::MachineConfig machine;
  /// The workload's mode, age and propagation policy.
  harness::RunConfig run;
  /// How the workload's tasks build their DSM policy from `run`.
  harness::PolicyOptions policy;
  /// Simulated nodes of the workload (engine queue width, switch ports).
  int nodes = 2;
  /// Bytes of one DSM update as the workload sends it.
  std::uint32_t update_bytes = 64;
  /// Timed samples per reported percentile pair.
  int samples = 2000;
  SpanLog* log = nullptr;
  int parent = SpanLog::kRoot;
  int run_id = 0;
};

/// sim: sim.event_ns.*, sim.fiber_switch_ns.*, sim.allocs_per_event.
void probe_sim(const ProbeContext& ctx, Metrics& out);
/// net: net.frame_ns.* on the workload's interconnect and fault plan.
void probe_net(const ProbeContext& ctx, Metrics& out);
/// rt: rt.msg_ns.* and rt.allocs_per_msg from a 2-task ping-pong.
void probe_rt(const ProbeContext& ctx, Metrics& out);
/// dsm: dsm.write_ns.*, dsm.global_read_ns.*, dsm.allocs_per_update from a
/// writer/reader SharedSpace pair.
void probe_dsm(const ProbeContext& ctx, Metrics& out);

}  // namespace nscc::benchmark
