#include "harness/run_config.hpp"

#include <stdexcept>

#include "sanitize/sanitize.hpp"
#include "util/flags.hpp"

namespace nscc::harness {

RunStats RunStats::from_registry(const obs::Registry& reg) {
  auto total = [&reg](const std::string& name) {
    return reg.counter_total(name);
  };
  auto nanos = [&total](const std::string& name) {
    return static_cast<sim::Time>(total(name));
  };
  RunStats s;
  s.messages_sent = total("rt.messages_sent");
  s.bytes_sent = total("rt.bytes_sent");
  s.global_read_blocks = total("dsm.global_read_blocks");
  s.global_read_block_time = nanos("dsm.global_read_block_time_ns");
  s.bus_utilization = reg.gauge_value("net.utilization");
  if (const obs::Histogram* h = reg.find_histogram("dsm.staleness")) {
    s.mean_staleness = h->mean();
  }
  s.mean_warp = reg.gauge_value("warp.mean");
  s.frames_lost = total("fault.frames_lost");
  s.retransmissions = total("rt.retransmissions");
  s.read_escalations = total("dsm.read_escalations");
  s.integrity_dropped = total("dsm.integrity_dropped");
  for (int k = 0; k < sanitize::kViolationKinds; ++k) {
    s.sanitize_violations +=
        total(std::string("sanitize.violations.") +
              sanitize::violation_name(static_cast<sanitize::ViolationKind>(k)));
  }
  s.crashes = total("recovery.crashes");
  s.checkpoints_taken = total("recovery.checkpoints_taken");
  s.restores = total("recovery.restores") + total("recovery.cold_restarts");
  s.rejoins = total("recovery.rejoins");
  s.degraded_reads = total("dsm.degraded_reads");
  s.detection_latency = nanos("recovery.detection_latency_ns");
  s.recovery_latency = nanos("recovery.recovery_latency_ns");
  s.lost_iterations =
      static_cast<std::int64_t>(total("recovery.lost_iterations"));
  s.partition_drops =
      total("fault.partition_drops") + total("fault.blackhole_drops");
  s.partition_stale_served = total("dsm.partition.stale_served");
  s.heal_frames = total("dsm.partition.heal_frames");
  s.diverged_locations = total("dsm.partition.diverged_locations");
  s.reconciled_locations = total("dsm.partition.reconciled_locations");
  s.split_brain_declarations = total("recovery.split_brain_declarations");
  s.quorum_parks = total("recovery.quorum_parks");
  s.updates_parked = total("dsm.consistency.updates_parked");
  s.updates_flushed = total("dsm.consistency.updates_flushed");
  s.ooo_updates = total("dsm.consistency.ooo_updates");
  return s;
}

std::vector<std::pair<std::string, double>> RunStats::to_fields() const {
  std::vector<std::pair<std::string, double>> fields = {
      {"completion_s", sim::to_seconds(completion_time)},
      {"deadlocked", deadlocked ? 1.0 : 0.0},
      {"messages_sent", static_cast<double>(messages_sent)},
      {"bytes_sent", static_cast<double>(bytes_sent)},
      {"global_read_blocks", static_cast<double>(global_read_blocks)},
      {"global_read_block_s", sim::to_seconds(global_read_block_time)},
      {"bus_utilization", bus_utilization},
      {"mean_staleness", mean_staleness},
      {"mean_warp", mean_warp},
      {"frames_lost", static_cast<double>(frames_lost)},
      {"retransmissions", static_cast<double>(retransmissions)},
      {"read_escalations", static_cast<double>(read_escalations)},
      {"integrity_dropped", static_cast<double>(integrity_dropped)},
      {"sanitize_violations", static_cast<double>(sanitize_violations)},
      {"crashes", static_cast<double>(crashes)},
      {"checkpoints_taken", static_cast<double>(checkpoints_taken)},
      {"restores", static_cast<double>(restores)},
      {"rejoins", static_cast<double>(rejoins)},
      {"degraded_reads", static_cast<double>(degraded_reads)},
      {"detection_latency_s", sim::to_seconds(detection_latency)},
      {"recovery_latency_s", sim::to_seconds(recovery_latency)},
      {"lost_iterations", static_cast<double>(lost_iterations)},
      {"partition_drops", static_cast<double>(partition_drops)},
      {"partition_stale_served", static_cast<double>(partition_stale_served)},
      {"heal_frames", static_cast<double>(heal_frames)},
      {"diverged_locations", static_cast<double>(diverged_locations)},
      {"reconciled_locations", static_cast<double>(reconciled_locations)},
      {"split_brain_declarations",
       static_cast<double>(split_brain_declarations)},
      {"quorum_parks", static_cast<double>(quorum_parks)},
      {"updates_parked", static_cast<double>(updates_parked)},
      {"updates_flushed", static_cast<double>(updates_flushed)},
      {"ooo_updates", static_cast<double>(ooo_updates)},
      {quality_name, quality},
  };
  fields.insert(fields.end(), extra.begin(), extra.end());
  return fields;
}

double RunStats::extra_value(const std::string& name) const {
  for (const auto& [key, value] : extra) {
    if (key == name) return value;
  }
  throw std::out_of_range("RunStats: no extra field " + name);
}

std::string VariantSpec::label() const {
  if (name == "sync") return "synchronous";
  if (name == "async") return "asynchronous";
  if (name == "partial") return "Global_Read(" + std::to_string(age) + ")";
  return name;
}

std::string VariantSpec::tag() const {
  return name == "partial" ? "age" + std::to_string(age) : name;
}

const std::vector<std::string>& variant_names() {
  static const std::vector<std::string> names = {"sync", "async", "partial"};
  return names;
}

VariantSpec make_variant(const std::string& name, dsm::Iteration partial_age) {
  if (name == "sync") return {name, dsm::Mode::kSynchronous, 0};
  if (name == "async") return {name, dsm::Mode::kAsynchronous, 0};
  if (name == "partial") {
    return {name, dsm::Mode::kPartialAsync, partial_age};
  }
  throw std::invalid_argument("unknown variant: " + name);
}

std::vector<VariantSpec> parse_variants(
    const std::string& csv, const std::vector<dsm::Iteration>& partial_ages) {
  std::vector<VariantSpec> specs;
  for (const auto& name : util::split_csv(csv)) {
    if (name != "partial") {
      specs.push_back(make_variant(name, 0));
      continue;
    }
    for (const dsm::Iteration age : partial_ages) {
      specs.push_back(make_variant(name, age));
    }
  }
  return specs;
}

RunConfig for_variant(const RunConfig& base, const VariantSpec& variant) {
  RunConfig run = base;
  run.mode = variant.mode;
  run.age = variant.age;
  run.propagation.coalesce = variant.mode == dsm::Mode::kPartialAsync;
  return run;
}

}  // namespace nscc::harness
