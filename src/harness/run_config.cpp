#include "harness/run_config.hpp"

#include <stdexcept>
#include <type_traits>
#include <variant>

#include "sanitize/sanitize.hpp"
#include "util/flags.hpp"

namespace nscc::harness {

namespace {

using enum StatField::Source;
using enum ColumnGroup;

/// Every sanitize.violations.<kind> counter.
std::vector<std::string> violation_counters() {
  std::vector<std::string> names;
  for (int k = 0; k < sanitize::kViolationKinds; ++k) {
    names.push_back(
        std::string("sanitize.violations.") +
        sanitize::violation_name(static_cast<sanitize::ViolationKind>(k)));
  }
  return names;
}

}  // namespace

const std::vector<StatField>& stat_fields() {
  static const std::vector<StatField> fields = {
      {.name = "messages_sent", .member = &RunStats::messages_sent,
       .from = {"rt.messages_sent"}, .column = {"messages"},
       .lower_is_better = true},
      {.name = "bytes_sent", .member = &RunStats::bytes_sent,
       .from = {"rt.bytes_sent"}, .lower_is_better = true},
      {.name = "global_read_blocks", .member = &RunStats::global_read_blocks,
       .from = {"dsm.global_read_blocks"}, .column = {"gr blocks"},
       .lower_is_better = true},
      {.name = "global_read_block_s",
       .member = &RunStats::global_read_block_time, .seconds = true,
       .from = {"dsm.global_read_block_time_ns"},
       .column = {"block time s", kAlways, 2}, .lower_is_better = true},
      {.name = "bus_utilization", .member = &RunStats::bus_utilization,
       .source = kGauge, .from = {"net.utilization"},
       .column = {"bus util", kAlways, 2}},
      {.name = "mean_staleness", .member = &RunStats::mean_staleness,
       .source = kMean, .from = {"dsm.staleness"}},
      {.name = "mean_warp", .member = &RunStats::mean_warp, .source = kGauge,
       .from = {"warp.mean"}},
      {.name = "frames_lost", .member = &RunStats::frames_lost,
       .from = {"fault.frames_lost"}, .column = {"frames lost", kFaults},
       .lower_is_better = true},
      {.name = "retransmissions", .member = &RunStats::retransmissions,
       .from = {"rt.retransmissions"}, .column = {"retx", kFaults},
       .lower_is_better = true},
      {.name = "read_escalations", .member = &RunStats::read_escalations,
       .from = {"dsm.read_escalations"}, .column = {"escalations", kFaults},
       .lower_is_better = true},
      {.name = "integrity_dropped", .member = &RunStats::integrity_dropped,
       .from = {"dsm.integrity_dropped"}, .column = {"quarantined", kAudited},
       .lower_is_better = true},
      {.name = "sanitize_violations", .member = &RunStats::sanitize_violations,
       .from = violation_counters(), .column = {"violations", kAudited},
       .lower_is_better = true},
      {.name = "crashes", .member = &RunStats::crashes,
       .from = {"rt.crashes"}, .column = {"crashes", kRecovery}},
      {.name = "checkpoints_taken", .member = &RunStats::checkpoints_taken,
       .from = {"recovery.checkpoints_taken"}},
      {.name = "restores", .member = &RunStats::restores,
       .from = {"recovery.restores", "recovery.cold_restarts"},
       .column = {"restores", kRecovery}},
      {.name = "rejoins", .member = &RunStats::rejoins,
       .from = {"recovery.rejoins"}, .column = {"rejoins", kRecovery}},
      {.name = "degraded_reads", .member = &RunStats::degraded_reads,
       .from = {"dsm.degraded_reads"}, .column = {"degraded reads", kRecovery}},
      {.name = "detection_latency_s", .member = &RunStats::detection_latency,
       .seconds = true, .from = {"recovery.detection_latency_ns"}},
      {.name = "recovery_latency_s", .member = &RunStats::recovery_latency,
       .seconds = true, .from = {"recovery.recovery_latency_ns"}},
      {.name = "lost_iterations", .member = &RunStats::lost_iterations,
       .from = {"recovery.lost_iterations"}},
      {.name = "partition_drops", .member = &RunStats::partition_drops,
       .from = {"fault.partition_drops", "fault.blackhole_drops"},
       .column = {"part drops", kPartition}},
      {.name = "partition_stale_served",
       .member = &RunStats::partition_stale_served,
       .from = {"dsm.partition.stale_served"},
       .column = {"stale served", kPartition}},
      {.name = "heal_frames", .member = &RunStats::heal_frames,
       .from = {"dsm.partition.heal_frames"},
       .column = {"heal frames", kPartition}},
      {.name = "diverged_locations", .member = &RunStats::diverged_locations,
       .from = {"dsm.partition.diverged_locations"},
       .column = {"diverged", kPartition}},
      {.name = "reconciled_locations",
       .member = &RunStats::reconciled_locations,
       .from = {"dsm.partition.reconciled_locations"},
       .column = {"reconciled", kPartition}},
      {.name = "split_brain_declarations",
       .member = &RunStats::split_brain_declarations,
       .from = {"recovery.split_brain_declarations"},
       .column = {"split brains", kPartition}},
      {.name = "quorum_parks", .member = &RunStats::quorum_parks,
       .from = {"recovery.quorum_parks"}},
      {.name = "updates_parked", .member = &RunStats::updates_parked,
       .from = {"dsm.consistency.updates_parked"}},
      {.name = "updates_flushed", .member = &RunStats::updates_flushed,
       .from = {"dsm.consistency.updates_flushed"}},
      {.name = "ooo_updates", .member = &RunStats::ooo_updates,
       .from = {"dsm.consistency.ooo_updates"}},
  };
  return fields;
}

double StatField::value(const RunStats& stats) const {
  return std::visit(
      [&](auto member) {
        return seconds ? sim::to_seconds(static_cast<sim::Time>(stats.*member))
                       : static_cast<double>(stats.*member);
      },
      member);
}

RunStats RunStats::from_registry(const obs::Registry& reg) {
  RunStats s;
  for (const StatField& f : stat_fields()) {
    std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(s.*member)>;
          if (f.source == kGauge) {
            s.*member = static_cast<T>(reg.gauge_value(f.from[0]));
          } else if (f.source == kMean) {
            const obs::Histogram* h = reg.find_histogram(f.from[0]);
            s.*member = static_cast<T>(h != nullptr ? h->mean() : 0.0);
          } else {
            std::uint64_t total = 0;
            for (const auto& name : f.from) total += reg.counter_total(name);
            s.*member = static_cast<T>(total);
          }
        },
        f.member);
  }
  return s;
}

std::vector<std::pair<std::string, double>> RunStats::to_fields() const {
  std::vector<std::pair<std::string, double>> fields = {
      {"completion_s", sim::to_seconds(completion_time)},
      {"deadlocked", deadlocked ? 1.0 : 0.0}};
  for (const StatField& f : stat_fields()) {
    fields.emplace_back(f.name, f.value(*this));
  }
  fields.emplace_back(quality_name, quality);
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
