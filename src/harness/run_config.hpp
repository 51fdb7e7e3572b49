// The unified per-run contract every workload shares (paper Section 5: the
// core experiment is always "run one workload under synchronous / fully
// asynchronous / Global_Read(age) and compare").
//
// RunConfig carries the fields that used to be duplicated across the four
// workload configs — consistency mode, staleness bound, seed, propagation
// policy (coalescing + starvation watchdog), and background load — so a new
// cross-cutting knob lands here once instead of in every driver.  Workload
// configs *embed* it (by inheritance, so existing field accesses keep
// working) and workload results convert to RunStats, the matching unified
// result surface the shared driver and bench sweeps print and serialise.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dsm/shared_space.hpp"
#include "recovery/recovery.hpp"
#include "sim/time.hpp"

namespace nscc::harness {

/// Per-run knobs common to every workload.  Workload configs inherit this;
/// anything not listed here is workload-specific and declared as a
/// Workload parameter instead.
struct RunConfig {
  dsm::Mode mode = dsm::Mode::kSynchronous;
  dsm::Iteration age = 0;  ///< Staleness bound for kPartialAsync.
  std::uint64_t seed = 1;
  /// Update-propagation policy.  harness::make_policy decides what each
  /// workload lifts: every workload takes read_timeout, partition_heal
  /// and consistency; the solver adds coalesce; the GA takes the whole
  /// policy.  Membership is the machine's (rt::Membership), not a policy
  /// field.
  dsm::PropagationPolicy propagation;
  /// Background-load payload bits per second on the interconnect (0 = none).
  double loader_offered_bps = 0.0;
  /// Crash-restart recovery (checkpointing, failure detection, rejoin).
  /// Policy::kNone leaves every run byte-identical to the pre-recovery
  /// harness; kDegraded/kRejoin attach a recovery::Coordinator to the VM.
  recovery::Config recovery;
};

/// The unified result every workload reports: the completion/mechanism
/// numbers, one workload-defined quality metric, and a tail of named
/// extras.  Workload result structs embed it (by inheritance, mirroring how
/// the configs embed RunConfig); every mechanism field comes from the
/// machine's metrics registry through from_registry(), so no layer keeps a
/// second copy of a counter.  stat_fields() declares each mechanism field's
/// name, registry source, driver column and bench-compare direction.
struct RunStats {
  sim::Time completion_time = 0;
  bool deadlocked = false;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t global_read_blocks = 0;
  sim::Time global_read_block_time = 0;
  double bus_utilization = 0.0;
  double mean_staleness = 0.0;
  double mean_warp = 0.0;
  /// Robustness counters (zero on a perfect network).
  std::uint64_t frames_lost = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t read_escalations = 0;
  /// Data-integrity counters (zero unless corruption/sanitizing is on;
  /// integrity_dropped stays zero unless a damaged frame fools the CRC).
  std::uint64_t integrity_dropped = 0;    ///< Undecodable DSM frames dropped.
  std::uint64_t sanitize_violations = 0;  ///< Tolerance-contract violations.
  /// Crash-recovery counters (zero unless a recovery policy was active).
  std::uint64_t crashes = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t restores = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t degraded_reads = 0;
  sim::Time detection_latency = 0;  ///< Summed crash->declared-dead, once
                                    ///< per dead node, at its first
                                    ///< declaration.
  sim::Time recovery_latency = 0;   ///< Summed crash->respawn.
  std::int64_t lost_iterations = 0; ///< Progress rolled back by restores.
  /// Partition counters (zero unless the fault plan scheduled
  /// partition/blackhole windows).
  std::uint64_t partition_drops = 0;        ///< Frames cut by the split.
  std::uint64_t partition_stale_served = 0; ///< Minority-side stale serves.
  std::uint64_t heal_frames = 0;            ///< Anti-entropy republishes.
  std::uint64_t diverged_locations = 0;     ///< Reader locations diverged.
  std::uint64_t reconciled_locations = 0;   ///< Diverged marks later healed.
  std::uint64_t split_brain_declarations = 0;  ///< Mutual dead declarations.
  std::uint64_t quorum_parks = 0;  ///< Dead declarations a minority deferred.
  /// Consistency-model counters (zero under the default nonstrict model).
  std::uint64_t updates_parked = 0;   ///< Arrivals deferred to an acquire.
  std::uint64_t updates_flushed = 0;  ///< Parked updates applied at acquires.
  std::uint64_t ooo_updates = 0;      ///< Release stamps out of order.
  /// The workload's own figure of merit (best fitness, posterior, residual,
  /// training loss, ...), labelled so tables and JSON stay self-describing.
  std::string quality_name = "quality";
  double quality = 0.0;
  /// Workload-specific diagnostics appended to JSON output.
  std::vector<std::pair<std::string, double>> extra = {};

  /// Flat name -> value view (times in seconds) for JSON serialisation:
  /// completion_s, deadlocked, stat_fields(), the quality, the extras.
  [[nodiscard]] std::vector<std::pair<std::string, double>> to_fields() const;

  /// The named entry of `extra`; throws std::out_of_range when absent.
  [[nodiscard]] double extra_value(const std::string& name) const;

  /// Every mechanism field, read from a finished machine's registry as its
  /// stat_fields() entry says.  Reads only what VirtualMachine::run()
  /// publishes on every run, so the result never depends on observers.
  /// completion_time, deadlocked, quality and extra are the caller's.
  [[nodiscard]] static RunStats from_registry(const obs::Registry& reg);
};

/// The driver table's counter column groups, in print order.  A group is
/// shown when any row turned its mechanism on.
enum class ColumnGroup { kAlways, kFaults, kPartition, kRecovery, kAudited };

/// The one declaration of a RunStats mechanism field.
struct StatField {
  /// Where from_registry() reads the field: the sum of counters (over every
  /// pid label), a gauge, or a histogram's mean.
  enum class Source { kCounters, kGauge, kMean };
  using Member = std::variant<std::uint64_t RunStats::*,
                              std::int64_t RunStats::*, double RunStats::*>;

  /// A driver table column; a null header shows none.
  struct Column {
    const char* header = nullptr;
    ColumnGroup group = ColumnGroup::kAlways;
    int precision = 0;  ///< Decimals of the cell.
  };

  const char* name;  ///< to_fields() name.
  Member member;
  bool seconds = false;  ///< A sim::Time member, written in seconds.
  Source source = Source::kCounters;
  std::vector<std::string> from;  ///< Registry metric names.
  Column column = {};
  bool lower_is_better = false;  ///< bench-compare fails only a rise.

  /// The field's to_fields() value in `stats`.
  [[nodiscard]] double value(const RunStats& stats) const;
};

/// Every RunStats mechanism field, in to_fields() order.
[[nodiscard]] const std::vector<StatField>& stat_fields();

/// One (name, mode, age) point of the paper's three-way comparison.  The
/// canonical names — "sync", "async", "partial" — are what --variants
/// accepts.
struct VariantSpec {
  std::string name;
  dsm::Mode mode = dsm::Mode::kSynchronous;
  dsm::Iteration age = 0;

  /// Human label for tables ("synchronous" / "asynchronous" /
  /// "Global_Read(age)").
  [[nodiscard]] std::string label() const;
  /// Column tag for the figure tables: the name, or "age<N>" for partial.
  [[nodiscard]] std::string tag() const;
};

/// The canonical variant names, in paper order.
[[nodiscard]] const std::vector<std::string>& variant_names();

/// Build a VariantSpec from a canonical name; `partial_age` is the bound
/// used when name == "partial".  Throws std::invalid_argument otherwise.
[[nodiscard]] VariantSpec make_variant(const std::string& name,
                                       dsm::Iteration partial_age);

/// Parse a validated --variants value ("sync,partial") into specs, in
/// order; "partial" expands in place to one spec per age in `partial_ages`.
[[nodiscard]] std::vector<VariantSpec> parse_variants(
    const std::string& csv, const std::vector<dsm::Iteration>& partial_ages);

/// `base` specialised to one variant: its mode and age, and coalescing on
/// exactly for the partial variant (staleness tolerance is what licenses
/// update coalescing, paper Sections 1-2; sync and uncontrolled async send
/// directly).
[[nodiscard]] RunConfig for_variant(const RunConfig& base,
                                    const VariantSpec& variant);

}  // namespace nscc::harness
