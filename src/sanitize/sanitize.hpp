// Shadow-state staleness sanitizer: certify race tolerance, don't assume it.
//
// The paper's argument rests on an unchecked assumption — that every
// Global_Read(loc, iter, age) which returns stale or degraded data lands in
// code that genuinely tolerates it.  This subsystem turns that assumption
// into a checkable contract:
//
//  * Each workload declares a ToleranceSpec: per location (or location
//    range), the maximum acceptable age and whether degraded / never-valid
//    values may flow into the consumer.
//  * The Sanitizer keeps a bounded per-location shadow log of write history
//    (writer, iteration, virtual time, payload checksum) and audits every
//    DSM read against both the read's own declared age bound and the
//    contract.
//  * Violations increment the sanitize.* counters in the machine's metrics
//    registry, emit trace events, and are printed in an end-of-run report;
//    under --sanitize=strict the harness driver turns any violation into a
//    nonzero exit.
//
// Layering: sanitize sits below rt (rt::VirtualMachine owns the machine's
// Sanitizer and dsm::SharedSpace feeds it), so this header may depend only
// on sim, obs and util.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace nscc::sanitize {

/// Mirrors dsm::LocationId / iteration numbering without depending on dsm
/// (which sits above rt, which sits above this library).
using LocationId = std::int32_t;
using Iteration = std::int64_t;

enum class Level {
  kOff,    ///< No shadow state, no audits (zero overhead).
  kTrack,  ///< Record and report violations; the run still exits 0.
  kStrict, ///< As kTrack, but the driver exits nonzero on any violation.
};

[[nodiscard]] const char* level_name(Level level) noexcept;
[[nodiscard]] std::optional<Level> level_from_name(const std::string& name);

/// What one location (or the spec's default) tolerates.
struct ToleranceRule {
  /// Maximum acceptable staleness in iterations; -1 = unbounded.
  Iteration max_age = -1;
  /// May a degraded value (served past its age bound because the producer
  /// is dead) flow into this location's consumer?
  bool tolerate_degraded = true;
  /// May a never-written (!valid) value flow in?
  bool tolerate_invalid = true;
  /// When true, every read of this location must state an age bound
  /// (Global_Read); a plain un-aged read() is itself a staleness violation.
  /// Workloads whose barrier already guarantees freshness (e.g. the
  /// solver's verified convergence phase) leave this off and may plain-read
  /// even age-0 locations.
  bool require_aged = false;
};

/// Per-workload contract mapping locations to tolerance rules.  Lookup
/// order: exact declaration, then the most recently declared covering
/// range, then the default rule (fully tolerant — the sanitizer is
/// opt-in per location, matching how the paper's applications only
/// reason about the locations they share).
class ToleranceSpec {
 public:
  ToleranceSpec& set_default(ToleranceRule rule);
  ToleranceSpec& declare(LocationId loc, ToleranceRule rule);
  /// Declare every location in the half-open range [lo, hi).
  ToleranceSpec& declare_range(LocationId lo, LocationId hi,
                               ToleranceRule rule);
  [[nodiscard]] ToleranceRule rule_for(LocationId loc) const noexcept;

 private:
  struct Range {
    LocationId lo;
    LocationId hi;
    ToleranceRule rule;
  };
  ToleranceRule default_{};
  std::map<LocationId, ToleranceRule> points_;
  std::vector<Range> ranges_;
};

enum class ViolationKind : int {
  kStaleness = 0,  ///< Valid, non-degraded value older than the tightest bound.
  kDegraded,       ///< Degraded value into a degraded-intolerant location.
  kInvalid,        ///< Never-written value into an invalid-intolerant location.
  kChecksum,       ///< Delivered payload differs from the shadow checksum.
};
inline constexpr int kViolationKinds = 4;

[[nodiscard]] const char* violation_name(ViolationKind kind) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::kStaleness;
  int reader = -1;
  LocationId loc = 0;
  Iteration curr_iter = 0;
  Iteration value_iter = -1;
  /// Effective staleness bound that was exceeded (kStaleness only).
  Iteration limit = -1;
  sim::Time at = 0;
};

struct Options {
  Level level = Level::kOff;
  /// Shadow-log depth per location; bounds sanitizer memory to
  /// O(locations * depth) regardless of run length.
  std::size_t shadow_depth = 64;
  /// Cap on individually recorded violations (counters keep counting).
  std::size_t max_recorded = 32;
  ToleranceSpec spec;

  [[nodiscard]] bool enabled() const noexcept { return level != Level::kOff; }
};

/// Counts into `hub`'s registry: sanitize.writes_recorded,
/// sanitize.reads_audited, sanitize.shadow_evictions (shadow-log entries
/// evicted by the depth bound), sanitize.checksum_unverified (reads whose
/// iteration had already fallen off the bounded shadow log, so the checksum
/// could not be cross-checked; not a violation) and one
/// sanitize.violations.<kind> per ViolationKind.
class Sanitizer {
 public:
  Sanitizer(Options options, obs::Hub& hub);

  /// Writer side: record one committed write into the shadow log.
  void record_write(int writer, LocationId loc, Iteration iter,
                    std::uint32_t checksum, std::uint32_t bytes, sim::Time at);

  /// Reader side: audit one delivered value.  `declared_age` is the age
  /// bound the reader passed to Global_Read, or -1 for a plain (async)
  /// read, which carries no staleness semantics to audit.
  void audit_read(int reader, LocationId loc, Iteration curr_iter,
                  Iteration declared_age, bool valid, bool degraded,
                  Iteration value_iter, std::uint32_t checksum, sim::Time at);

  [[nodiscard]] const Options& options() const noexcept { return opt_; }
  /// Violations of every kind so far.
  [[nodiscard]] std::uint64_t violations() const noexcept;
  [[nodiscard]] const std::vector<Violation>& recorded() const noexcept {
    return recorded_;
  }

  /// End-of-run violation report (one line when clean).
  void report(std::ostream& out) const;

 private:
  struct ShadowWrite {
    Iteration iter;
    std::uint32_t checksum;
    std::uint32_t bytes;
    int writer;
    sim::Time at;
  };

  void flag(ViolationKind kind, int reader, LocationId loc,
            Iteration curr_iter, Iteration value_iter, Iteration limit,
            sim::Time at);

  Options opt_;
  obs::Hub& hub_;
  std::map<LocationId, std::deque<ShadowWrite>> shadow_;
  obs::Counter& writes_recorded_;
  obs::Counter& reads_audited_;
  obs::Counter& shadow_evictions_;
  obs::Counter& checksum_unverified_;
  obs::Counter* violations_[kViolationKinds] = {};
  std::vector<Violation> recorded_;
};

}  // namespace nscc::sanitize
