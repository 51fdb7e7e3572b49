// Deterministic, seeded fault injection for the simulated interconnects.
//
// The paper's testbed was a shared 10 Mbps Ethernet whose loaded runs
// (Figure 4) motivate non-strict coherence precisely because race-tolerant
// traffic survives delay and loss.  This subsystem makes that stress
// explicit and reproducible: a FaultPlan describes per-frame loss and
// payload corruption on every link, scheduled partitions, one-way
// blackholes and per-node crash-restart windows (the five kinds a driver
// schedules through plan_from_flags), plus whole-medium outage and
// corruption windows that tests use to destroy one chosen frame.  A
// FaultInjector judges every frame against the plan with its own seeded
// RNG stream, so a run remains a pure function of (seed, plan) and two runs
// with the same plan produce byte-identical metrics.
//
// Semantics (documented here once, relied on by net:: and tests):
//   * loss        — the frame occupies the medium (it was transmitted) but
//                   is never delivered, like a collision or CRC kill;
//   * corruption  — the frame is delivered but its payload is damaged
//                   (seeded bit flips or truncation); whether the receiver
//                   notices is the transport's business (rt:: CRC-checks
//                   frames and drops damaged ones as loss);
//   * partition   — a scheduled window in which the nodes are split into
//                   groups; frames between nodes in different groups are
//                   lost, traffic inside a group flows normally (a failed
//                   inter-switch uplink);
//   * blackhole   — a scheduled per-link one-way loss window (A→B dead
//                   while B→A still delivers: the half-open failure that
//                   fools naive ping-based detectors);
//   * crash       — frames to or from the node are lost while it is down;
//   * outage      — a scheduled window in which every frame on the medium
//                   is lost (cable pulled, switch rebooting);
//   * corruption window — a scheduled window in which every frame on the
//                   medium is delivered damaged.
// Outage and corruption windows consume no randomness, so a test can hit
// exactly the frames sent inside them and compare the two kinds run for
// run (a CRC-caught corruption must behave exactly as a loss).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace nscc::util {
class Flags;
}  // namespace nscc::util

namespace nscc::fault {

/// Half-open virtual-time window [start, end).
struct Window {
  sim::Time start = 0;
  sim::Time end = 0;
  [[nodiscard]] bool contains(sim::Time t) const noexcept {
    return t >= start && t < end;
  }
};

/// Stochastic misbehaviour of every link (probabilities are per frame).
struct LinkFaults {
  double loss_prob = 0.0;       ///< Frame lost on the wire.
  double corrupt_prob = 0.0;    ///< Frame delivered with damaged payload.
  [[nodiscard]] bool any() const noexcept {
    return loss_prob > 0.0 || corrupt_prob > 0.0;
  }
};

/// A scheduled split of the node set into isolated groups.  While the
/// window is open a frame whose src and dst sit in *different listed
/// groups* is dropped; frames inside one group, and frames involving a
/// node listed in no group (including the -1 anonymous background-load
/// source), are untouched.  Like outages these are scheduled faults:
/// judging them consumes no randomness, so adding a partition to a plan
/// leaves the stochastic draw stream of every surviving frame aligned.
struct PartitionWindow {
  Window window;
  std::vector<std::vector<int>> groups;  ///< Node ids per isolated group.
};

/// A scheduled one-way per-link loss window: frames src→dst are dropped
/// while it is open, the reverse direction is untouched.
struct BlackholeWindow {
  int src = 0;
  int dst = 0;
  Window window;
};

/// The whole deterministic fault schedule for one run.
struct FaultPlan {
  std::uint64_t seed = 0xFA17ULL;
  LinkFaults link;  ///< Faults of every (src, dst) link.
  std::vector<Window> outages;        ///< Whole-medium burst losses.
  /// Whole-medium payload-corruption windows: every frame handed to the
  /// wire while one is open is delivered damaged.  Like outages these are
  /// scheduled faults — deterministic, consuming no randomness — so a
  /// corrupted-frame run can be compared byte-for-byte against the same
  /// schedule expressed as an outage (corruption caught by a frame CRC
  /// must behave exactly as loss).
  std::vector<Window> corrupt_windows;
  /// Scheduled group partitions (see PartitionWindow).
  std::vector<PartitionWindow> partitions;
  /// Scheduled one-way per-link loss windows.
  std::vector<BlackholeWindow> blackholes;
  /// Crash windows keyed by node/task id: while one is open the node is
  /// down and frames to or from it are lost.
  std::map<int, std::vector<Window>> crashes;

  [[nodiscard]] bool empty() const noexcept {
    return !link.any() && outages.empty() && corrupt_windows.empty() &&
           partitions.empty() && blackholes.empty() && crashes.empty();
  }

  /// True while any partition or blackhole window is scheduled — the
  /// signal for quorum-gated reads, divergence tracking and anti-entropy
  /// healing.
  [[nodiscard]] bool partitionable() const noexcept {
    return !partitions.empty() || !blackholes.empty();
  }

  /// True when `a` and `b` can exchange frames in *both* directions at
  /// time `t` under the scheduled partition/blackhole windows (stochastic
  /// faults and outages are ignored — this answers reachability of the
  /// scheduled topology, which is what rejoin gating needs).
  [[nodiscard]] bool reachable(int a, int b, sim::Time t) const noexcept;

  /// End of the last scheduled window of any kind (0 when none is
  /// scheduled): from then on the schedule changes nothing.
  [[nodiscard]] sim::Time last_window_end() const noexcept;
};

struct FaultStats {
  std::uint64_t frames_judged = 0;
  std::uint64_t frames_lost = 0;       ///< All losses (random + outage + crash).
  std::uint64_t outage_drops = 0;      ///< Subset of frames_lost.
  std::uint64_t crash_drops = 0;       ///< Subset of frames_lost.
  std::uint64_t partition_drops = 0;   ///< Subset of frames_lost.
  std::uint64_t blackhole_drops = 0;   ///< Subset of frames_lost.
  std::uint64_t frames_corrupted = 0;  ///< Delivered with damaged payload.
};

/// Judges every frame a network model is about to deliver.  Stateless apart
/// from its RNG stream and counters; both SharedBus and SwitchFabric share
/// one injector per machine so the draw sequence is a deterministic function
/// of the (globally ordered) transmit sequence.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : plan_(std::move(plan)), rng_(plan_.seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// What should happen to one frame handed to the medium at `now`.
  struct Verdict {
    bool drop = false;
    /// Nonzero = deliver the frame with its payload damaged; the seed
    /// determines the damage via corruption_effect().
    std::uint64_t corrupt_seed = 0;
  };
  Verdict judge(int src, int dst, sim::Time now);

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  util::Xoshiro256 rng_;
  FaultStats stats_;
};

/// Deterministic damage derived from a Verdict's corrupt_seed: either the
/// frame is cut short or a handful of payload bits flip.  A pure function
/// of (seed, payload size), so the receiver can apply it without the
/// injector's RNG stream being involved.
struct CorruptionEffect {
  /// Truncate the payload to this many bytes first; SIZE_MAX = no cut.
  std::size_t truncate_to = static_cast<std::size_t>(-1);
  /// Bit indices to flip (into the possibly-truncated payload).
  std::vector<std::size_t> bit_flips;
};
[[nodiscard]] CorruptionEffect corruption_effect(std::uint64_t seed,
                                                 std::size_t payload_bytes);

/// Register the standard fault flags (--loss-rate, --corrupt-rate,
/// --fault-seed, --read-timeout-ms, --crash-at, --crash-for, --crash-node,
/// --partition-at, --blackhole-at) on a driver's flag set.  Each numeric
/// flag declares its range there: rates in [0, 1], times in [0,
/// sim::kHorizon], node ids >= 0, and each window spec its format, so
/// parse() rejects anything else.
void add_flags(util::Flags& flags);

/// Build a plan from flags registered by add_flags(): uniform per-frame
/// loss and corruption probabilities on every link, at most one crash,
/// one partition and one blackhole window, deterministically seeded.  The
/// flags' own declarations have checked every value, so this never throws;
/// node ids are checked against the machine size later, by
/// harness::Cluster.
[[nodiscard]] FaultPlan plan_from_flags(const util::Flags& flags);

/// Parse one `start:end:group-spec` partition window, where group-spec is
/// `|`-separated groups of `,`-separated node ids (e.g. `0.2:0.6:0,1|2,3`)
/// and times are virtual seconds in [0, sim::kHorizon].  Throws
/// std::invalid_argument on junk.
[[nodiscard]] PartitionWindow parse_partition_spec(const std::string& spec);

/// Parse one `start:end:src:dst` one-way blackhole window (virtual
/// seconds in [0, sim::kHorizon]).  Throws std::invalid_argument on junk.
[[nodiscard]] BlackholeWindow parse_blackhole_spec(const std::string& spec);

/// The --read-timeout-ms flag as a virtual-time budget (0 = watchdog off).
[[nodiscard]] sim::Time read_timeout_from_flags(const util::Flags& flags);

}  // namespace nscc::fault
