// Crash-restart recovery: checkpointing, failure detection, and rejoin.
//
// The paper's age-bounded Global_Read treats a slow producer as merely a
// stale one; the strongest corollary is that a *crashed and restarted* node
// is just an extremely stale peer that the same semantics can reintegrate.
// This subsystem demonstrates and measures that story (cf. Regional
// Consistency, arXiv:1301.4490, and GCS, arXiv:2301.02576, which both argue
// relaxed-coherence regions are the natural unit of cheap state capture):
//
//   * Checkpointing — each node periodically snapshots its app-registered
//     state (an FnCheckpoint: the DSM-visible segment plus fiber-local
//     loop state) into a Packet held by the Coordinator; the serialization
//     cost is charged in virtual time (fixed setup + per-byte write).
//   * Failure detection — every live node emits heartbeats over the rt
//     reliable channel; a simplified phi-accrual detector (fixed expected
//     inter-arrival, threshold measured in intervals of silence) drives
//     one epoch-stamped membership view per node, built from the
//     heartbeats that node received.  The Coordinator is the machine's one
//     rt::Membership: the DSM asks it so readers stop blocking Global_Read
//     on dead producers and run degraded instead, the transport reports
//     abandoned links to it, and app-level waits poll it via receive().
//   * Rejoin — with Policy::kRejoin a killed task is respawned at the end
//     of its crash window; its body restores the last checkpoint (restore
//     cost charged), re-announces with a bumped epoch, and catches up
//     through ordinary age-bounded reads.  Peers block on it again only
//     once it is seen alive — rejoin is literally "become less stale".
//
// The Coordinator is a machine-level object (one per VM, like the
// WarpMeter) that holds every node's view.  Apps that collect from their
// peers outside the DSM ask the union view, alive(node): a node is gone
// once every other live node has declared it dead.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace nscc::recovery {

/// What happens after a stateful crash window destroys a node's state.
enum class Policy {
  kNone,      ///< No detector, no checkpoints: survivors block forever.
  kDegraded,  ///< Detect the death; peers read stale values and keep going.
  kRejoin,    ///< Degraded + the victim restarts from its last checkpoint.
};

[[nodiscard]] const char* policy_name(Policy p) noexcept;
[[nodiscard]] std::optional<Policy> policy_from_name(const std::string& name);

/// A run's recovery settings (--recovery, --checkpoint-interval, --quorum);
/// the detector's timings are constants (kHeartbeatInterval, kSuspectLimit).
struct Config {
  Policy policy = Policy::kNone;
  /// Virtual time between checkpoints of one node (0 disables snapshots;
  /// detection and degraded reads still work, rejoin restarts cold).
  sim::Time checkpoint_interval = 500 * sim::kMillisecond;
  /// Fraction of the cluster (self included) an observer must have heard
  /// within kSuspectLimit before it may *declare* a suspected peer dead — the
  /// split-brain gate.  0 disables the gate (a silent peer with failure
  /// evidence is declared dead at once, which is exactly the
  /// both-sides-declare-each-other-dead failure mode the acceptance
  /// matrix demonstrates).  With the gate on, a silent peer is suspected
  /// first and declared one tick later only by an observer that holds the
  /// quorum; a minority-side observer parks it as suspected.
  double quorum_fraction = 0.0;

  [[nodiscard]] bool enabled() const noexcept { return policy != Policy::kNone; }
};

/// Intervals of silence before a node is declared dead (simplified
/// phi-accrual: fixed expected arrival, threshold in units of it).
inline constexpr double kPhiThreshold = 4.0;
/// Heartbeat emission period; also the detector's expected inter-arrival
/// and the period at which detector-aware waits re-check membership.
inline constexpr sim::Time kHeartbeatInterval = 50 * sim::kMillisecond;
/// Silence after which an observer suspects a peer: kPhiThreshold
/// heartbeat intervals.
inline constexpr sim::Time kSuspectLimit = static_cast<sim::Time>(
    kPhiThreshold * static_cast<double>(kHeartbeatInterval));
/// Fixed virtual cost of taking or restoring one snapshot (quiesce +
/// buffer setup).
inline constexpr sim::Time kCheckpointFixedCost = 200 * sim::kMicrosecond;
/// Additional virtual ns per serialized byte (a local-disk-class 50 MB/s
/// stream is ~20 ns/byte).
inline constexpr double kCheckpointCostPerByte = 20.0;
/// Consecutive detector ticks with zero global compute progress, counted
/// once every scheduled fault window has ended, before the detector stops
/// rescheduling itself.  This lets a truly wedged run's event queue drain
/// so sim::Engine can diagnose the deadlock instead of heartbeating
/// forever.
inline constexpr int kStallTicksLimit = 200;

/// App-registered state capture over a pair of closures: `save` packs
/// *everything* a fresh incarnation of the task body needs to continue from
/// the checkpointed iteration (the node's DSM-visible segment values and
/// all fiber-local loop state); `load` unpacks the same fields in the same
/// order, the app's contract with itself.  The closures are held inline:
/// capturing a handful of task-body references costs no allocation.
class FnCheckpoint {
 public:
  template <typename Sig>
  using Closure = sim::InlineFunction<Sig, 64>;

  FnCheckpoint(Closure<rt::Packet()> save, Closure<void(rt::Packet&)> load)
      : save_(std::move(save)), load_(std::move(load)) {}
  [[nodiscard]] rt::Packet checkpoint_state() const { return save_(); }
  void restore_state(rt::Packet& state) const { load_(state); }

 private:
  Closure<rt::Packet()> save_;
  Closure<void(rt::Packet&)> load_;
};

struct Checkpoint {
  std::int64_t iteration = -1;
  sim::Time taken_at = 0;
  rt::Packet state;
};

/// Machine-level recovery coordinator: failure detector, checkpoint store,
/// and rejoin scheduler.  Construct after the VM (before run()); it hooks
/// the VM start to install the heartbeat handler and its detector tick,
/// and is the VM's rt::Membership until it is destroyed.
///
/// Counts into the VM's metrics registry: recovery.crashes (stateful crash
/// windows that fired), recovery.checkpoints_taken,
/// recovery.checkpoint_bytes, recovery.restores and
/// recovery.cold_restarts (restarts that found a checkpoint, and those
/// that did not), recovery.rejoins (respawns at a window end),
/// recovery.suspected (dead declarations, one per observer and peer),
/// recovery.split_brain_declarations (an observer declared dead a peer
/// that had already declared it dead: the membership split-brained),
/// recovery.detection_latency_ns (crash to first declaration, once per
/// crash window), recovery.recovery_latency_ns (crash to respawn, summed
/// over rejoins), recovery.checkpoint_cost_ns (virtual time charged for
/// snapshots) and recovery.lost_iterations (progress rolled back by
/// restores).  Only under a quorum gate: recovery.quorum_parks
/// (declarations deferred for lack of quorum) and, with rejoin,
/// recovery.deferred_rejoins (respawns postponed until the victim could
/// reach a quorum).
class Coordinator final : public rt::Membership {
 public:
  Coordinator(rt::VirtualMachine& vm, Config cfg);
  ~Coordinator() { vm_.set_membership(nullptr); }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Task context, at the top of the body.  First incarnation: returns -1.
  /// After a crash-restart: restores the last checkpoint into `app`
  /// (charging the restore cost) and returns its iteration, or -1 when no
  /// checkpoint was ever taken (cold restart).
  std::int64_t restore(rt::Task& task, const FnCheckpoint& app);

  /// Task context, once per iteration: records the node's progress frontier
  /// (used for lost-work accounting) without touching the checkpoint.
  void note_progress(rt::Task& task, std::int64_t iteration);

  /// Task context, at an iteration boundary where a restart is protocol-safe
  /// (for workloads with anonymous collectives that means a point where no
  /// collective round is in flight).  Takes a snapshot when the checkpoint
  /// interval has elapsed, charging its virtual cost.
  void maybe_checkpoint(rt::Task& task, std::int64_t iteration,
                        const FnCheckpoint& app);

  /// Union membership view: true while some *other* live node has not
  /// declared `node` dead, so false once every live peer has.  The node's
  /// own row and the frozen rows of dead or finished nodes do not count.
  /// Flips back when a peer hears the node again (rejoin).
  [[nodiscard]] bool alive(int node) const;

  /// Per-node membership: does `observer` consider `node` not dead?  A
  /// suspected-but-not-declared peer is still alive here — minority-side
  /// observers park in that state, so they degrade instead of declaring.
  [[nodiscard]] bool alive(int observer, int node) const override;

  /// Does `observer` currently hear a quorum of the cluster (self
  /// included)?  Always true when the quorum gate is off.
  [[nodiscard]] bool in_quorum(int observer) const override;

  /// False once the run is wedged for good: the detector has stopped
  /// (kStallTicksLimit ticks without compute progress), every scheduled
  /// fault window has ended and no task has computed since.  No heartbeat
  /// is sent and no scheduled fault is left to change membership, so a
  /// blocked wait has nothing left to poll for.
  [[nodiscard]] bool detecting() const override;

  /// True when the run can split: the quorum gate is on, or the fault
  /// plan schedules partition/blackhole windows.  The DSM tracks
  /// divergence and bounds minority-side waits only then.
  [[nodiscard]] bool partitioned() const noexcept override {
    return cfg_.quorum_fraction > 0.0 || vm_.config().fault.partitionable();
  }

  /// Transport-level link failure (reliable retransmit exhausted): the
  /// sender stops trusting the link and suspects the peer.
  void on_link_failure(int src, int dst) override;

  /// Task context: the next message tagged `tag`, for a wait that re-checks
  /// membership on nullopt.  Waits at most one heartbeat interval while
  /// detecting(), untimed once the run is wedged, so the event queue can
  /// drain into the engine's deadlock report.
  std::optional<rt::Message> receive(rt::Task& task, int tag) const;

  /// Latest epoch heard from the node (0 before any restart).
  [[nodiscard]] std::uint64_t epoch(int node) const;

 private:
  /// Per-observer peer state.  kSuspect is a silent peer that the quorum
  /// gate has not let the observer declare yet (or a peer behind an
  /// abandoned link): reads keep blocking or park on the watchdog.
  enum class PeerState { kAlive, kSuspect, kDead };
  struct PeerView {
    sim::Time last_seen = 0;
    PeerState state = PeerState::kAlive;
    bool parked = false;  ///< Counted one quorum_park for this episode.
  };

  void on_start();
  void tick();
  void judge_peers(sim::Time now);
  void on_heartbeat(int observer, const rt::Message& msg);
  void declare_dead(int observer, int node, sim::Time now);
  void schedule_respawn(int node, sim::Time crash_start);
  [[nodiscard]] sim::Time crash_start_before(int node, sim::Time now) const;
  [[nodiscard]] int quorum_size() const;
  /// Total virtual compute across all tasks: the progress fingerprint.
  [[nodiscard]] std::uint64_t compute_fingerprint() const;

  rt::VirtualMachine& vm_;
  Config cfg_;
  obs::Counter& crashes_;
  obs::Counter& checkpoints_taken_;
  obs::Counter& checkpoint_bytes_;
  obs::Counter& restores_;
  obs::Counter& cold_restarts_;
  obs::Counter& rejoins_;
  obs::Counter& suspected_;
  obs::Counter& split_brain_declarations_;
  obs::Counter& detection_latency_ns_;
  obs::Counter& recovery_latency_ns_;
  obs::Counter& checkpoint_cost_ns_;
  obs::Counter& lost_iterations_;
  obs::Counter* quorum_parks_ = nullptr;      ///< Set under a quorum gate.
  obs::Counter* deferred_rejoins_ = nullptr;  ///< Set under a gate + rejoin.
  /// Each task's rt.compute_time_ns, resolved at the run's start.
  std::vector<const obs::Counter*> compute_time_;
  std::vector<std::vector<PeerView>> views_;  ///< views_[observer][peer].
  std::vector<std::uint64_t> epochs_;
  /// Per node: start of the crash window whose detection latency has been
  /// counted (0 = none yet).
  std::vector<sim::Time> counted_crash_;
  std::map<int, Checkpoint> checkpoints_;
  std::map<int, std::int64_t> last_progress_;
  std::map<int, sim::Time> next_checkpoint_at_;
  std::uint64_t last_fingerprint_ = 0;
  int stall_ticks_ = 0;
  bool gave_up_ = false;
  bool tick_scheduled_ = false;
};

}  // namespace nscc::recovery
