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
//     inter-arrival, threshold measured in intervals of silence) drives an
//     epoch-stamped membership view.  The Coordinator is the machine's one
//     rt::Membership: the DSM asks it so readers stop blocking Global_Read
//     on dead producers and run degraded instead, the transport reports
//     abandoned links to it, and app-level waits poll it via receive().
//   * Rejoin — with Policy::kRejoin a killed task is respawned at the end
//     of its crash window; its body restores the last checkpoint (restore
//     cost charged), re-announces with a bumped epoch, and catches up
//     through ordinary age-bounded reads.  Peers block on it again only
//     once it is seen alive — rejoin is literally "become less stale".
//
// The Coordinator is deliberately a machine-level observer (one per VM,
// like the WarpMeter): its membership view is the union of what individual
// peers have heard, a modelling simplification that keeps the detector
// deterministic without per-peer view divergence.
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

struct Config {
  Policy policy = Policy::kNone;
  /// Virtual time between checkpoints of one node (0 disables snapshots;
  /// detection and degraded reads still work, rejoin restarts cold).
  sim::Time checkpoint_interval = 500 * sim::kMillisecond;
  /// Heartbeat emission period; also the detector's expected inter-arrival.
  sim::Time heartbeat_interval = 50 * sim::kMillisecond;
  /// Explicit silence-before-suspect budget; 0 derives the legacy
  /// kPhiThreshold × heartbeat_interval limit.
  sim::Time suspect_timeout = 0;
  /// Fraction of the cluster (self included) an observer must have heard
  /// recently before it may *declare* a suspected peer dead — the
  /// split-brain gate.  0 disables the gate (a suspect escalates to dead
  /// immediately, which is exactly the both-sides-declare-each-other-dead
  /// failure mode the acceptance matrix demonstrates).  Any positive
  /// quorum, or a fault plan with partition/blackhole windows, switches
  /// the coordinator from its single global membership view to per-node
  /// views (each node judges peers from the heartbeats *it* received).
  double quorum_fraction = 0.0;

  [[nodiscard]] bool enabled() const noexcept { return policy != Policy::kNone; }
};

/// Intervals of silence before a node is declared dead (simplified
/// phi-accrual: fixed expected arrival, threshold in units of it).
inline constexpr double kPhiThreshold = 4.0;
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

struct Stats {
  std::uint64_t crashes = 0;           ///< Stateful crash windows that fired.
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t restores = 0;          ///< Restarts that found a checkpoint.
  std::uint64_t cold_restarts = 0;     ///< Restarts that did not.
  std::uint64_t rejoins = 0;           ///< Respawns scheduled at window end.
  std::uint64_t suspected = 0;         ///< Detector declared-dead events.
  std::uint64_t quorum_parks = 0;      ///< Dead declarations deferred for
                                       ///< lack of quorum (minority side).
  std::uint64_t split_brain_declarations = 0;  ///< Mutual dead declarations:
                                       ///< observer declared a peer dead
                                       ///< that had already declared the
                                       ///< observer dead.  Nonzero means
                                       ///< the membership split-brained.
  std::uint64_t deferred_rejoins = 0;  ///< Respawns postponed until the
                                       ///< victim could reach a quorum.
  sim::Time detection_latency = 0;     ///< Sum over suspicions, crash->declared.
  sim::Time recovery_latency = 0;      ///< Sum over rejoins, crash->respawn.
  sim::Time checkpoint_cost = 0;       ///< Virtual time charged for snapshots.
  std::int64_t lost_iterations = 0;    ///< Progress rolled back by restores.
};

/// Machine-level recovery coordinator: failure detector, checkpoint store,
/// and rejoin scheduler.  Construct after the VM (before run()); it hooks
/// the VM start to install heartbeat handlers and its detector tick, and
/// is the VM's rt::Membership until it is destroyed.
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

  /// Heartbeat-driven membership view.  True until the detector declares
  /// the node dead; flips back on rejoin.  In per-node mode this is the
  /// union view: alive while *any* observer still considers the node not
  /// dead.
  [[nodiscard]] bool alive(int node) const;

  /// Per-node membership: does `observer` consider `node` not dead?  A
  /// suspected-but-not-declared peer is still alive here — minority-side
  /// observers park in that state, so they degrade instead of declaring.
  /// Falls back to the global view outside per-node mode.
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

  /// True when the coordinator runs per-node membership views (quorum
  /// gate on, or the fault plan schedules partitions/blackholes).
  [[nodiscard]] bool partitioned() const noexcept override { return per_node_; }

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

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  /// Two-level per-observer peer state: a silent peer is first suspected
  /// (reads keep blocking / park on the watchdog), and only a
  /// quorum-holding observer escalates suspicion to a dead declaration.
  enum class PeerState { kAlive, kSuspect, kDead };
  struct PeerView {
    sim::Time last_seen = 0;
    PeerState state = PeerState::kAlive;
    bool parked = false;  ///< Counted one quorum_park for this episode.
  };

  void on_start();
  void tick();
  void tick_global(sim::Time now);
  void tick_views(sim::Time now);
  void on_heartbeat(const rt::Message& msg);
  void on_heartbeat_view(int observer, const rt::Message& msg);
  void suspect(int node, sim::Time now);
  void declare_dead(int observer, int node, sim::Time now);
  void schedule_respawn(int node, sim::Time crash_start);
  [[nodiscard]] sim::Time crash_start_before(int node, sim::Time now) const;
  [[nodiscard]] sim::Time suspect_limit() const;
  [[nodiscard]] int quorum_size() const;
  /// Total virtual compute across all tasks: the progress fingerprint.
  [[nodiscard]] std::uint64_t compute_fingerprint() const;
  void flush_obs();

  rt::VirtualMachine& vm_;
  Config cfg_;
  Stats stats_;
  bool per_node_ = false;
  std::vector<sim::Time> last_seen_;
  std::vector<bool> alive_;
  std::vector<std::vector<PeerView>> views_;  ///< views_[observer][peer].
  std::vector<std::uint64_t> epochs_;
  std::map<int, Checkpoint> checkpoints_;
  std::map<int, std::int64_t> last_progress_;
  std::map<int, sim::Time> next_checkpoint_at_;
  std::uint64_t last_fingerprint_ = 0;
  int stall_ticks_ = 0;
  bool gave_up_ = false;
  bool tick_scheduled_ = false;
};

}  // namespace nscc::recovery
