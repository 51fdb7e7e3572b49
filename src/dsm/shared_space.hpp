// Non-strict cache coherence: the shared-memory abstraction and the
// Global_Read primitive (the paper's primary contribution, Sections 2, 4.1).
//
// Model (exactly the paper's): every shared location has a single writer
// whose readers are known up front, so writes are implemented as direct
// sends and reads as receives, layered over the PVM-like runtime.  Each
// local copy carries the *iteration number* at which the writer generated
// it.  The blocking primitive
//
//     Global_Read(locn, curr_iter, age)
//
// returns a value of locn generated no earlier than iteration
// (curr_iter - age) of the producing process; if the local copy is older the
// reading process blocks until a suitable update arrives (the paper's
// "simple blocking implementation" that waits rather than requesting).
// age = 0 removes all asynchrony tolerance; larger ages admit staler data
// and act as receiver-driven flow control for the whole computation.
//
// Propagation is write-through to all registered readers.  An optional
// sender-side coalescing policy keeps at most one update per
// (location, reader) in flight and merges bursts of writes into the latest
// value — the buffering freedom the paper attributes to asynchronous DSMs
// (Section 1, Mermera discussion).
//
// The admission rule above is one ConsistencyModel (dsm/consistency.hpp);
// PropagationPolicy::consistency selects among the registered models
// (regional fences, release/acquire visibility, eventual) with "nonstrict"
// — the paper's rule — as the byte-identical default.
//
// A blocked Global_Read asks the machine's rt::Membership, when it has one,
// whether the writer is still there: a dead writer is an infinitely stale
// one, and a reader out of quorum serves stale copies as tracked divergence.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsm/consistency.hpp"
#include "obs/obs.hpp"
#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sanitize/sanitize.hpp"
#include "sim/time.hpp"

namespace nscc::dsm {

// LocationId / Iteration live in dsm/consistency.hpp (the model interface
// is the lower layer; this header builds the cache on top of it).

/// How a program uses the shared space each iteration; apps map this to
/// barrier()+fresh reads, plain reads, or global_read with an age bound.
enum class Mode { kSynchronous, kAsynchronous, kPartialAsync };

[[nodiscard]] const char* mode_name(Mode m) noexcept;

/// How a blocked Global_Read obtains its value (paper Section 2): the
/// simple implementation just waits for the writer's next propagation; the
/// requesting implementation additionally sends the writer an explicit
/// request, which doubles as a "reader is starved" hint the writer could
/// use for scheduling priority.  The paper argues (and the A4 ablation
/// shows) that waiting generates fewer messages.
enum class GlobalReadImpl { kWait, kRequest };

/// How often a blocked Global_Read re-checks the machine's membership
/// (rt::Membership): a dead writer, or quorum loss on a partitioned run.
inline constexpr sim::Time kLivenessPoll = 10 * sim::kMillisecond;

struct PropagationPolicy {
  /// When true, at most one update per (location, reader) is in flight;
  /// writes that arrive meanwhile replace the pending value (newest wins).
  bool coalesce = false;
  GlobalReadImpl read_impl = GlobalReadImpl::kWait;
  /// Starvation watchdog for blocked Global_Reads: after this much virtual
  /// time without a satisfying update, the reader escalates from passively
  /// waiting to an explicit (reliable) kRequest demand to the writer, then
  /// doubles the budget and demands again.  0 disables the watchdog — the
  /// default, because an *unsatisfiable* read (writer never reaches the
  /// needed iteration) must still be allowed to block forever and surface
  /// as a detectable deadlock.  Under a lossy network a finite budget makes
  /// Global_Read loss-proof as long as the writer keeps iterating.
  sim::Time read_timeout = 0;
  /// Send DSM updates over the reliable transport channel (when the machine
  /// has one enabled).  Synchronous-mode drivers set this: age-0 reads make
  /// every update semantically load-bearing.  Asynchronous modes leave it
  /// off and lean on staleness tolerance instead.
  bool reliable_updates = false;
  /// Anti-entropy heal: at the end of every scheduled partition/blackhole
  /// window in the machine's fault plan, re-publish each valid written
  /// location to all its readers over the reliable channel (engine
  /// context, no CPU charge).  Newest-version-wins is the cache's normal
  /// apply rule, so healed copies reconcile diverged readers; frames sent
  /// are counted in dsm.partition.heal_frames.
  bool partition_heal = false;
  /// Which ConsistencyModel (dsm/consistency.hpp) governs this space: the
  /// read-admission rule, the update-visibility rule, and any ordering
  /// metadata on the wire.  Made by dsm::make_consistency_model() at
  /// SharedSpace construction (unknown names throw); the model's shape()
  /// may override the transport knobs above.  "nonstrict" is the paper's
  /// per-read bounded-staleness rule and changes nothing.
  std::string consistency = "nonstrict";
};

/// Per-task view of the shared space.  All tasks must make matching
/// declarations (same writer/readers per location) before use.
///
/// Counts into the machine's metrics registry, labelled with the task id,
/// whether or not observability is active: dsm.writes, dsm.updates_sent,
/// dsm.updates_coalesced (writes merged into a pending one),
/// dsm.updates_applied, dsm.updates_stale_dropped (arrived older than the
/// local copy), dsm.global_reads, dsm.global_read_blocks,
/// dsm.global_read_block_time_ns, dsm.requests_sent (demands issued),
/// dsm.hints_received and dsm.request_replies (writer side: starved
/// readers seen, demand-driven resends), dsm.read_escalations (watchdog
/// demands), dsm.degraded_reads (reads unblocked by a dead writer),
/// dsm.integrity_dropped (undecodable frames quarantined) and the
/// dsm.staleness histogram.  The dsm.partition.* and dsm.consistency.*
/// counters exist only on spaces whose mechanism can engage them.  The
/// counters belong to the task, not to the space: a respawned task's new
/// space counts on from where the killed one stopped.
class SharedSpace {
 public:
  explicit SharedSpace(rt::Task& task, PropagationPolicy policy = {});
  ~SharedSpace();

  SharedSpace(const SharedSpace&) = delete;
  SharedSpace& operator=(const SharedSpace&) = delete;

  /// Declare a location this task writes, and who reads it.
  void declare_written(LocationId loc, std::vector<int> readers);

  /// Declare a location this task reads and which task writes it.
  void declare_read(LocationId loc, int writer);

  /// A local copy of a shared location.
  struct Value {
    Iteration iteration = -1;  ///< Writer iteration that generated it.
    rt::Packet data;           ///< Opaque payload (rewound before return).
    bool valid = false;        ///< False until the first update/write lands.
    /// True when the last global_read returned this copy because the writer
    /// is dead (membership said so), not because it met the age bound.  A
    /// never-written location can come back degraded AND !valid — callers
    /// must still check valid.
    bool degraded = false;
    /// Causal-flow id of the update that produced this copy (0 = none /
    /// locally written / already consumed).  The first global_read that
    /// returns the copy emits the flow's 'f' end and clears it, so each
    /// write → read arrow terminates at exactly one read.
    std::uint64_t flow = 0;
    /// Membership epoch of the incarnation that produced this copy (the
    /// writer's task epoch, carried on every update).  A copy surviving a
    /// split carries the pre-split epoch until heal republishes it.
    std::uint64_t epoch = 0;
  };

  /// Writer side: store locally with the iteration stamp and propagate to
  /// every registered reader (charging per-send software overhead, like the
  /// paper's user-level macros doing direct sends).  `value` is copied
  /// once, into the version's update frame; every reader is sent a share
  /// of that frame and the local copy is a window onto it.  `value`'s
  /// buffer then returns to the machine's rt::PacketPool, so a writer that
  /// draws each `value` from task().vm().packets() reuses it.
  void write(LocationId loc, Iteration iteration, rt::Packet value);

  /// Plain read: drain any pending updates, then return the freshest local
  /// copy, however stale (slow-memory semantics; the fully asynchronous
  /// programs use this).  A reader that passes its current iteration has
  /// the served copy's staleness recorded, as Global_Read does.
  const Value& read(LocationId loc,
                    std::optional<Iteration> curr_iter = std::nullopt);

  /// The Global_Read primitive.  Blocks until the consistency model admits
  /// the local copy of `loc`; under the default nonstrict model that means
  /// valid AND generated at iteration >= curr_iter - age (a location never
  /// written blocks until its first value arrives, whatever the age).
  /// Also the acquire point for models that defer update visibility.
  const Value& global_read(LocationId loc, Iteration curr_iter, Iteration age);

  /// Drain pending DSM update messages without blocking (asynchronous
  /// incorporation "as and when they arrive").
  void poll();

  /// Observer invoked for EVERY arriving update (even ones older than the
  /// local copy, which the cache itself drops).  Applications that need the
  /// full update stream — e.g. the rollback-based logic sampler, which must
  /// see corrections for past iterations — register here.  The packet's
  /// read cursor is rewound before each call.
  using UpdateObserver =
      std::function<void(LocationId, Iteration, rt::Packet&)>;
  void set_update_observer(UpdateObserver observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] rt::Task& task() noexcept { return task_; }

  /// Iteration stamp of the freshest local copy (-1 when none), without
  /// draining pending messages.  Mostly for tests and diagnostics.
  [[nodiscard]] Iteration local_iteration(LocationId loc) const;

 private:
  /// Coalescing state of one reader of a location this task writes: is an
  /// update in flight, and the newest stashed version to forward once it
  /// lands (coalescing policy only).
  struct Reader {
    int id = -1;
    bool in_flight = false;
    bool has_pending = false;
    /// A share of the stashed version's update frame.
    rt::Packet pending_frame;
    /// Flow id of the stashed pending value (coalescing): the arrow begun
    /// at the write travels with whichever value is eventually forwarded.
    std::uint64_t pending_flow = 0;
  };

  /// Everything this task knows about one declared location.
  struct Location {
    /// The local copy.  For a location this task writes, its data is a
    /// window onto `frame`.
    Value value;
    /// For a location this task writes: the current version's update
    /// frame (loc, iteration, the value as an embedded packet), packed
    /// once at the write.  Every send of the version posts a share of it.
    rt::Packet frame;
    /// Writer of a location this task reads; -1 for one this task writes.
    int writer = -1;
    /// Readers of a location this task writes, in declaration order.
    std::vector<Reader> readers;
    /// Set while this reader owes the location a diverged mark (it served
    /// a copy older than a read's need): the highest iteration still owed.
    /// An applied update reaching it reconciles the mark; a mark still set
    /// at destruction is unreconciled divergence.
    std::optional<Iteration> owed;
  };

  /// Bytes of an update frame ahead of its value: the location, the
  /// iteration and the value's length prefix.
  static constexpr std::size_t kFrameHeaderBytes =
      sizeof(std::int32_t) + sizeof(std::int64_t) + sizeof(std::uint64_t);

  /// Apply, park or quarantine one arriving update.  An applied frame
  /// becomes the location's copy; any other that is not parked drops its
  /// share of the buffer through the packet pool.
  void apply_update(rt::Message& msg);
  /// Observe max(0, curr_iter - served) in both staleness histograms.
  void record_staleness(Iteration curr_iter, Iteration served);
  /// Release/acquire visibility: apply every parked update, ordered by
  /// (writer, release stamp).  Runs at acquire points with acquiring_ set
  /// so the re-entrant apply_update calls go through instead of re-parking.
  void flush_parked();
  /// Non-destructively extract the ordering stamp from an update payload
  /// (0 when stamping is off or the frame is garbled); rewinds the cursor.
  [[nodiscard]] std::uint64_t peek_stamp(rt::Packet& payload) const;
  /// The local copy's metadata as the consistency model sees it.
  [[nodiscard]] static CopyMeta meta_of(const Value& v) noexcept {
    return CopyMeta{v.iteration, v.valid, v.degraded, v.epoch};
  }
  void serve_request(rt::Packet& payload, int from);
  /// Post a share of `frame`, a version's update frame, to `reader`.
  void send_update(LocationId loc, int reader, const rt::Packet& frame,
                   bool charge_cpu,
                   rt::Reliability reliability = rt::Reliability::kAuto,
                   std::uint64_t flow = 0);
  void on_update_settled(LocationId loc, int reader, bool delivered);
  void send_demand(LocationId loc, int writer, Iteration need);
  /// Divergence bookkeeping: active with partition healing or a
  /// membership that can split (rt::Membership::partitioned()).
  [[nodiscard]] bool tracks_divergence() const noexcept {
    return policy_.partition_heal ||
           (membership_ != nullptr && membership_->partitioned());
  }
  void mark_diverged(Location& l, Iteration need);
  void maybe_reconcile(LocationId loc, Location& l, Iteration iteration);
  /// Engine-context anti-entropy pass at a partition-window end: republish
  /// every valid written location to all its readers, reliably.
  void heal_republish();
  /// True when causal-flow tracing is on for this machine (--flow-trace):
  /// gates flow-id allocation so untraced runs never touch the id counter.
  [[nodiscard]] bool flows_on() const noexcept {
    return obs_ != nullptr && obs_->tracer().flows_enabled();
  }
  /// Begin a new write → read flow on this task's track; returns the id.
  [[nodiscard]] std::uint64_t begin_flow(LocationId loc, Iteration iteration);

  rt::Task& task_;
  /// The machine's packet free list: send_update and send_demand draw
  /// here, and applied frames, served demands and superseded values
  /// return here.
  rt::PacketPool& packets_;
  PropagationPolicy policy_;
  /// This task's dsm.* counters (see the class comment).
  obs::Counter& writes_;
  obs::Counter& updates_sent_;
  obs::Counter& updates_coalesced_;
  obs::Counter& updates_applied_;
  obs::Counter& updates_stale_dropped_;
  obs::Counter& global_reads_;
  obs::Counter& global_read_blocks_;
  obs::Counter& global_read_block_time_ns_;
  obs::Counter& requests_sent_;
  obs::Counter& hints_received_;
  obs::Counter& request_replies_;
  obs::Counter& read_escalations_;
  obs::Counter& degraded_reads_;
  obs::Counter& integrity_dropped_;
  /// Null unless the mechanism can engage: quorum-less stale serves on a
  /// quorum-gated membership, heal republish frames with partition_heal,
  /// diverged and reconciled locations while tracking divergence.
  obs::Counter* stale_served_ = nullptr;
  obs::Counter* heal_frames_ = nullptr;
  obs::Counter* diverged_ = nullptr;
  obs::Counter* reconciled_ = nullptr;
  /// Null unless the consistency model parks arrivals until an acquire
  /// (parked, flushed at acquires) or stamps releases (out of order).
  obs::Counter* updates_parked_ = nullptr;
  obs::Counter* updates_flushed_ = nullptr;
  obs::Counter* ooo_updates_ = nullptr;
  /// The machine's membership view, read once at construction; null = every
  /// writer is presumed alive and blocked reads wait like the paper's.
  const rt::Membership* membership_ = nullptr;
  /// The consistency model governing this space (never null): admission,
  /// visibility, and ordering are delegated here; policy_.consistency
  /// names it and the registry built it.
  std::unique_ptr<ConsistencyModel> model_;
  /// Cached model capabilities (hot-path: one bool test, no virtual call).
  bool park_updates_ = false;   ///< !model_->visible_on_arrival()
  bool stamp_updates_ = false;  ///< model_->stamps_updates()
  /// True while inside an acquire point (any read entry): arriving updates
  /// apply immediately instead of parking.
  bool acquiring_ = false;
  /// The release log: updates that arrived between acquires, still in wire
  /// form, waiting for the next acquire to publish them.
  struct ParkedUpdate {
    std::uint64_t stamp = 0;
    /// Position in the log: ties on (writer, stamp) keep arrival order.
    std::size_t arrival = 0;
    rt::Message msg;
  };
  std::vector<ParkedUpdate> parked_;
  UpdateObserver observer_;
  /// Observability handles, resolved once at construction; null when the
  /// machine's hub is inactive so every hot-path guard is one branch.
  obs::Hub* obs_ = nullptr;
  obs::Gauge* blocked_readers_ = nullptr;
  obs::Gauge* inflight_updates_ = nullptr;
  /// Per-read outcome breakdown of an observed run (machine-wide; the trace
  /// has the per-task detail): global_reads served from updates already
  /// queued in the mailbox, blocked reads that needed a watchdog
  /// escalation, and the blocked-wait duration histogram.  Blocked and
  /// degraded reads are already in the counters above.
  obs::Counter* read_queued_ = nullptr;
  obs::Counter* read_escalated_ = nullptr;
  obs::Histogram* read_block_ns_ = nullptr;
  /// Staleness max(0, curr_iter - value iteration) of every global_read
  /// and of every plain read given an iteration, observed in both
  /// histograms whether or not observability is active.
  obs::Histogram* staleness_hist_ = nullptr;  ///< Machine-wide staleness.
  obs::Histogram* staleness_mine_ = nullptr;  ///< This task's staleness.
  /// Staleness sanitizer owned by the VirtualMachine; null when
  /// --sanitize=off.  Fed every write (shadow log) and every read (audit).
  sanitize::Sanitizer* san_ = nullptr;
  /// Liveness token: deferred-delivery callbacks hold a weak_ptr so they
  /// become no-ops once this SharedSpace is destroyed (e.g. its task body
  /// returned while updates were still on the wire).
  std::shared_ptr<SharedSpace*> alive_ =
      std::make_shared<SharedSpace*>(this);
  /// Every declared location, ordered by id (heal republishes in order).
  std::map<LocationId, Location> locations_;
};

}  // namespace nscc::dsm
