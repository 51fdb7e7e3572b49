// PVM-like message-passing runtime over the simulated shared bus.
//
// A VirtualMachine hosts a fixed set of tasks (one per simulated SP2 node).
// Each task body runs as a simulator process and talks to peers through
// typed point-to-point messages with tags, exactly the programming model the
// paper's user-level DSM macros were built on.  Per-message software
// overheads (PVM pack/send and receive/dispatch CPU costs) are charged as
// virtual compute on the sender and receiver, and wire time is charged by
// the SharedBus; a WarpMeter observes every delivery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "net/shared_bus.hpp"
#include "net/switch_fabric.hpp"
#include "obs/obs.hpp"
#include "rt/mailbox.hpp"
#include "rt/packet.hpp"
#include "rt/transport.hpp"
#include "sanitize/sanitize.hpp"
#include "sim/engine.hpp"
#include "sim/host_pool.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "warp/warp_meter.hpp"

namespace nscc::rt {

/// Matches any application tag (reserved runtime tags are never matched).
inline constexpr int kAnyTag = -1;
/// Tags at or above this value are reserved for the runtime (barrier, DSM).
inline constexpr int kReservedTagBase = 1 << 24;
inline constexpr int kBarrierArriveTag = kReservedTagBase + 1;
inline constexpr int kBarrierReleaseTag = kReservedTagBase + 2;
/// Base tag for DSM update traffic (one tag, locations multiplexed inside).
inline constexpr int kDsmUpdateTag = kReservedTagBase + 3;
/// Tag for DSM read-demand requests (the requesting Global_Read impl).
inline constexpr int kDsmRequestTag = kReservedTagBase + 4;
/// Transport-layer acknowledgement frames (never reach a mailbox).
inline constexpr int kAckTag = kReservedTagBase + 5;
/// Failure-detector heartbeats (recovery::Coordinator; engine-context
/// handled, never mailboxed by application code).
inline constexpr int kHeartbeatTag = kReservedTagBase + 6;

struct Message {
  int src = -1;
  int tag = 0;
  Packet payload;
  /// Transport sequence number; 0 = unsequenced (best-effort frame).
  std::uint64_t seq = 0;
  /// Sender incarnation number: 0 for the original spawn, bumped on every
  /// crash-restart respawn.  Lets receivers tell a rejoined peer from the
  /// one that crashed.
  std::uint64_t epoch = 0;
  /// Causal-flow id (obs::Tracer::new_flow); 0 = untraced.  The DSM stamps
  /// one per propagated update so the exported trace draws the
  /// write → transit → read arrow; it rides the message so transit hops
  /// (delivery, retransmission) can emit flow steps on the right track.
  std::uint64_t flow = 0;
  sim::Time sent_at = 0;       ///< When the sender handed it to the network.
  sim::Time delivered_at = 0;  ///< When it reached the receiver's mailbox.
};

/// Settlement callback of a sent message (see Task::send_observed).
/// Captures up to 56 bytes are stored without a heap allocation.
using OnSettled = sim::InlineFunction<void(bool delivered), 56>;

/// Which interconnect carries inter-task traffic.
enum class Network {
  kEthernet,   ///< Shared 10 Mbps bus (the paper's evaluation platform).
  kSp2Switch,  ///< Per-port switched fabric (the SP2's other interconnect).
};

struct MachineConfig {
  int ntasks = 2;
  Network network = Network::kEthernet;
  net::BusConfig bus;
  net::SwitchConfig sp2_switch;
  /// Sender-side CPU cost per message (PVM pack + syscall + protocol;
  /// mid-90s PVM over UDP on AIX was of order a millisecond end to end).
  sim::Time send_sw_overhead = 600 * sim::kMicrosecond;
  /// Receiver-side CPU cost per message consumed.
  sim::Time recv_sw_overhead = 300 * sim::kMicrosecond;
  /// Root seed; per-task streams are split deterministically from it.
  std::uint64_t seed = 1;
  /// Sender-side transport window (PVM-over-TCP socket buffering): a task's
  /// send() blocks while it has more than this many bytes in flight
  /// (queued or on the wire).  This is the backpressure that throttles a
  /// flooding sender once the shared medium falls behind.  0 = unlimited.
  std::uint64_t sender_window_bytes = 64 * 1024;
  /// Observability outputs (tracing, metrics time series); off by default,
  /// in which case every instrumentation site is a single predicted branch.
  obs::Options obs;
  /// Fault plan for the interconnect (empty = perfect network).  When
  /// non-empty the VM owns a deterministic FaultInjector wired into the
  /// active interconnect.
  fault::FaultPlan fault;
  /// Reliable-transport layer (sequence/ACK/retransmit); off by default.
  ReliabilityConfig transport;
  /// Staleness sanitizer (shadow-state audit of every DSM read against the
  /// workload's ToleranceSpec); off by default.  When enabled the VM owns a
  /// sanitize::Sanitizer that dsm::SharedSpace feeds.
  sanitize::Options sanitize;
};

struct TaskStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t send_backpressure_events = 0;
  sim::Time compute_time = 0;
  sim::Time blocked_time = 0;
  sim::Time send_backpressure_time = 0;
};

class VirtualMachine;

/// The machine's membership view: the one seam through which the DSM and
/// the transport ask whether a peer is still there.  recovery::Coordinator
/// implements it; a machine without one presumes every task alive.
class Membership {
 public:
  /// Does `observer` consider `node` not dead?
  [[nodiscard]] virtual bool alive(int observer, int node) const = 0;
  /// Does `observer` hear a quorum of the cluster (self included)?
  [[nodiscard]] virtual bool in_quorum(int observer) const = 0;
  /// True when the membership can split (a quorum gate is on, or the fault
  /// plan schedules partitions): blocked reads are then quorum-gated.
  [[nodiscard]] virtual bool partitioned() const = 0;
  /// False once nothing left can change the membership (a wedged run):
  /// blocked waits stop polling so the event queue can drain.
  [[nodiscard]] virtual bool detecting() const = 0;
  /// Engine context: the reliable transport exhausted its retransmit
  /// budget on one message from `src` to `dst`.
  virtual void on_link_failure(int src, int dst) = 0;

 protected:
  ~Membership() = default;  // A machine never owns its membership.
};

/// Handle passed to a task body; all members must be called from within the
/// task's own process unless noted.
class Task {
 public:
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int vm_size() const noexcept;
  [[nodiscard]] const std::string& name() const noexcept;
  [[nodiscard]] sim::Time now() const noexcept;
  [[nodiscard]] util::Xoshiro256& rng() noexcept { return rng_; }
  [[nodiscard]] VirtualMachine& vm() noexcept { return vm_; }
  [[nodiscard]] const TaskStats& stats() const noexcept { return stats_; }
  /// Incarnation number: 0 until the task's first crash-restart.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Charge `dt` of virtual CPU time.
  void compute(sim::Time dt);

  /// Charge `dt` of virtual CPU time while `work`, the host-side kernel of
  /// this compute phase, runs on a sim::HostPool worker: the engine runs
  /// other tasks' events meanwhile, and on resume the call joins `work` and
  /// rethrows what it threw.  `work` must keep the offload contract in
  /// sim/host_pool.hpp: task-private buffers and immutable data only, and
  /// `dt` fixed before it runs.  A killed task's unwinding waits for it.
  template <typename Work>
  void compute(sim::Time dt, Work&& work) {
    sim::HostPool::Scope<std::remove_reference_t<Work>> kernel(
        sim::HostPool::shared(), work);
    compute(dt);
    kernel.join();
  }

  /// Send `payload` to task `dst` with application or runtime tag `tag`.
  /// Charges the sender software overhead, blocks while the transport
  /// window is full, and puts the message on the bus (self-sends are
  /// delivered locally, free of wire time).
  void send(int dst, int tag, Packet payload);

  /// Like send(), with a settlement callback run (engine context) once the
  /// message's fate is known: `on_settled(true)` after first delivery (or
  /// transport ACK when the frame is reliable), `on_settled(false)` when it
  /// was lost or abandoned after retransmission.  Runs exactly
  /// once.  The DSM uses it to track in-flight updates for coalescing and to
  /// resend the newest pending value after a loss.
  void send_observed(int dst, int tag, Packet payload,
                     OnSettled on_settled,
                     Reliability reliability = Reliability::kAuto,
                     std::uint64_t flow = 0);

  /// Send to every other task (PVM mcast over Ethernet = serial sends).
  void broadcast(int tag, const Packet& payload);

  /// Blocking receive of the first queued message matching `tag`
  /// (kAnyTag matches any application tag).  Charges receive overhead.
  Message recv(int tag = kAnyTag);

  /// Like recv() but gives up after `timeout` of virtual time and returns
  /// nullopt.  The DSM starvation watchdog is built on this.
  std::optional<Message> recv_timeout(int tag, sim::Time timeout);

  /// Non-blocking receive; charges receive overhead only on success.
  std::optional<Message> try_recv(int tag = kAnyTag);

  /// True when a matching message is queued (no cost).
  [[nodiscard]] bool probe(int tag = kAnyTag) const noexcept;

  /// Coordinator barrier over real messages (task 0 collects and releases).
  void barrier();

  /// Register an engine-context consumer for a reserved tag: matching
  /// messages are handed to `handler` at delivery time instead of being
  /// mailboxed.  This lets the DSM serve read demands even while the task
  /// body is blocked in a barrier or Global_Read (the mutual-blocking
  /// deadlock a polled mailbox cannot escape).  One handler per tag;
  /// an empty handler unregisters.
  void set_tag_handler(int tag, std::function<void(Message)> handler);

 private:
  friend class VirtualMachine;
  Task(VirtualMachine& vm, int id, util::Xoshiro256 rng)
      : vm_(vm), id_(id), rng_(rng) {}

  /// The one receive wait: the mailbox index of the first `tag` match,
  /// waiting for one without a watchdog, or under one that gives up after a
  /// positive `timeout` (nullopt then).
  std::optional<std::size_t> wait_for(int tag,
                                      std::optional<sim::Time> timeout);
  /// Pop the message at `index` and charge receive overhead.
  Message take(std::size_t index);
  [[nodiscard]] std::optional<std::size_t> find_match(int tag) const noexcept;
  void deliver(Message msg);  // engine context

  VirtualMachine& vm_;
  int id_;
  util::Xoshiro256 rng_;
  std::uint64_t epoch_ = 0;
  sim::Process* process_ = nullptr;
  Mailbox<Message> mailbox_;
  bool waiting_ = false;
  int waiting_tag_ = kAnyTag;
  bool timed_out_ = false;
  /// The pending timed receive's watchdog (0 = none).  Kept here, not in
  /// wait_for, so kill_task can cancel it: a dead incarnation's watchdog
  /// must not fire into its respawned successor's receive.
  sim::Engine::WatchdogId receive_watchdog_ = 0;
  std::uint64_t in_flight_bytes_ = 0;
  bool waiting_for_window_ = false;
  std::unordered_map<int, std::function<void(Message)>> tag_handlers_;
  std::vector<SeqTracker> rx_seq_;  ///< Per-source duplicate filters.
  TaskStats stats_;
};

class VirtualMachine {
 public:
  explicit VirtualMachine(MachineConfig config);
  /// Unwinds any task a deadlocked or horizon-capped run left blocked,
  /// while the Task objects its destructors reach still exist.
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  /// Register the body for the next task id (call ntasks times before run).
  void add_task(std::string name, std::function<void(Task&)> body);

  /// Run the simulation until all tasks finish (or deadlock / `until`).
  /// Returns the virtual completion time.
  sim::Time run(sim::Time until = std::numeric_limits<sim::Time>::max());

  /// Low-level message injection: puts `payload` on the wire from `src` to
  /// `dst` without charging sender CPU (usable from engine context; the DSM
  /// "daemon" uses it for deferred coalesced updates).  `on_settled` runs in
  /// engine context exactly once when the message's fate is decided — see
  /// Task::send_observed.  `flow` stamps the frame with a causal-flow id
  /// (see Message::flow); 0 = untraced.
  void post(int src, int dst, int tag, Packet payload,
            OnSettled on_settled = {},
            Reliability reliability = Reliability::kAuto,
            std::uint64_t flow = 0);

  /// Tear a task's process down mid-run (a crash window's start):
  /// the fiber unwinds, its mailbox and wait flags are lost.  Transport/NIC
  /// state (sequence trackers, in-flight accounting) survives, as does any
  /// engine-context tag handler registered by external observers.  Engine
  /// context only; no-op when the task already finished.
  void kill_task(int id);

  /// Restart a killed task: the registered body runs again from the top on a
  /// fresh fiber, with the task's epoch bumped.  The body is responsible for
  /// restoring state (see recovery::Coordinator).  Engine context only.
  void respawn_task(int id);

  /// False once the task's process finished — whether by running to
  /// completion or by kill_task().
  [[nodiscard]] bool task_alive(int id) const;

  /// Hook run in engine context right before the first event executes (after
  /// all tasks are spawned).  The recovery coordinator uses it to install
  /// heartbeat handlers and schedule its detector tick.
  void add_start_hook(std::function<void()> hook) {
    start_hooks_.push_back(std::move(hook));
  }

  /// Hook run when run() flushes subsystem counters into the obs registry.
  void add_flush_hook(std::function<void()> hook) {
    flush_hooks_.push_back(std::move(hook));
  }

  /// The machine's membership view; null (the default) presumes every task
  /// alive.  The recovery coordinator installs itself here, so an abandoned
  /// retransmission is a membership signal, not a silent counter bump.
  void set_membership(Membership* membership) noexcept {
    membership_ = membership;
  }
  [[nodiscard]] Membership* membership() const noexcept { return membership_; }

  [[nodiscard]] int size() const noexcept { return config_.ntasks; }
  [[nodiscard]] Task& task(int id) { return *tasks_.at(id); }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::SharedBus& bus() noexcept { return bus_; }
  [[nodiscard]] net::SwitchFabric& sp2_switch() noexcept { return *switch_; }
  /// Utilisation of whichever interconnect is active.
  [[nodiscard]] double network_utilization() const noexcept;
  [[nodiscard]] warp::WarpMeter& warp_meter() noexcept { return warp_; }
  /// The machine's free list of packet buffers: DSM frames and published
  /// values, and transport ACKs, draw here and return here.  Starts empty.
  [[nodiscard]] PacketPool& packets() noexcept { return packets_; }
  /// Observability hub (metrics registry, tracer, sampler).  run() flushes
  /// every subsystem's counters into the registry and writes the configured
  /// trace/metrics outputs before returning.
  [[nodiscard]] obs::Hub& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::Hub& obs() const noexcept { return obs_; }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool deadlocked() const noexcept { return engine_.deadlocked(); }
  /// Diagnostic snapshot of blocked tasks (see sim::Engine::blocked_report).
  [[nodiscard]] std::string blocked_report() const {
    return engine_.blocked_report();
  }
  /// The fault injector attached to the interconnect, or nullptr when the
  /// configured FaultPlan is empty.
  [[nodiscard]] fault::FaultInjector* fault_injector() noexcept {
    return injector_.get();
  }
  [[nodiscard]] const TransportStats& transport_stats() const noexcept {
    return transport_stats_;
  }
  /// The machine's staleness sanitizer, or nullptr when --sanitize=off.
  [[nodiscard]] sanitize::Sanitizer* sanitizer() noexcept {
    return sanitizer_.get();
  }

 private:
  friend class Task;

  /// One in-flight frame.  Kept alive (shared with network callbacks and the
  /// retransmit timer) until settled; reliable frames hold the payload for
  /// retransmission.
  struct TxState {
    Message msg;
    int dst = -1;
    std::uint32_t payload_bytes = 0;
    bool reliable = false;
    bool settled = false;
    bool window_released = false;
    int attempts = 1;
    sim::Time rto = 0;
    sim::Engine::WatchdogId retx_timer = 0;
    /// Payload CRC32 stamped at post() time (only when the fault plan can
    /// corrupt frames); the receive path recomputes it after fault damage.
    std::uint32_t crc = 0;
    OnSettled on_settled;
    /// Live TxRef handles; the pool recycles the state when it drops to 0.
    std::uint32_t refs = 0;
  };

  class TxPool;

  /// Shared handle to a pooled TxState.  The count is a plain integer: the
  /// whole simulation runs on one host thread (offloaded kernels never
  /// touch transport state).
  class TxRef {
   public:
    TxRef() noexcept = default;
    TxRef(const TxRef& other) noexcept : st_(other.st_), pool_(other.pool_) {
      if (st_ != nullptr) ++st_->refs;
    }
    TxRef(TxRef&& other) noexcept
        : st_(std::exchange(other.st_, nullptr)), pool_(other.pool_) {}
    TxRef& operator=(TxRef other) noexcept {
      std::swap(st_, other.st_);
      std::swap(pool_, other.pool_);
      return *this;
    }
    ~TxRef();

    TxState* operator->() const noexcept { return st_; }
    TxState& operator*() const noexcept { return *st_; }

   private:
    friend class TxPool;
    TxRef(TxState* st, TxPool* pool) noexcept : st_(st), pool_(pool) {
      ++st_->refs;
    }
    TxState* st_ = nullptr;
    TxPool* pool_ = nullptr;
  };

  /// Free-list pool of TxStates: after warm-up, posting a frame allocates
  /// no transmit state.
  class TxPool {
   public:
    explicit TxPool(PacketPool& packets) : packets_(packets) {}
    TxPool(const TxPool&) = delete;  // Handles point at their pool.
    TxPool& operator=(const TxPool&) = delete;

    TxRef acquire();
    /// Return `st`'s payload to the packet pool, reset `st` to a fresh
    /// state and put it back on the free list.
    void recycle(TxState* st) noexcept;

   private:
    PacketPool& packets_;
    std::vector<std::unique_ptr<TxState>> owned_;
    std::vector<TxState*> free_;
  };

  [[nodiscard]] bool reliable_for(int tag, Reliability reliability) const;
  void transmit_frame(const TxRef& st);
  void on_wire_outcome(const TxRef& st, sim::Time at, bool delivered,
                       std::uint64_t corrupt_seed);
  void deliver_frame(const TxRef& st, sim::Time at,
                     std::uint64_t corrupt_seed);
  void settle(const TxRef& st, bool delivered);
  void arm_retx_timer(const TxRef& st);
  /// Index of the directed (src, dst) link in the dense per-link tables.
  [[nodiscard]] std::size_t link(int src, int dst) const noexcept {
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(config_.ntasks) +
           static_cast<std::size_t>(dst);
  }
  void send_ack(int from, int to, std::uint64_t seq);
  void flush_stats();

  MachineConfig config_;
  obs::Hub obs_;
  /// Declared before the transmit pool, whose recycled states return their
  /// payloads here.
  PacketPool packets_;
  /// Declared before the engine: pending events hold TxRefs, and the pool
  /// must outlive them.
  TxPool tx_pool_{packets_};
  sim::Engine engine_;
  net::SharedBus bus_;
  std::unique_ptr<net::SwitchFabric> switch_;  ///< Set for kSp2Switch.
  std::unique_ptr<fault::FaultInjector> injector_;  ///< Set iff plan non-empty.
  std::unique_ptr<sanitize::Sanitizer> sanitizer_;  ///< Set iff sanitize on.
  /// True when the fault plan can corrupt frames: gates the per-frame CRC
  /// stamping so corruption-free runs do not pay the checksum cost.
  bool may_corrupt_ = false;
  /// True when the fault plan can duplicate frames: a best-effort frame's
  /// duplicate reads the payload again, so delivery must leave it in place.
  bool may_duplicate_ = false;
  warp::WarpMeter warp_;
  TransportStats transport_stats_;
  /// Last sequence number per (src,dst) reliable stream, indexed by
  /// link(src, dst); the first frame gets 1.
  std::vector<std::uint64_t> tx_seq_;
  /// Unacked reliable frames per link(src, dst), in increasing seq order.
  std::vector<std::vector<TxRef>> pending_tx_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::pair<std::string, std::function<void(Task&)>>> bodies_;
  std::vector<std::function<void()>> start_hooks_;
  std::vector<std::function<void()>> flush_hooks_;
  Membership* membership_ = nullptr;
};

inline VirtualMachine::TxRef::~TxRef() {
  if (st_ != nullptr && --st_->refs == 0) pool_->recycle(st_);
}

}  // namespace nscc::rt
