#include "rt/vm.hpp"

#include <algorithm>
#include <cassert>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <utility>

namespace nscc::rt {

namespace {

/// The entry for `seq` in a link's pending list (sorted by seq), or end().
template <typename Ref>
auto find_seq(const std::vector<Ref>& pending, std::uint64_t seq) {
  const auto it = std::lower_bound(
      pending.begin(), pending.end(), seq,
      [](const Ref& r, std::uint64_t s) { return r->msg.seq < s; });
  return it != pending.end() && (*it)->msg.seq == seq ? it : pending.end();
}

/// Whether a message tagged `tag` satisfies a receive for `wanted`:
/// kAnyTag matches any application tag.
bool tag_matches(int wanted, int tag) noexcept {
  return wanted == kAnyTag ? tag < kReservedTagBase : tag == wanted;
}

}  // namespace

// ---- Task -------------------------------------------------------------------

Task::Task(VirtualMachine& vm, int id, util::Xoshiro256 rng)
    : vm_(vm),
      id_(id),
      rng_(rng),
      messages_sent_(vm.obs_.registry().counter("rt.messages_sent", id)),
      bytes_sent_(vm.obs_.registry().counter("rt.bytes_sent", id)),
      messages_received_(
          vm.obs_.registry().counter("rt.messages_received", id)),
      backpressure_events_(
          vm.obs_.registry().counter("rt.backpressure_events", id)),
      compute_time_ns_(vm.obs_.registry().counter("rt.compute_time_ns", id)),
      blocked_time_ns_(vm.obs_.registry().counter("rt.blocked_time_ns", id)),
      backpressure_time_ns_(
          vm.obs_.registry().counter("rt.backpressure_time_ns", id)) {}

int Task::vm_size() const noexcept { return vm_.size(); }

const std::string& Task::name() const noexcept { return process_->name(); }

sim::Time Task::now() const noexcept { return vm_.engine_.now(); }

void Task::compute(sim::Time dt) {
  assert(vm_.engine_.current() == process_ &&
         "compute() must run inside the task's process");
  compute_time_ns_.inc(static_cast<std::uint64_t>(dt));
  process_->delay(dt);
}

void Task::send(int dst, int tag, Packet payload) {
  send_observed(dst, tag, std::move(payload), {});
}

void Task::send_observed(int dst, int tag, Packet payload,
                         OnSettled on_settled,
                         Reliability reliability, std::uint64_t flow) {
  compute(vm_.config_.send_sw_overhead);
  // Transport backpressure: block while the socket-buffer window is full
  // (a flooding sender is throttled to the medium's drain rate).
  const std::uint64_t window = vm_.config_.sender_window_bytes;
  const std::uint64_t bytes = payload.byte_size();
  if (window != 0 && in_flight_bytes_ > 0 &&
      in_flight_bytes_ + bytes > window) {
    backpressure_events_.inc();
    const sim::Time blocked_from = now();
    while (in_flight_bytes_ > 0 && in_flight_bytes_ + bytes > window) {
      waiting_for_window_ = true;
      process_->suspend();
    }
    backpressure_time_ns_.inc(static_cast<std::uint64_t>(now() - blocked_from));
    vm_.obs_.tracer().complete(id_, "send.window_wait", blocked_from,
                               now() - blocked_from, "bytes",
                               static_cast<std::int64_t>(bytes));
  }
  vm_.post(id_, dst, tag, std::move(payload), std::move(on_settled),
           reliability, flow);
}

void Task::broadcast(int tag, const Packet& payload) {
  for (int dst = 0; dst < vm_.size(); ++dst) {
    if (dst != id_) send(dst, tag, payload);
  }
}

std::optional<std::size_t> Task::find_match(int tag) const noexcept {
  for (std::size_t i = 0; i < mailbox_.size(); ++i) {
    if (tag_matches(tag, mailbox_[i].tag)) return i;
  }
  return std::nullopt;
}

Message Task::recv(int tag) { return take(*wait_for(tag, std::nullopt)); }

std::optional<Message> Task::recv_timeout(int tag, sim::Time timeout) {
  if (timeout <= 0) return try_recv(tag);
  const auto idx = wait_for(tag, timeout);
  if (!idx) return std::nullopt;
  return take(*idx);
}

std::optional<Message> Task::try_recv(int tag) {
  const auto idx = find_match(tag);
  if (!idx) return std::nullopt;
  return take(*idx);
}

std::optional<std::size_t> Task::wait_for(int tag,
                                          std::optional<sim::Time> timeout) {
  assert(vm_.engine_.current() == process_ &&
         "a receive must run inside the task's process");
  if (timeout) {
    timed_out_ = false;
    receive_watchdog_ = vm_.engine_.set_watchdog(now() + *timeout, [this] {
      receive_watchdog_ = 0;
      if (waiting_) {
        waiting_ = false;
        timed_out_ = true;
        process_->resume();
      }
    });
  }
  for (;;) {
    if (auto idx = find_match(tag)) {
      if (receive_watchdog_ != 0) {
        vm_.engine_.cancel_watchdog(receive_watchdog_);
        receive_watchdog_ = 0;
      }
      return idx;
    }
    if (timeout && timed_out_) return std::nullopt;
    waiting_ = true;
    waiting_tag_ = tag;
    const sim::Time blocked_from = now();
    process_->suspend();
    blocked_time_ns_.inc(static_cast<std::uint64_t>(now() - blocked_from));
    vm_.obs_.tracer().complete(id_, "recv.wait", blocked_from,
                               now() - blocked_from, "tag", tag);
  }
}

Message Task::take(std::size_t index) {
  Message msg = mailbox_.take(index);
  messages_received_.inc();
  compute(vm_.config_.recv_sw_overhead);
  return msg;
}

bool Task::probe(int tag) const noexcept { return find_match(tag).has_value(); }

void Task::set_tag_handler(int tag, std::function<void(Message)> handler) {
  if (handler) {
    tag_handlers_[tag] = std::move(handler);
  } else {
    tag_handlers_.erase(tag);
  }
}

void Task::deliver(Message msg) {
  if (msg.src != id_) {
    vm_.warp_.record(id_, msg.src, msg.sent_at, msg.delivered_at);
  }
  vm_.obs_.tracer().instant(id_, "msg.deliver", msg.delivered_at, "src",
                            msg.src, "bytes", msg.payload.byte_size());
  if (auto h = tag_handlers_.find(msg.tag); h != tag_handlers_.end()) {
    // Engine-context consumer (DSM request daemon): the message never
    // touches the mailbox, so it is served even while the task body is
    // blocked in a barrier or Global_Read.
    messages_received_.inc();
    h->second(std::move(msg));
    return;
  }
  mailbox_.push_back(std::move(msg));
  if (waiting_ && tag_matches(waiting_tag_, mailbox_.back().tag)) {
    waiting_ = false;
    process_->resume();
  }
}

void Task::barrier() {
  Packet empty;
  if (id_ == 0) {
    for (int i = 1; i < vm_.size(); ++i) {
      (void)recv(kBarrierArriveTag);
    }
    for (int i = 1; i < vm_.size(); ++i) {
      send(i, kBarrierReleaseTag, empty);
    }
  } else {
    send(0, kBarrierArriveTag, empty);
    (void)recv(kBarrierReleaseTag);
  }
}

// ---- Transmit-state pool -----------------------------------------------------

VirtualMachine::TxRef VirtualMachine::TxPool::acquire() {
  if (free_.empty()) {
    owned_.push_back(std::make_unique<TxState>());
    // recycle() must never allocate: keep room for every state to be free.
    free_.reserve(owned_.size());
    return TxRef(owned_.back().get(), this);
  }
  TxState* st = free_.back();
  free_.pop_back();
  return TxRef(st, this);
}

void VirtualMachine::TxPool::recycle(TxState* st) noexcept {
  // A payload still here was lost, kept for retransmission, or delivered
  // as a share; one moved out at delivery is empty and is not kept.
  packets_.release(std::move(st->msg.payload));
  *st = TxState{};
  free_.push_back(st);
}

// ---- VirtualMachine ----------------------------------------------------------

bool VirtualMachine::reliable_for(int tag, Reliability reliability) const {
  if (!config_.transport.enabled || tag == kAckTag) return false;
  switch (reliability) {
    case Reliability::kReliable:
      return true;
    case Reliability::kBestEffort:
      return false;
    case Reliability::kAuto:
      break;
  }
  // Application traffic and runtime control traffic ride the reliable
  // channel; DSM updates are the race-tolerant payload and stay best-effort
  // unless the caller opts in (synchronous mode does).  Heartbeats are
  // control traffic: a lost heartbeat must not fake a node death.
  if (tag < kReservedTagBase) return true;
  return tag == kBarrierArriveTag || tag == kBarrierReleaseTag ||
         tag == kDsmRequestTag || tag == kHeartbeatTag;
}

void VirtualMachine::post(int src, int dst, int tag, Packet payload,
                          OnSettled on_settled,
                          Reliability reliability, std::uint64_t flow) {
  assert(src >= 0 && src < size());
  assert(dst >= 0 && dst < size());

  Task* sender = tasks_.at(src).get();
  const bool is_ack = (tag == kAckTag);

  TxRef st = tx_pool_.acquire();
  st->msg.src = src;
  st->msg.tag = tag;
  st->msg.payload = std::move(payload);
  st->msg.epoch = sender->epoch_;
  st->msg.flow = flow;
  st->msg.sent_at = engine_.now();
  st->dst = dst;
  // ACKs have a fixed modelled wire size and are exempt from the sender
  // window and per-task traffic stats (hardware/daemon-level frames).
  st->payload_bytes = is_ack ? kAckBytes : st->msg.payload.byte_size();
  // Stamp the payload checksum only when the plan can actually damage
  // frames: corruption-free runs never pay for the CRC pass.
  if (may_corrupt_) st->crc = st->msg.payload.crc32();
  st->on_settled = std::move(on_settled);

  if (is_ack) {
    st->window_released = true;
  } else {
    sender->messages_sent_.inc();
    sender->bytes_sent_.inc(st->payload_bytes);
    sender->in_flight_bytes_ += st->payload_bytes;
    obs_.tracer().instant(src, "msg.send", engine_.now(), "dst", dst, "bytes",
                          st->payload_bytes);
  }

  if (dst == src) {
    // Local delivery: no wire time (and no faults or transport), still
    // ordered via an event.
    engine_.schedule(engine_.now(), obs::EventKind::kTransport,
                     [this, st = std::move(st), sender] {
      st->msg.delivered_at = engine_.now();
      if (!st->window_released) {
        st->window_released = true;
        sender->in_flight_bytes_ -= st->payload_bytes;
        if (sender->waiting_for_window_) {
          sender->waiting_for_window_ = false;
          sender->process_->resume();
        }
      }
      sender->deliver(std::move(st->msg));
      settle(st, true);
    });
    return;
  }

  st->reliable = reliable_for(tag, reliability);
  if (st->reliable) {
    st->msg.seq = ++tx_seq_[link(src, dst)];
    st->rto = config_.transport.ack_timeout;
    // Seqs per link only grow, so appending keeps the list sorted.
    pending_tx_[link(src, dst)].push_back(st);
    arm_retx_timer(st);
  }

  transmit_frame(st);
}

void VirtualMachine::transmit_frame(const TxRef& st) {
  // A by-value handle from a non-const local: the closure member is then a
  // plain TxRef, nothrow-movable, and the outcome stays inline.
  TxRef ref = st;
  auto outcome = [this, ref = std::move(ref)](sim::Time at, bool delivered,
                                              std::uint64_t corrupt_seed) {
    on_wire_outcome(ref, at, delivered, corrupt_seed);
  };
  static_assert(net::Outcome::kStoredInline<decltype(outcome)>);
  if (switch_) {
    switch_->transmit_observed(st->msg.src, st->dst, st->payload_bytes,
                               std::move(outcome));
  } else {
    bus_.transmit(st->msg.src, st->dst, st->payload_bytes, std::move(outcome));
  }
}

void VirtualMachine::on_wire_outcome(const TxRef& st, sim::Time at,
                                     bool delivered,
                                     std::uint64_t corrupt_seed) {
  if (!st->window_released) {
    st->window_released = true;
    Task* sender = tasks_.at(st->msg.src).get();
    sender->in_flight_bytes_ -= st->payload_bytes;
    if (sender->waiting_for_window_) {
      sender->waiting_for_window_ = false;
      sender->process_->resume();
    }
  }
  if (delivered) {
    deliver_frame(st, at, corrupt_seed);
  } else if (!st->reliable) {
    // A lost best-effort frame settles as undelivered right away; a lost
    // reliable frame is recovered by the retransmit timer.
    settle(st, false);
  }
}

void VirtualMachine::deliver_frame(const TxRef& st, sim::Time at,
                                   std::uint64_t corrupt_seed) {
  Task* receiver = tasks_.at(st->dst).get();

  // Fault-injected payload damage lands on a share of the payload: a bit
  // flip copies it first and a cut only narrows its window, so TxState
  // keeps the pristine bytes and a retransmission resends them intact.
  std::optional<Packet> damaged;
  if (corrupt_seed != 0) {
    damaged = st->msg.payload;
    const auto effect =
        fault::corruption_effect(corrupt_seed, damaged->byte_size());
    for (const std::size_t bit : effect.bit_flips) damaged->flip_bit(bit);
    if (effect.truncate_to != static_cast<std::size_t>(-1)) {
      damaged->truncate_to(effect.truncate_to);
    }
    if (damaged->crc32() != st->crc) {
      // The receiver's NIC catches the damage: discard the frame exactly
      // as if the wire had lost it.  A best-effort frame settles as
      // undelivered; a reliable one is recovered by the retransmit timer.
      crc_drops_.inc();
      obs_.tracer().instant(st->dst, "rt.crc_drop", at, "src", st->msg.src,
                            "tag", st->msg.tag);
      if (!st->reliable) settle(st, false);
      return;
    }
    // An undetected collision: the damaged payload reaches the stack — the
    // DSM decode guard's and the sanitizer's business.
  }

  if (st->msg.tag == kAckTag) {
    // Transport control frame: settle the acknowledged data frame and stop.
    // An ACK is never resent, so its own payload can be read in place.
    Packet& p = damaged ? *damaged : st->msg.payload;
    p.rewind();
    if (p.remaining() < sizeof(std::uint64_t)) {
      // A corrupted ACK cut below its sequence number carries nothing
      // usable; the data frame's retransmit timer re-elicits one.
      malformed_frames_.inc();
      settle(st, true);
      return;
    }
    const std::uint64_t seq = p.unpack_u64();
    // The ACK's destination is the original data sender; its source is the
    // node that received the data.
    const std::vector<TxRef>& pending = pending_tx_[link(st->dst, st->msg.src)];
    if (const auto it = find_seq(pending, seq); it != pending.end()) {
      // Copy: settle() erases the entry the iterator points into.
      const TxRef acked = *it;
      settle(acked, true);
    }
    settle(st, true);
    return;
  }

  if (st->msg.seq != 0) {
    send_ack(st->dst, st->msg.src, st->msg.seq);
    if (!receiver->rx_seq_[static_cast<std::size_t>(st->msg.src)].fresh(
            st->msg.seq)) {
      // Replay (a retransmit racing the original or its lost ACK): drop
      // after re-ACKing so the sender still learns of delivery.
      dup_frames_dropped_.inc();
      return;
    }
  }

  // By-move delivery: the message moves out of the TxState unless a later
  // delivery of this frame can read its payload.  A best-effort frame is
  // delivered at most once, so it always moves.  A reliable frame's
  // retransmits fail the fresh() check above unread, but one is re-damaged
  // from the stored bytes when the plan can corrupt frames; that case
  // delivers a share of the payload (a reader that wrote to it would copy
  // it first).
  Message m;
  if (!st->reliable || !may_corrupt_) {
    m = std::move(st->msg);
  } else {
    m = st->msg;
  }
  if (damaged) m.payload = std::move(*damaged);
  m.delivered_at = at;
  if (m.flow != 0) {
    // Transit hop of a traced DSM update: the arrow touches the receiver's
    // track at arrival time, between the producer's 's' and the consuming
    // read's 'f'.
    obs_.tracer().flow_step(st->dst, "dsm.flow", at, m.flow, "src", m.src,
                            "attempt", st->attempts);
  }
  receiver->deliver(std::move(m));
  if (!st->reliable) settle(st, true);
  // Reliable frames settle when their ACK returns (or retransmission is
  // exhausted), so on_settled reports end-to-end fate, not wire fate.
}

void VirtualMachine::settle(const TxRef& st, bool delivered) {
  if (st->settled) return;
  st->settled = true;
  if (st->retx_timer != 0) {
    engine_.cancel_watchdog(st->retx_timer);
    st->retx_timer = 0;
  }
  if (st->msg.seq != 0) {
    std::vector<TxRef>& pending = pending_tx_[link(st->msg.src, st->dst)];
    if (const auto it = find_seq(pending, st->msg.seq); it != pending.end()) {
      pending.erase(it);
    }
  }
  if (st->on_settled) {
    // Moved out first, so the state holds no callback while it runs.
    OnSettled cb = std::move(st->on_settled);
    cb(delivered);
  }
}

void VirtualMachine::arm_retx_timer(const TxRef& st) {
  TxRef ref = st;
  st->retx_timer = engine_.set_watchdog(
      engine_.now() + st->rto, [this, st = std::move(ref)] {
        st->retx_timer = 0;
        if (st->settled) return;
        if (st->attempts >= kMaxTxAttempts) {
          retx_abandoned_.inc();
          obs_.tracer().instant(st->msg.src, "rt.retx_abandon", engine_.now(),
                                "dst", st->dst, "seq",
                                static_cast<std::int64_t>(st->msg.seq));
          if (membership_ != nullptr) {
            membership_->on_link_failure(st->msg.src, st->dst);
          }
          settle(st, false);
          return;
        }
        ++st->attempts;
        retransmissions_.inc();
        obs_.tracer().instant(st->msg.src, "rt.retx", engine_.now(), "dst",
                              st->dst, "seq",
                              static_cast<std::int64_t>(st->msg.seq));
        if (st->msg.flow != 0) {
          // Escalation hop: the flow arrow dips back to the sender's track
          // at each retransmission, so a late read's latency visibly
          // decomposes into retry rounds.
          obs_.tracer().flow_step(st->msg.src, "dsm.flow.retx", engine_.now(),
                                  st->msg.flow, "attempt", st->attempts);
        }
        st->rto = static_cast<sim::Time>(static_cast<double>(st->rto) *
                                         kRetxBackoff);
        transmit_frame(st);
        arm_retx_timer(st);
      });
}

void VirtualMachine::send_ack(int from, int to, std::uint64_t seq) {
  acks_sent_.inc();
  Packet p = packets_.acquire();
  p.pack_u64(seq);
  post(from, to, kAckTag, std::move(p), {}, Reliability::kBestEffort);
}

double VirtualMachine::network_utilization() const noexcept {
  return switch_ ? switch_->utilization() : bus_.utilization();
}

void VirtualMachine::kill_task(int id) {
  Task* t = tasks_.at(static_cast<std::size_t>(id)).get();
  if (t->process_->finished()) return;
  engine_.kill(*t->process_);
  // Volatile state dies with the fiber: queued messages and wait flags are
  // gone.  NIC-level state survives the crash on purpose — in-flight frames
  // still settle against in_flight_bytes_ (clearing it would underflow), and
  // sequence trackers keep peers' dedup consistent across the restart.
  // Engine-context tag handlers registered by external observers (the
  // recovery coordinator's heartbeat sink) stay installed; the DSM
  // unregisters its own handler as its instance unwinds.
  t->mailbox_.clear();
  t->waiting_ = false;
  t->waiting_tag_ = kAnyTag;
  t->timed_out_ = false;
  if (t->receive_watchdog_ != 0) {
    engine_.cancel_watchdog(t->receive_watchdog_);
    t->receive_watchdog_ = 0;
  }
  t->waiting_for_window_ = false;
  obs_.tracer().instant(id, "task.crash", engine_.now(), "epoch",
                        static_cast<std::int64_t>(t->epoch_));
}

void VirtualMachine::respawn_task(int id) {
  Task* t = tasks_.at(static_cast<std::size_t>(id)).get();
  assert(t->process_->finished() && "respawn of a live task");
  ++t->epoch_;
  auto body = bodies_.at(static_cast<std::size_t>(id)).second;
  Task* task = t;
  t->process_ = &engine_.respawn(
      *t->process_, [task, body](sim::Process&) { body(*task); },
      engine_.now());
  obs_.tracer().instant(id, "task.respawn", engine_.now(), "epoch",
                        static_cast<std::int64_t>(t->epoch_));
}

bool VirtualMachine::task_alive(int id) const {
  return !tasks_.at(static_cast<std::size_t>(id))->process_->finished();
}

VirtualMachine::VirtualMachine(MachineConfig config)
    : config_(config),
      obs_(config.obs),
      bus_(engine_, config.bus),
      warp_(config.ntasks),
      retransmissions_(obs_.registry().counter("rt.retransmissions")),
      retx_abandoned_(obs_.registry().counter("rt.retx_abandoned")),
      acks_sent_(obs_.registry().counter("rt.acks_sent")),
      dup_frames_dropped_(obs_.registry().counter("rt.dup_frames_dropped")),
      crc_drops_(obs_.registry().counter("rt.crc_drops")),
      malformed_frames_(obs_.registry().counter("rt.malformed_frames")) {
  if (config_.ntasks < 1) {
    throw std::invalid_argument("VirtualMachine needs at least one task");
  }
  const auto links = static_cast<std::size_t>(config_.ntasks) *
                     static_cast<std::size_t>(config_.ntasks);
  tx_seq_.assign(links, 0);
  pending_tx_.resize(links);
  if (config_.network == Network::kSp2Switch) {
    switch_ = std::make_unique<net::SwitchFabric>(engine_, config_.ntasks,
                                                  config_.sp2_switch);
  }
  if (!config_.fault.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.fault);
    bus_.set_fault_injector(injector_.get());
    if (switch_) switch_->set_fault_injector(injector_.get());
    may_corrupt_ = config_.fault.link.corrupt_prob > 0.0 ||
                   !config_.fault.corrupt_windows.empty();
  }
  if (config_.sanitize.enabled()) {
    sanitizer_ = std::make_unique<sanitize::Sanitizer>(config_.sanitize, obs_);
  }
  if (config_.obs.profile) {
    // Self-profiling: wall-clock per dispatched event, attributed by kind.
    // Never touches virtual time, so profiled runs stay byte-identical.
    engine_.set_profiler(&obs_.profiler());
  }
  if (obs_.active()) {
    engine_.set_tracer(&obs_.tracer());
    bus_.set_tracer(&obs_.tracer());
    if (switch_) switch_->set_tracer(&obs_.tracer());
    obs_.tracer().set_track_name(obs::kEngineTrack, "engine");
    obs_.tracer().set_track_name(obs::kBusTrack, "bus");

    // Virtual-time series probes (sampled every config.obs.sample_interval).
    obs::Registry& reg = obs_.registry();
    obs::Sampler& sampler = obs_.sampler();
    sampler.add_probe("staleness_mean", [&reg] {
      return reg.histogram("dsm.staleness").mean();
    });
    sampler.add_probe("blocked_readers", [&reg] {
      return reg.gauge("dsm.blocked_readers").value();
    });
    sampler.add_probe("inflight_updates", [&reg] {
      return reg.gauge("dsm.updates_inflight").value();
    });
    sampler.add_probe("warp_mean", [this] {
      return warp_.samples() > 0 ? warp_.overall().mean() : 0.0;
    });
    sampler.add_probe("network_utilization",
                      [this] { return network_utilization(); });
    sampler.add_probe("events_executed", [this] {
      return static_cast<double>(engine_.events_executed());
    });
    engine_.set_sampler(&sampler, config_.obs.sample_interval);
  }
}

VirtualMachine::~VirtualMachine() {
  for (const auto& t : tasks_) {
    if (t->process_ != nullptr) engine_.kill(*t->process_);
  }
}

void VirtualMachine::flush_stats() {
  // What the runtime, the DSM, the sanitizer and the recovery coordinator
  // count is already in the registry.  This adds what components that are
  // also built on their own keep in their stats structs (bus, switch,
  // fault injector), the end-of-run gauges and the engine's totals.
  obs::Registry& reg = obs_.registry();
  const net::BusStats& bs = bus_.stats();
  reg.counter("net.frames_sent").inc(bs.frames_sent);
  reg.counter("net.payload_bytes").inc(bs.payload_bytes);
  reg.counter("net.wire_bytes").inc(bs.wire_bytes);
  reg.counter("net.busy_time_ns").inc(static_cast<std::uint64_t>(bs.busy_time));
  if (switch_) {
    const net::SwitchStats& ss = switch_->stats();
    reg.counter("net.switch.messages").inc(ss.messages);
    reg.counter("net.switch.payload_bytes").inc(ss.payload_bytes);
    reg.counter("net.switch.tx_busy_time_ns")
        .inc(static_cast<std::uint64_t>(ss.tx_busy_time));
  }
  if (injector_) {
    const fault::FaultStats& fs = injector_->stats();
    reg.counter("fault.frames_judged").inc(fs.frames_judged);
    reg.counter("fault.frames_lost").inc(fs.frames_lost);
    reg.counter("fault.outage_drops").inc(fs.outage_drops);
    reg.counter("fault.crash_drops").inc(fs.crash_drops);
    reg.counter("fault.partition_drops").inc(fs.partition_drops);
    reg.counter("fault.blackhole_drops").inc(fs.blackhole_drops);
    reg.counter("fault.frames_corrupted").inc(fs.frames_corrupted);
  }
  reg.gauge("net.utilization").set(network_utilization());
  reg.gauge("warp.mean").set(warp_.samples() > 0 ? warp_.overall().mean()
                                                 : 0.0);
  reg.counter("warp.samples").inc(warp_.samples());
  reg.counter("sim.events_executed").inc(engine_.events_executed());
  if (engine_.profiler() != nullptr) engine_.profiler()->flush(reg);
}

void VirtualMachine::add_task(std::string name,
                              std::function<void(Task&)> body) {
  if (static_cast<int>(bodies_.size()) >= config_.ntasks) {
    throw std::logic_error("more task bodies than configured ntasks");
  }
  bodies_.emplace_back(std::move(name), std::move(body));
}

sim::Time VirtualMachine::run(sim::Time until) {
  if (static_cast<int>(bodies_.size()) != config_.ntasks) {
    throw std::logic_error("not all task bodies registered before run()");
  }
  if (!tasks_.empty()) {
    throw std::logic_error("VirtualMachine::run() may only be called once");
  }

  util::Xoshiro256 root(config_.seed);
  for (int id = 0; id < config_.ntasks; ++id) {
    tasks_.push_back(std::unique_ptr<Task>(
        new Task(*this, id, root.split(static_cast<std::uint64_t>(id)))));
    tasks_.back()->rx_seq_.resize(static_cast<std::size_t>(config_.ntasks));
  }
  for (int id = 0; id < config_.ntasks; ++id) {
    Task* task = tasks_[id].get();
    auto body = bodies_[id].second;
    task->process_ = &engine_.spawn(bodies_[id].first,
                                    [task, body](sim::Process&) { body(*task); });
  }
  // A crash window tears the victim's fiber down at the window start and
  // counts in rt.crashes, whatever recovery policy runs; the injector
  // silences its links for the window's span.
  for (const auto& [node, windows] : config_.fault.crashes) {
    if (node < 0 || node >= config_.ntasks) continue;
    obs::Counter& crashes = obs_.registry().counter("rt.crashes");
    for (const fault::Window& w : windows) {
      engine_.schedule(w.start, [this, node, &crashes] {
        crashes.inc();
        kill_task(node);
      });
    }
  }
  for (const auto& hook : start_hooks_) hook();
  if (obs::Profiler* prof = engine_.profiler(); prof != nullptr) {
    prof->start_run(engine_.events_executed());
  }
  // Stop once every task body has returned, even if non-task event sources
  // (e.g. a background load generator) would keep the queue non-empty.
  const sim::Time end = engine_.run(until, [this] {
    for (const auto& t : tasks_) {
      if (!t->process_->finished()) return false;
    }
    return true;
  });
  if (obs::Profiler* prof = engine_.profiler(); prof != nullptr) {
    prof->finish_run(engine_.events_executed());
  }
  // The end-of-run totals are published on every run: the registry is
  // where run results are read from (harness::RunStats::from_registry),
  // observed or not.  Only the sampler row and the file outputs are
  // observer work.
  flush_stats();
  if (obs_.active()) {
    obs_.sampler().sample_now(end);  // Final row at the completion time.
    obs_.finalize();
  }
  // The violation report prints regardless of observability: certifying
  // race tolerance is the whole point of running with --sanitize on.
  if (sanitizer_) sanitizer_->report(std::cerr);
  return end;
}

}  // namespace nscc::rt
