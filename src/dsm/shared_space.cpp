#include "dsm/shared_space.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace nscc::dsm {

namespace {

/// Marks the enclosing read as an acquire point for a parking model:
/// arriving updates apply immediately while it is in scope (restored on
/// exit, exception-safe).
class AcquireScope {
 public:
  AcquireScope(bool enabled, bool& flag) : flag_(flag), prev_(flag) {
    if (enabled) flag_ = true;
  }
  ~AcquireScope() { flag_ = prev_; }
  AcquireScope(const AcquireScope&) = delete;
  AcquireScope& operator=(const AcquireScope&) = delete;

 private:
  bool& flag_;
  bool prev_;
};

/// The watchdog's next escalation budget: double the last one.
sim::Time next_backoff(sim::Time budget) {
  return std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(budget) * 2.0));
}

}  // namespace

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::kSynchronous:
      return "sync";
    case Mode::kAsynchronous:
      return "async";
    case Mode::kPartialAsync:
      return "partial";
  }
  return "?";
}

SharedSpace::SharedSpace(rt::Task& task, PropagationPolicy policy)
    : task_(task), packets_(task.vm().packets()), policy_(std::move(policy)) {
  // Resolve the consistency model first: its shape() may rewrite the
  // transport-facing policy knobs everything below reads.
  model_ = make_consistency_model(policy_.consistency);
  model_->shape(policy_);
  park_updates_ = !model_->visible_on_arrival();
  stamp_updates_ = model_->stamps_updates();
  membership_ = task.vm().membership();
  obs::Hub& hub = task.vm().obs();
  // The registry exists whether or not the hub is actively tracing; the
  // staleness histograms are the canonical accounting (DsmStats reads the
  // per-task one), so they are resolved unconditionally.
  staleness_hist_ = &hub.registry().histogram("dsm.staleness");
  staleness_mine_ = &hub.registry().histogram("dsm.staleness", task.id());
  stats_.staleness_on_read = staleness_mine_;
  san_ = task.vm().sanitizer();
  if (hub.active()) {
    obs_ = &hub;
    blocked_readers_ = &hub.registry().gauge("dsm.blocked_readers");
    inflight_updates_ = &hub.registry().gauge("dsm.updates_inflight");
    read_queued_ = &hub.registry().counter("dsm.read.queued");
    read_blocked_ = &hub.registry().counter("dsm.read.blocked");
    read_escalated_ = &hub.registry().counter("dsm.read.escalated");
    read_degraded_ = &hub.registry().counter("dsm.read.degraded");
    read_block_ns_ = &hub.registry().histogram("dsm.read.block_ns");
  }
  // Serve read demands at delivery time, in engine context, so a writer
  // blocked in a barrier or its own Global_Read still answers starved
  // readers (a mailbox-polling server could not: both sides could block on
  // each other forever).  Every demand takes this one path.
  task_.set_tag_handler(rt::kDsmRequestTag, [this](rt::Message m) {
    serve_request(m.payload, m.src);
    packets_.release(std::move(m.payload));
  });
  // Anti-entropy heal: schedule one republish pass at the end of every
  // scheduled partition/blackhole window.  Engine-context events guarded by
  // the liveness token, so a task body that returns before the window ends
  // leaves only no-ops behind.
  if (policy_.partition_heal) {
    const fault::FaultPlan& plan = task_.vm().config().fault;
    std::vector<sim::Time> ends;
    for (const auto& p : plan.partitions) ends.push_back(p.window.end);
    for (const auto& h : plan.blackholes) ends.push_back(h.window.end);
    std::sort(ends.begin(), ends.end());
    ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
    sim::Engine& eng = task_.vm().engine();
    for (const sim::Time end : ends) {
      if (end <= eng.now()) continue;
      std::weak_ptr<SharedSpace*> weak = alive_;
      eng.schedule(end, [weak] {
        if (auto self = weak.lock()) (*self)->heal_republish();
      });
    }
  }
}

SharedSpace::~SharedSpace() {
  task_.set_tag_handler(rt::kDsmRequestTag, {});
  // Published whether or not observers are on: the registry is the run's
  // result (harness::RunStats::from_registry).  A killed incarnation's
  // space unwinds here too, so its work is counted.
  obs::Registry& reg = task_.vm().obs().registry();
  const int pid = task_.id();
  reg.counter("dsm.writes", pid).inc(stats_.writes);
  reg.counter("dsm.updates_sent", pid).inc(stats_.updates_sent);
  reg.counter("dsm.updates_coalesced", pid).inc(stats_.updates_coalesced);
  reg.counter("dsm.updates_applied", pid).inc(stats_.updates_applied);
  reg.counter("dsm.updates_stale_dropped", pid)
      .inc(stats_.updates_stale_dropped);
  reg.counter("dsm.global_reads", pid).inc(stats_.global_reads);
  reg.counter("dsm.global_read_blocks", pid).inc(stats_.global_read_blocks);
  reg.counter("dsm.global_read_block_time_ns", pid)
      .inc(static_cast<std::uint64_t>(stats_.global_read_block_time));
  reg.counter("dsm.requests_sent", pid).inc(stats_.requests_sent);
  reg.counter("dsm.hints_received", pid).inc(stats_.hints_received);
  reg.counter("dsm.request_replies", pid).inc(stats_.request_replies);
  reg.counter("dsm.read_escalations", pid).inc(stats_.read_escalations);
  reg.counter("dsm.degraded_reads", pid).inc(stats_.degraded_reads);
  reg.counter("dsm.integrity_dropped", pid).inc(stats_.integrity_dropped);
  // Partition counters only when the machinery actually fired, so runs
  // without partitions keep an unchanged metrics footprint.
  if (stats_.partition_stale_served > 0) {
    reg.counter("dsm.partition.stale_served", pid)
        .inc(stats_.partition_stale_served);
  }
  if (stats_.heal_frames > 0) {
    reg.counter("dsm.partition.heal_frames", pid).inc(stats_.heal_frames);
  }
  if (stats_.diverged_marks > 0) {
    reg.counter("dsm.partition.diverged_locations", pid)
        .inc(stats_.diverged_marks);
    reg.counter("dsm.partition.reconciled_locations", pid)
        .inc(stats_.reconciled_marks);
  }
  // Consistency-model counters only when the model actually engaged them,
  // so nonstrict runs keep an unchanged metrics footprint.
  if (stats_.updates_parked > 0) {
    reg.counter("dsm.consistency.updates_parked", pid)
        .inc(stats_.updates_parked);
    reg.counter("dsm.consistency.updates_flushed", pid)
        .inc(stats_.updates_flushed);
  }
  if (stats_.ooo_updates > 0) {
    reg.counter("dsm.consistency.ooo_updates", pid).inc(stats_.ooo_updates);
  }
}

void SharedSpace::declare_written(LocationId loc, std::vector<int> readers) {
  const auto [it, inserted] = locations_.try_emplace(loc);
  if (!inserted) throw std::logic_error("SharedSpace: location declared twice");
  it->second.readers.reserve(readers.size());
  for (const int r : readers) it->second.readers.emplace_back().id = r;
}

void SharedSpace::declare_read(LocationId loc, int writer) {
  const auto [it, inserted] = locations_.try_emplace(loc);
  if (!inserted) throw std::logic_error("SharedSpace: location declared twice");
  it->second.writer = writer;
}

void SharedSpace::send_update(LocationId loc, int reader,
                              const rt::Packet& frame, bool charge_cpu,
                              rt::Reliability reliability,
                              std::uint64_t flow) {
  // Every send posts a share of the version's frame.  Ordering metadata
  // goes last: a release-stamping model sequences every send (organic
  // writes, demand replies, heal republishes alike), and appending the
  // stamp gives this send its own copy of the frame.
  rt::Packet payload = frame;
  if (stamp_updates_) {
    payload.reserve(frame.byte_size() + sizeof(std::uint64_t));
    payload.pack_u64(model_->next_stamp());
  }

  if (obs_ != nullptr) {
    obs_->tracer().instant(task_.id(), "dsm.update.send", task_.now(), "loc",
                           loc, "reader", reader);
    inflight_updates_->add(1.0);
  }
  if (policy_.reliable_updates && reliability == rt::Reliability::kAuto) {
    reliability = rt::Reliability::kReliable;
  }

  rt::OnSettled on_settled;
  if (policy_.coalesce || obs_ != nullptr) {
    // The follow-up hop must not touch a SharedSpace that has already been
    // destroyed (its task body may finish while updates are on the wire);
    // the hub and engine belong to the VirtualMachine and outlive delivery.
    std::weak_ptr<SharedSpace*> weak = alive_;
    obs::Hub* hub = obs_;
    obs::Gauge* inflight = inflight_updates_;
    sim::Engine* eng = &task_.vm().engine();
    const bool coalesce = policy_.coalesce;
    auto settled = [weak, hub, inflight, eng, coalesce, loc,
                    reader](bool delivered) {
      if (hub != nullptr) {
        inflight->add(-1.0);
        hub->tracer().instant(reader,
                              delivered ? "dsm.update.deliver"
                                        : "dsm.update.lost",
                              eng->now(), "loc", loc);
      }
      if (coalesce) {
        if (auto self = weak.lock()) {
          (*self)->on_update_settled(loc, reader, delivered);
        }
      }
    };
    static_assert(rt::OnSettled::kStoredInline<decltype(settled)>);
    on_settled = std::move(settled);
  }
  if (charge_cpu) {
    // Process context: full send path (CPU overhead + transport window).
    task_.send_observed(reader, rt::kDsmUpdateTag, std::move(payload),
                        std::move(on_settled), reliability, flow);
  } else {
    // Engine context (DSM daemon forwarding a coalesced update): inject
    // without charging or blocking the application task.
    task_.vm().post(task_.id(), reader, rt::kDsmUpdateTag, std::move(payload),
                    std::move(on_settled), reliability, flow);
  }
  ++stats_.updates_sent;
}

void SharedSpace::on_update_settled(LocationId loc, int reader,
                                    bool delivered) {
  // Whether the update landed or died on the wire, it is no longer in
  // flight; forward the newest pending value if one accumulated.  Under
  // loss this is what makes coalescing self-healing: the *next* write (or
  // the stashed pending one) re-propagates the location.
  (void)delivered;
  std::vector<Reader>& readers = locations_.at(loc).readers;
  Reader& pr = *std::find_if(readers.begin(), readers.end(),
                             [&](const Reader& r) { return r.id == reader; });
  pr.in_flight = false;
  if (pr.has_pending) {
    pr.has_pending = false;
    pr.in_flight = true;
    const std::uint64_t flow = pr.pending_flow;
    pr.pending_flow = 0;
    send_update(loc, reader, pr.pending_frame, /*charge_cpu=*/false,
                rt::Reliability::kAuto, flow);
    packets_.release(std::move(pr.pending_frame));
  }
}

std::uint64_t SharedSpace::begin_flow(LocationId loc, Iteration iteration) {
  const std::uint64_t id = obs_->tracer().new_flow();
  obs_->tracer().flow_begin(task_.id(), "dsm.flow", task_.now(), id, "loc",
                            loc, "iter", iteration);
  return id;
}

void SharedSpace::write(LocationId loc, Iteration iteration, rt::Packet value) {
  auto it = locations_.find(loc);
  if (it == locations_.end() || it->second.writer >= 0) {
    throw std::logic_error("SharedSpace: write to a location not declared_written");
  }
  ++stats_.writes;
  if (obs_ != nullptr) {
    obs_->tracer().instant(task_.id(), "dsm.write", task_.now(), "loc", loc,
                           "iter", iteration);
  }
  Location& l = it->second;
  Value& mine = l.value;
  mine.iteration = iteration;
  mine.valid = true;
  // Pack this version's update frame once.  Every send of the version
  // posts a share of it (the fan-out below, a coalesced resend, a demand
  // reply, a heal republish), and the local copy is the value inside it.
  // Both are in place before any send can block, so a demand served
  // mid-send already sees this version.  The superseded frame and copy
  // drop their shares (the pool takes the buffer back from its last
  // holder), and the packed value returns to the pool, where the writer's
  // next value is drawn.
  packets_.release(std::move(l.frame));
  l.frame = packets_.acquire();
  l.frame.reserve(kFrameHeaderBytes + value.byte_size());
  l.frame.pack_i32(loc).pack_i64(iteration).pack_packet(value);
  packets_.release(std::move(value));
  packets_.release(std::move(mine.data));
  mine.data = l.frame;
  (void)mine.data.unpack_i32();
  (void)mine.data.unpack_i64();
  mine.data.narrow_to_embedded();
  mine.epoch = task_.epoch();
  if (san_ != nullptr) {
    san_->record_write(task_.id(), loc, iteration, mine.data.crc32(),
                       mine.data.byte_size(), task_.now());
  }

  for (Reader& pr : l.readers) {
    const int reader = pr.id;
    if (reader == task_.id()) continue;  // The local store is the update.
    // One causal flow per (write, reader): begun here on the producer's
    // track so the arrow starts at the write even when coalescing defers
    // (or replaces) the actual send.
    const std::uint64_t flow = flows_on() ? begin_flow(loc, iteration) : 0;
    if (policy_.coalesce && pr.in_flight) {
      if (pr.has_pending) {
        ++stats_.updates_coalesced;
        if (obs_ != nullptr) {
          obs_->tracer().instant(task_.id(), "dsm.update.coalesce",
                                 task_.now(), "loc", loc, "reader", reader);
        }
      }
      pr.has_pending = true;
      packets_.release(std::move(pr.pending_frame));
      pr.pending_frame = l.frame;
      pr.pending_flow = flow;
      continue;
    }
    if (policy_.coalesce) pr.in_flight = true;
    send_update(loc, reader, l.frame, /*charge_cpu=*/true,
                rt::Reliability::kAuto, flow);
  }
}

void SharedSpace::apply_update(rt::Message& msg) {
  // Release/acquire visibility: between acquire points an arriving update
  // is parked in wire form — the release log — and published only when the
  // reader next acquires.  Inside an acquire (including a blocked
  // Global_Read, which IS the acquire), updates apply immediately.
  if (park_updates_ && !acquiring_) {
    ++stats_.updates_parked;
    if (obs_ != nullptr) {
      obs_->tracer().instant(task_.id(), "dsm.update.park", task_.now(),
                             "src", msg.src);
    }
    parked_.push_back(
        {peek_stamp(msg.payload), parked_.size(), std::move(msg)});
    return;
  }
  // Parse defensively: corruption the transport's frame CRC missed can
  // leave garbage on the mailbox.  A frame that cannot be decoded is
  // quarantined — never applied, never shown to the observer — and, when
  // its header still names a location we read, a reliable demand
  // re-fetches a clean copy from the writer.
  //
  // The delivered frame becomes the applied value in place: its window
  // narrows to the value it carries, which is swapped into the Value, so
  // no byte is copied and the copy keeps sharing the writer's frame.
  rt::Packet& payload = msg.payload;
  LocationId loc = 0;
  Iteration iteration = 0;
  std::uint64_t stamp = 0;
  bool located = false;
  try {
    loc = payload.unpack_i32();
    iteration = payload.unpack_i64();
    located = true;
    if (stamp_updates_) {
      // The stamp follows the value: read it through a second share.
      rt::Packet tail = payload;
      tail.skip_packet();
      stamp = tail.unpack_u64();
    }
    payload.narrow_to_embedded();
  } catch (const std::out_of_range&) {
    ++stats_.integrity_dropped;
    if (obs_ != nullptr) {
      obs_->tracer().instant(task_.id(), "dsm.update.quarantine", task_.now(),
                             "loc", loc, "iter", iteration);
    }
    const auto it = located ? locations_.find(loc) : locations_.end();
    if (it != locations_.end()) send_demand(loc, it->second.writer, iteration);
    packets_.release(std::move(msg.payload));
    return;
  }

  auto it = locations_.find(loc);
  if (it == locations_.end() || it->second.writer < 0) {
    throw std::logic_error(
        "SharedSpace: update received for a location not declared_read");
  }
  // Release-order accounting: newest-wins below still decides what is
  // applied; the stamp check only measures how often the wire reordered
  // releases (reliable resends overtaking best-effort ones).
  if (stamp_updates_ && !model_->note_stamp(msg.src, stamp)) {
    ++stats_.ooo_updates;
  }
  if (observer_) {
    observer_(loc, iteration, payload);
    payload.rewind();
  }

  Value& v = it->second.value;
  if (iteration > v.iteration) {
    v.iteration = iteration;
    v.valid = true;
    v.degraded = false;
    std::swap(v.data, payload);
    // The applied copy carries its update's flow; a superseded copy's
    // unconsumed flow simply ends nowhere (the value was never read).
    v.flow = msg.flow;
    v.epoch = msg.epoch;
    ++stats_.updates_applied;
    if (obs_ != nullptr) {
      obs_->tracer().instant(task_.id(), "dsm.update.apply", task_.now(),
                             "loc", loc, "iter", iteration);
      if (msg.flow != 0) {
        // Apply-time hop: the gap back to the delivery-time step is the
        // update's mailbox-queued latency.
        obs_->tracer().flow_step(task_.id(), "dsm.flow.apply", task_.now(),
                                 msg.flow, "loc", loc, "iter", iteration);
      }
    }
    maybe_reconcile(loc, it->second, iteration);
    model_->note_copy(loc, meta_of(v));
  } else {
    ++stats_.updates_stale_dropped;
    if (obs_ != nullptr) {
      obs_->tracer().instant(task_.id(), "dsm.update.stale", task_.now(),
                             "loc", loc, "iter", iteration);
    }
  }
  // The superseded copy, or the stale arrival.
  packets_.release(std::move(msg.payload));
}

std::uint64_t SharedSpace::peek_stamp(rt::Packet& payload) const {
  if (!stamp_updates_) return 0;
  std::uint64_t stamp = 0;
  try {
    (void)payload.unpack_i32();
    (void)payload.unpack_i64();
    payload.skip_packet();
    stamp = payload.unpack_u64();
  } catch (const std::out_of_range&) {
    // A garbled frame sorts first (stamp 0) and is quarantined when the
    // flush actually applies it.
  }
  payload.rewind();
  return stamp;
}

void SharedSpace::flush_parked() {
  if (parked_.empty()) return;
  // Publish the release log in (writer, release-stamp) order so each
  // writer's updates become visible in the order they were released,
  // whatever the wire interleaved.  The arrival index makes the order
  // total, so std::sort (which, unlike std::stable_sort, needs no
  // temporary buffer) keeps arrival order among equal keys.
  std::sort(parked_.begin(), parked_.end(),
            [](const ParkedUpdate& a, const ParkedUpdate& b) {
              if (a.msg.src != b.msg.src) return a.msg.src < b.msg.src;
              if (a.stamp != b.stamp) return a.stamp < b.stamp;
              return a.arrival < b.arrival;
            });
  // Swap out first: an apply below may re-enter (observer hooks), and a
  // fresh arrival mid-flush applies directly (acquiring_ is set).
  std::vector<ParkedUpdate> batch;
  batch.swap(parked_);
  stats_.updates_flushed += batch.size();
  for (ParkedUpdate& p : batch) apply_update(p.msg);
  // Nothing parks mid-flush, so the log takes its capacity back.
  batch.clear();
  if (parked_.empty()) parked_.swap(batch);
}

void SharedSpace::mark_diverged(Location& l, Iteration need) {
  if (l.owed.has_value()) {
    l.owed = std::max(*l.owed, need);
  } else {
    l.owed = need;
    ++stats_.diverged_marks;
  }
}

void SharedSpace::maybe_reconcile(LocationId loc, Location& l,
                                  Iteration iteration) {
  if (!l.owed.has_value() || iteration < *l.owed) return;
  l.owed.reset();
  ++stats_.reconciled_marks;
  if (obs_ != nullptr) {
    obs_->tracer().instant(task_.id(), "dsm.partition.reconcile", task_.now(),
                           "loc", loc, "iter", iteration);
  }
}

void SharedSpace::heal_republish() {
  // Engine context, at a partition-window end: push every valid written
  // location to all its readers over the reliable channel.  Readers apply
  // with the normal newest-wins rule, so copies that diverged behind the
  // cut catch up without waiting for the writer's next organic write.
  // Daemon-style posts: no CPU charge, no flow arrows.
  std::int64_t written = 0;
  for (const auto& [loc, l] : locations_) {
    if (l.writer >= 0) continue;
    ++written;
    const Value& mine = l.value;
    if (!mine.valid) continue;
    for (const Reader& r : l.readers) {
      if (r.id == task_.id()) continue;
      send_update(loc, r.id, l.frame, /*charge_cpu=*/false,
                  rt::Reliability::kReliable);
      ++stats_.heal_frames;
    }
  }
  if (obs_ != nullptr) {
    obs_->tracer().instant(task_.id(), "dsm.partition.heal", task_.now(),
                           "locations", written);
  }
}

void SharedSpace::serve_request(rt::Packet& payload, int from) {
  LocationId loc = 0;
  Iteration need = 0;
  try {
    loc = payload.unpack_i32();
    need = payload.unpack_i64();
  } catch (const std::out_of_range&) {
    // A demand that cannot be decoded is dropped; the starved reader's
    // escalation watchdog re-demands on its own timer.
    ++stats_.integrity_dropped;
    return;
  }
  ++stats_.hints_received;
  if (obs_ != nullptr) {
    obs_->tracer().instant(task_.id(), "dsm.request.serve", task_.now(),
                           "loc", loc, "from", from);
  }
  const auto it = locations_.find(loc);
  // Stale request for a location we do not write.
  if (it == locations_.end() || it->second.writer >= 0) return;
  const Value& mine = it->second.value;
  if (mine.valid && mine.iteration >= need) {
    // Demand-driven resend of the current copy (the normal write path will
    // cover the demand otherwise, since writes propagate to every reader).
    // Served in engine context (the tag handler fires at delivery), so the
    // reply is posted daemon-style — no CPU charge, no window — and rides
    // the reliable channel: a demanded value is load-bearing by definition.
    // The resend is a fresh causal flow: its arrow starts at the serve, not
    // at the (possibly long-past) original write.
    const std::uint64_t flow =
        flows_on() ? begin_flow(loc, mine.iteration) : 0;
    send_update(loc, from, it->second.frame, /*charge_cpu=*/false,
                rt::Reliability::kReliable, flow);
    ++stats_.request_replies;
  }
}

void SharedSpace::send_demand(LocationId loc, int writer, Iteration need) {
  // Actively demand a fresh-enough copy from the writer (also a hint that
  // this reader is running behind the producer).  Demands are control
  // traffic and ride the reliable channel when the machine has one.
  if (writer < 0) return;  // Our own location: nobody else can serve it.
  rt::Packet req = packets_.acquire();
  req.pack_i32(loc);
  req.pack_i64(need);
  if (obs_ != nullptr) {
    obs_->tracer().instant(task_.id(), "dsm.request", task_.now(), "loc", loc,
                           "need", need);
  }
  task_.send_observed(writer, rt::kDsmRequestTag, std::move(req),
                      {}, rt::Reliability::kReliable);
  ++stats_.requests_sent;
}

void SharedSpace::poll() {
  while (auto msg = task_.try_recv(rt::kDsmUpdateTag)) {
    apply_update(*msg);
  }
}

void SharedSpace::record_staleness(Iteration curr_iter, Iteration served) {
  // A copy fresher than the one asked for is zero iterations stale.
  const auto staleness =
      static_cast<double>(std::max<Iteration>(0, curr_iter - served));
  staleness_mine_->observe(staleness);
  staleness_hist_->observe(staleness);
}

const SharedSpace::Value& SharedSpace::read(LocationId loc,
                                            std::optional<Iteration> curr_iter) {
  // Every read entry is an acquire point under a parking model: the
  // release log publishes before the freshest copy is chosen.  poll() on
  // its own is NOT an acquire — it only drains the mailbox into the log.
  AcquireScope acquire(park_updates_, acquiring_);
  if (park_updates_) flush_parked();
  poll();
  auto it = locations_.find(loc);
  if (it == locations_.end()) {
    throw std::logic_error("SharedSpace: read of an undeclared location");
  }
  Value& v = it->second.value;
  if (curr_iter.has_value() && v.valid) record_staleness(*curr_iter, v.iteration);
  if (san_ != nullptr) {
    // Plain reads declare no age bound (-1): the audit checks the location's
    // tolerance contract (an age-0-intolerant location read this way is a
    // violation) and the shadow checksum, but no staleness arithmetic.
    san_->audit_read(task_.id(), loc, v.iteration, /*declared_age=*/-1,
                     v.valid, v.degraded, v.iteration,
                     v.valid ? v.data.crc32() : 0, task_.now());
  }
  v.data.rewind();
  return v;
}

const SharedSpace::Value& SharedSpace::global_read(LocationId loc,
                                                   Iteration curr_iter,
                                                   Iteration age) {
  auto it = locations_.find(loc);
  if (it == locations_.end()) {
    throw std::logic_error("SharedSpace: global_read of an undeclared location");
  }
  ++stats_.global_reads;
  const Iteration need = curr_iter - age;
  Location& l = it->second;
  Value& v = l.value;
  const bool was_fresh = v.valid && v.iteration >= need;
  // Global_Read is THE acquire point: a parking model's release log
  // publishes here (and a blocked wait below keeps applying arrivals
  // directly — the acquire is in progress).
  AcquireScope acquire(park_updates_, acquiring_);
  if (park_updates_) flush_parked();
  poll();

  if (!model_->admit(loc, curr_iter, age, meta_of(v))) {
    ++stats_.global_read_blocks;
    if (read_blocked_ != nullptr) read_blocked_->inc();
    bool escalated = false;
    bool degraded_here = false;
    if (policy_.read_impl == GlobalReadImpl::kRequest) {
      send_demand(loc, l.writer, need);
    }
    const sim::Time blocked_from = task_.now();
    if (obs_ != nullptr) blocked_readers_->add(1.0);
    // Wait for DSM updates (to any location we read); each arrival may
    // freshen our copy.  This is the paper's "just wait until the required
    // update arrives" implementation.  A never-written location blocks
    // until its first value arrives, whatever the age bound.
    //
    // Starvation watchdog: with a read_timeout budget, a wait that outlives
    // it (e.g. the satisfying update was dropped by a lossy network)
    // escalates to an explicit demand — the kRequest impl on demand — then
    // waits again with a doubled budget.
    // As long as the writer keeps iterating (or can serve the demand), the
    // read terminates with probability 1 at any loss rate < 1.
    //
    // Membership-aware wait: on a machine with a membership view, the wait
    // is subdivided into kLivenessPoll quanta so a writer declared dead
    // unblocks the reader with the freshest local copy, flagged degraded.
    const bool quorum_gated =
        membership_ != nullptr && membership_->partitioned();
    sim::Time no_quorum_since = 0;  // 0 = currently in quorum.
    sim::Time budget = policy_.read_timeout;
    sim::Time remaining = budget;
    while (!model_->admit(loc, curr_iter, age, meta_of(v))) {
      if (membership_ != nullptr && l.writer >= 0 &&
          !membership_->alive(task_.id(), l.writer)) {
        v.degraded = true;
        degraded_here = true;
        ++stats_.degraded_reads;
        if (tracks_divergence() && v.valid) mark_diverged(l, need);
        if (obs_ != nullptr) {
          obs_->tracer().instant(task_.id(), "dsm.read.degraded", task_.now(),
                                 "loc", loc, "need", need);
        }
        break;
      }
      // Minority-side divergence bound: out of quorum the writer is only
      // *suspected* (never declared dead), so the check above passes and
      // the read would otherwise block to the horizon.  After one
      // kLivenessPoll of continuous quorum loss, serve the freshest valid
      // copy stale instead — bounded divergence rather than stalling the
      // whole minority island.
      if (quorum_gated && v.valid && !membership_->in_quorum(task_.id())) {
        if (no_quorum_since == 0) {
          no_quorum_since = task_.now();
        } else if (task_.now() - no_quorum_since >= kLivenessPoll) {
          v.degraded = true;
          degraded_here = true;
          ++stats_.partition_stale_served;
          mark_diverged(l, need);
          if (obs_ != nullptr) {
            obs_->tracer().instant(task_.id(), "dsm.read.stale_served",
                                   task_.now(), "loc", loc, "need", need);
          }
          break;
        }
      } else {
        no_quorum_since = 0;
      }
      sim::Time quantum = remaining;
      if (membership_ != nullptr && !quorum_gated &&
          !membership_->detecting()) {
        quantum = 0;  // Wedged: wait with no timer so the queue can drain.
      } else if (membership_ != nullptr) {
        quantum = quantum > 0 ? std::min(quantum, kLivenessPoll)
                              : kLivenessPoll;
      }
      if (quantum <= 0) {
        rt::Message msg = task_.recv(rt::kDsmUpdateTag);
        apply_update(msg);
        continue;
      }
      auto msg = task_.recv_timeout(rt::kDsmUpdateTag, quantum);
      if (msg) {
        apply_update(*msg);
        continue;
      }
      if (budget <= 0) continue;  // Liveness poll only, no watchdog armed.
      remaining -= quantum;
      if (remaining > 0) continue;
      ++stats_.read_escalations;
      escalated = true;
      if (obs_ != nullptr) {
        obs_->tracer().instant(task_.id(), "dsm.read.escalate", task_.now(),
                               "loc", loc, "need", need);
      }
      send_demand(loc, l.writer, need);
      budget = next_backoff(budget);
      remaining = budget;
    }
    stats_.global_read_block_time += task_.now() - blocked_from;
    if (obs_ != nullptr) {
      blocked_readers_->add(-1.0);
      obs_->tracer().complete(task_.id(), "Global_Read", blocked_from,
                              task_.now() - blocked_from, "loc", loc, "need",
                              need);
      read_block_ns_->observe(
          static_cast<double>(task_.now() - blocked_from));
      if (escalated) read_escalated_->inc();
      if (degraded_here) read_degraded_->inc();
    }
  } else if (!was_fresh && read_queued_ != nullptr) {
    // Served without blocking, but only because poll() drained an update
    // already queued in the mailbox — the "queued" slice of read latency.
    read_queued_->inc();
  }
  if (v.valid && v.iteration >= need) v.degraded = false;
  record_staleness(curr_iter, v.iteration);
  if (v.flow != 0 && obs_ != nullptr) {
    // Terminate the causal arrow at the consuming read: bind-enclosing 'f'
    // on this task's track, carrying the read's observed age so the trace
    // can be cross-checked against the DSM's own staleness accounting.
    // One read consumes the arrow; later re-reads of the same copy add no
    // flow events.
    obs_->tracer().flow_end(task_.id(), "dsm.flow", task_.now(), v.flow,
                            "age", curr_iter - v.iteration, "iter",
                            v.iteration);
    v.flow = 0;
  }
  if (san_ != nullptr) {
    san_->audit_read(task_.id(), loc, curr_iter, age, v.valid, v.degraded,
                     v.iteration, v.valid ? v.data.crc32() : 0, task_.now());
  }
  v.data.rewind();
  return v;
}

Iteration SharedSpace::local_iteration(LocationId loc) const {
  const auto it = locations_.find(loc);
  return it == locations_.end() ? -1 : it->second.value.iteration;
}

}  // namespace nscc::dsm
