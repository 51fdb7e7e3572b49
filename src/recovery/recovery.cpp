#include "recovery/recovery.hpp"

#include <algorithm>
#include <cassert>

#include "rt/vm.hpp"

namespace nscc::recovery {

namespace {

/// `vm`'s machine-wide counter `name`.
obs::Counter& counter(rt::VirtualMachine& vm, const char* name) {
  return vm.obs().registry().counter(name);
}

}  // namespace

const char* policy_name(Policy p) noexcept {
  switch (p) {
    case Policy::kNone:
      return "none";
    case Policy::kDegraded:
      return "degraded";
    case Policy::kRejoin:
      return "rejoin";
  }
  return "?";
}

std::optional<Policy> policy_from_name(const std::string& name) {
  if (name == "none") return Policy::kNone;
  if (name == "degraded") return Policy::kDegraded;
  if (name == "rejoin") return Policy::kRejoin;
  return std::nullopt;
}

Coordinator::Coordinator(rt::VirtualMachine& vm, Config cfg)
    : vm_(vm),
      cfg_(cfg),
      checkpoints_taken_(counter(vm, "recovery.checkpoints_taken")),
      checkpoint_bytes_(counter(vm, "recovery.checkpoint_bytes")),
      restores_(counter(vm, "recovery.restores")),
      cold_restarts_(counter(vm, "recovery.cold_restarts")),
      rejoins_(counter(vm, "recovery.rejoins")),
      suspected_(counter(vm, "recovery.suspected")),
      split_brain_declarations_(
          counter(vm, "recovery.split_brain_declarations")),
      detection_latency_ns_(counter(vm, "recovery.detection_latency_ns")),
      recovery_latency_ns_(counter(vm, "recovery.recovery_latency_ns")),
      checkpoint_cost_ns_(counter(vm, "recovery.checkpoint_cost_ns")),
      lost_iterations_(counter(vm, "recovery.lost_iterations")) {
  if (cfg_.quorum_fraction > 0.0) {
    quorum_parks_ = &counter(vm, "recovery.quorum_parks");
    if (cfg_.policy == Policy::kRejoin) {
      deferred_rejoins_ = &counter(vm, "recovery.deferred_rejoins");
    }
  }
  vm_.add_start_hook([this] { on_start(); });
  vm_.set_membership(this);
}

void Coordinator::on_start() {
  const int n = vm_.size();
  const sim::Time now = vm_.engine().now();
  epochs_.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    compute_time_.push_back(
        &vm_.obs().registry().counter("rt.compute_time_ns", i));
  }
  counted_crash_.assign(static_cast<std::size_t>(n), 0);
  views_.assign(static_cast<std::size_t>(n),
                std::vector<PeerView>(static_cast<std::size_t>(n),
                                      PeerView{now, PeerState::kAlive,
                                               false}));
  for (int i = 0; i < n; ++i) {
    vm_.task(i).set_tag_handler(
        rt::kHeartbeatTag, [this, i](rt::Message m) { on_heartbeat(i, m); });
  }
  // Under kRejoin, respawns mirror the VM's own kill schedule.
  if (cfg_.policy == Policy::kRejoin) {
    for (const auto& [node, windows] : vm_.config().fault.crashes) {
      if (node < 0 || node >= n) continue;
      for (const fault::Window& w : windows) {
        vm_.engine().schedule(w.end, [this, node, w] {
          schedule_respawn(node, w.start);
        });
      }
    }
  }
  if (n > 1) {
    tick_scheduled_ = true;
    vm_.engine().schedule(now + kHeartbeatInterval, [this] { tick(); });
  }
}

void Coordinator::schedule_respawn(int node, sim::Time crash_start) {
  if (vm_.task_alive(node)) return;
  const int n = vm_.size();
  const sim::Time now = vm_.engine().now();
  // A victim may not rejoin into a minority island: it would restore a
  // stale checkpoint and double-write against the majority's epoch.  Wait
  // (re-checking every heartbeat interval) until the scheduled topology
  // lets it reach a quorum of its peers again.
  if (cfg_.quorum_fraction > 0.0) {
    int reachable = 1;  // Self.
    for (int j = 0; j < n; ++j) {
      if (j != node && vm_.config().fault.reachable(node, j, now)) {
        ++reachable;
      }
    }
    if (reachable < quorum_size()) {
      deferred_rejoins_->inc();
      vm_.engine().schedule(now + kHeartbeatInterval,
                            [this, node, crash_start] {
                              schedule_respawn(node, crash_start);
                            });
      return;
    }
  }
  vm_.respawn_task(node);
  rejoins_.inc();
  recovery_latency_ns_.inc(static_cast<std::uint64_t>(now - crash_start));
  // Grace period: the detector must not re-suspect the node before its
  // first post-rejoin heartbeat lands.
  for (int i = 0; i < n; ++i) {
    PeerView& v = views_[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(node)];
    v.last_seen = now;
    v.state = PeerState::kAlive;
    v.parked = false;
  }
}

std::uint64_t Coordinator::compute_fingerprint() const {
  std::uint64_t fp = 0;
  for (const obs::Counter* c : compute_time_) fp += c->value();
  return fp;
}

bool Coordinator::detecting() const {
  // After the detector gave up, the run can still move if a scheduled
  // fault window has yet to end (a crashed node's respawn, a healed
  // partition) or if some task has computed since.
  return !gave_up_ ||
         vm_.engine().now() < vm_.config().fault.last_window_end() ||
         compute_fingerprint() != last_fingerprint_;
}

std::optional<rt::Message> Coordinator::receive(rt::Task& task,
                                                int tag) const {
  if (!detecting()) return task.recv(tag);
  return task.recv_timeout(tag, kHeartbeatInterval);
}

void Coordinator::tick() {
  tick_scheduled_ = false;
  const int n = vm_.size();
  const sim::Time now = vm_.engine().now();

  // Progress fingerprint: total virtual compute across all tasks.  The
  // heartbeat machinery itself charges no compute, so a frozen fingerprint
  // means every fiber is blocked; after kStallTicksLimit of those the
  // detector stops rescheduling itself, the event queue can drain, and the
  // engine diagnoses the deadlock instead of heartbeating to the horizon.
  // Ticks before the last scheduled fault window ends do not count: a
  // crash window can outlast the limit with every survivor blocked on the
  // victim, and the detector must still be running when a later crash
  // comes.
  bool any_alive = false;
  for (int i = 0; i < n; ++i) any_alive = any_alive || vm_.task_alive(i);
  if (!any_alive) return;
  const std::uint64_t fp = compute_fingerprint();
  if (fp != last_fingerprint_ ||
      now < vm_.config().fault.last_window_end()) {
    stall_ticks_ = 0;
    last_fingerprint_ = fp;
  } else if (++stall_ticks_ >= kStallTicksLimit) {
    gave_up_ = true;
    return;
  }

  for (int i = 0; i < n; ++i) {
    if (!vm_.task_alive(i)) continue;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      rt::Packet hb;
      hb.pack_u64(vm_.task(i).epoch());
      vm_.post(i, j, rt::kHeartbeatTag, std::move(hb), {},
               rt::Reliability::kReliable);
    }
  }

  judge_peers(now);

  tick_scheduled_ = true;
  vm_.engine().schedule(now + kHeartbeatInterval, [this] { tick(); });
}

void Coordinator::judge_peers(sim::Time now) {
  const int n = vm_.size();
  for (int i = 0; i < n; ++i) {
    if (!vm_.task_alive(i)) continue;  // A dead observer judges nobody.
    const bool quorum = in_quorum(i);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      PeerView& v = views_[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
      if (v.state == PeerState::kDead) continue;
      if (now - v.last_seen <= kSuspectLimit) continue;
      // Silence alone does not prove the process ended: a partition or
      // blackhole silences live fibers too.  The evidence gate accepts
      // either a crash window on record or a scheduled cut between
      // observer and peer; bare silence with neither is normal completion
      // and goes dead without stats.
      const sim::Time crashed = crash_start_before(j, now);
      const bool cut = !vm_.config().fault.reachable(i, j, now);
      if (crashed == 0 && !cut) {
        v.state = PeerState::kDead;
        continue;
      }
      // Without a quorum gate the evidence is enough: declare at once.
      // Under the gate a silent peer is first suspected, and kSuspect →
      // kDead only while the observer holds a quorum; a minority-side
      // observer parks here and keeps degrading instead of declaring (and
      // possibly double-writing against) the other side.
      if (v.state == PeerState::kAlive && cfg_.quorum_fraction > 0.0) {
        v.state = PeerState::kSuspect;
        vm_.obs().tracer().instant(i, "recovery.suspect_peer", now, "peer",
                                   static_cast<std::int64_t>(j));
        continue;
      }
      if (quorum) {
        declare_dead(i, j, now);
      } else if (!v.parked) {
        v.parked = true;
        quorum_parks_->inc();
        vm_.obs().tracer().instant(i, "recovery.quorum_park", now, "peer",
                                   static_cast<std::int64_t>(j));
      }
    }
  }
}

void Coordinator::declare_dead(int observer, int node, sim::Time now) {
  PeerView& v = views_[static_cast<std::size_t>(observer)]
                      [static_cast<std::size_t>(node)];
  v.state = PeerState::kDead;
  v.parked = false;
  suspected_.inc();
  // Mutual dead declaration: the peer being declared had already declared
  // the observer dead — the membership has split-brained.  A majority
  // quorum (fraction > 0.5) makes this impossible: at most one side of a
  // split can hold it, and the other parks.
  if (views_[static_cast<std::size_t>(node)]
            [static_cast<std::size_t>(observer)]
                .state == PeerState::kDead) {
    split_brain_declarations_.inc();
    vm_.obs().tracer().instant(observer, "recovery.split_brain", now, "peer",
                               static_cast<std::int64_t>(node));
  }
  // Detection latency is a property of the dead node, not of who noticed:
  // count each crash window once, at its first declaration.
  const sim::Time crashed = crash_start_before(node, now);
  sim::Time& counted = counted_crash_[static_cast<std::size_t>(node)];
  if (crashed > 0 && counted != crashed) {
    counted = crashed;
    detection_latency_ns_.inc(static_cast<std::uint64_t>(now - crashed));
  }
  vm_.obs().tracer().instant(observer, "recovery.declare_dead", now, "peer",
                             static_cast<std::int64_t>(node));
}

void Coordinator::on_heartbeat(int observer, const rt::Message& msg) {
  const auto src = static_cast<std::size_t>(msg.src);
  const sim::Time now = vm_.engine().now();
  epochs_[src] = std::max(epochs_[src], msg.epoch);
  PeerView& v = views_[static_cast<std::size_t>(observer)][src];
  v.last_seen = std::max(v.last_seen, now);
  v.parked = false;
  if (v.state != PeerState::kAlive) {
    if (v.state == PeerState::kDead) {
      vm_.obs().tracer().instant(msg.src, "recovery.rejoin_seen", now,
                                 "observer",
                                 static_cast<std::int64_t>(observer));
    }
    v.state = PeerState::kAlive;
  }
}

void Coordinator::on_link_failure(int src, int dst) {
  const int n = vm_.size();
  if (src < 0 || dst < 0 || src >= n || dst >= n || src == dst) return;
  if (views_.empty()) return;
  // The sender exhausted its retransmit budget on this peer: treat that as
  // a missed-heartbeat-class signal and suspect, never declare — declaring
  // stays with the detector tick (and its quorum gate).
  PeerView& v = views_[static_cast<std::size_t>(src)]
                      [static_cast<std::size_t>(dst)];
  if (v.state == PeerState::kAlive) {
    v.state = PeerState::kSuspect;
    vm_.obs().tracer().instant(src, "recovery.suspect_peer",
                               vm_.engine().now(), "peer",
                               static_cast<std::int64_t>(dst));
  }
}

int Coordinator::quorum_size() const {
  const double want = cfg_.quorum_fraction * static_cast<double>(vm_.size());
  const auto q = static_cast<int>(want);
  return std::max(1, static_cast<double>(q) < want ? q + 1 : q);
}

sim::Time Coordinator::crash_start_before(int node, sim::Time now) const {
  const auto it = vm_.config().fault.crashes.find(node);
  if (it == vm_.config().fault.crashes.end()) return 0;
  sim::Time latest = 0;
  for (const fault::Window& w : it->second) {
    if (w.start <= now) latest = std::max(latest, w.start);
  }
  return latest;
}

std::int64_t Coordinator::restore(rt::Task& task, const FnCheckpoint& app) {
  if (task.epoch() == 0) return -1;  // Original incarnation: nothing to do.
  const auto it = checkpoints_.find(task.id());
  if (it == checkpoints_.end()) {
    cold_restarts_.inc();
    vm_.obs().tracer().instant(task.id(), "recovery.cold_restart", task.now());
    return -1;
  }
  const Checkpoint& ck = it->second;
  const auto cost = static_cast<sim::Time>(
      static_cast<double>(kCheckpointFixedCost) +
      kCheckpointCostPerByte *
          static_cast<double>(ck.state.byte_size()));
  task.compute(cost);
  rt::Packet state = ck.state;  // The stored snapshot stays pristine.
  state.rewind();
  app.restore_state(state);
  restores_.inc();
  if (const auto lp = last_progress_.find(task.id());
      lp != last_progress_.end() && lp->second > ck.iteration) {
    lost_iterations_.inc(static_cast<std::uint64_t>(lp->second - ck.iteration));
  }
  vm_.obs().tracer().instant(task.id(), "recovery.restore", task.now(),
                             "iteration", ck.iteration);
  return ck.iteration;
}

void Coordinator::note_progress(rt::Task& task, std::int64_t iteration) {
  last_progress_[task.id()] = iteration;
}

void Coordinator::maybe_checkpoint(rt::Task& task, std::int64_t iteration,
                                   const FnCheckpoint& app) {
  note_progress(task, iteration);
  if (cfg_.checkpoint_interval <= 0) return;
  sim::Time& next = next_checkpoint_at_[task.id()];
  if (task.now() < next) return;
  next = task.now() + cfg_.checkpoint_interval;
  Checkpoint ck;
  ck.iteration = iteration;
  ck.taken_at = task.now();
  ck.state = app.checkpoint_state();
  const auto bytes = static_cast<std::uint64_t>(ck.state.byte_size());
  const auto cost = static_cast<sim::Time>(
      static_cast<double>(kCheckpointFixedCost) +
      kCheckpointCostPerByte * static_cast<double>(bytes));
  checkpoints_taken_.inc();
  checkpoint_bytes_.inc(bytes);
  checkpoint_cost_ns_.inc(static_cast<std::uint64_t>(cost));
  checkpoints_[task.id()] = std::move(ck);
  vm_.obs().tracer().instant(task.id(), "recovery.checkpoint", task.now(),
                             "iteration", iteration, "bytes",
                             static_cast<std::int64_t>(bytes));
  task.compute(cost);
}

bool Coordinator::alive(int node) const {
  if (views_.empty()) return true;
  // Union view over the observers whose rows still change: the node's own
  // row never judges itself, and a dead or finished observer's row is
  // frozen where it stopped.
  for (int i = 0; i < vm_.size(); ++i) {
    if (i == node || !vm_.task_alive(i)) continue;
    if (views_[static_cast<std::size_t>(i)][static_cast<std::size_t>(node)]
            .state != PeerState::kDead) {
      return true;
    }
  }
  return false;
}

bool Coordinator::alive(int observer, int node) const {
  if (views_.empty() || observer == node) return true;
  return views_[static_cast<std::size_t>(observer)]
               [static_cast<std::size_t>(node)]
                   .state != PeerState::kDead;
}

bool Coordinator::in_quorum(int observer) const {
  if (cfg_.quorum_fraction <= 0.0 || views_.empty()) return true;
  const sim::Time now = vm_.engine().now();
  int heard = 1;  // Self.
  const auto& view = views_[static_cast<std::size_t>(observer)];
  for (int j = 0; j < vm_.size(); ++j) {
    if (j == observer) continue;
    if (now - view[static_cast<std::size_t>(j)].last_seen <= kSuspectLimit) {
      ++heard;
    }
  }
  return heard >= quorum_size();
}

std::uint64_t Coordinator::epoch(int node) const {
  return epochs_.empty() ? 0 : epochs_[static_cast<std::size_t>(node)];
}

}  // namespace nscc::recovery
