#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

namespace nscc::sim {

Process::Process(Engine& engine, int id, std::string name,
                 std::function<void()> body, std::size_t stack_bytes)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      fiber_(std::move(body), stack_bytes) {}

Time Process::now() const noexcept { return engine_.now(); }

void Process::delay(Time dt) {
  assert(engine_.current() == this && "delay() called from outside the process");
  assert(dt >= 0);
  if (obs::Tracer* tr = engine_.tracer(); tr != nullptr && tr->enabled()) {
    tr->complete(id_, "compute", engine_.now(), dt);
  }
  state_ = State::kBlocked;
  resume_scheduled_ = true;
  Process* self = this;
  engine_.schedule(engine_.now() + dt, obs::EventKind::kProcess,
                   [self] { self->engine_.run_process(*self); });
  fiber_.yield();
}

void Process::suspend() {
  assert(engine_.current() == this &&
         "suspend() called from outside the process");
  state_ = State::kBlocked;
  resume_scheduled_ = false;
  fiber_.yield();
}

void Process::resume_at(Time t) {
  assert(engine_.current() != this && "a running process cannot resume itself");
  assert(state_ == State::kBlocked && "resume of a non-blocked process");
  assert(!resume_scheduled_ && "process already has a pending resume");
  assert(t >= engine_.now());
  resume_scheduled_ = true;
  Process* self = this;
  engine_.schedule(t, obs::EventKind::kProcess,
                   [self] { self->engine_.run_process(*self); });
}

Engine::~Engine() {
  // Fibers are killed (stacks unwound) by Process destruction; make sure no
  // process believes it is still the running one.
  current_ = nullptr;
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body,
                       Time start, std::size_t stack_bytes) {
  const int id = static_cast<int>(processes_.size());
  // The fiber body needs the Process*, which does not exist yet; capture via
  // a shared slot filled right after construction.
  auto slot = std::make_shared<Process*>(nullptr);
  auto fiber_body = [slot, fn = std::move(body)] { fn(**slot); };
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, id, std::move(name), std::move(fiber_body),
                  stack_bytes)));
  Process& p = *processes_.back();
  *slot = &p;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->set_track_name(id, p.name());
    tracer_->instant(obs::kEngineTrack, "spawn", now_, "pid", id);
  }
  p.resume_scheduled_ = true;
  schedule(start, obs::EventKind::kProcess, [this, &p] { run_process(p); });
  return p;
}

namespace {

/// Heap order: the earliest (time, seq) sits at the front.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

std::uint32_t Engine::acquire_slot(obs::EventKind kind) {
  if (free_slot_ == kNoSlot) {
    // Grow by one chunk and thread its slots onto the free list.  Existing
    // chunks stay where they are, so a running callback is never moved.
    const auto base = static_cast<std::uint32_t>(chunks_.size()) << kChunkBits;
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    Slot* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
      chunk[i].next_free = i + 1 < kChunkSlots ? base + i + 1 : kNoSlot;
    }
    free_slot_ = base;
  }
  const std::uint32_t slot = free_slot_;
  Slot& s = slot_at(slot);
  free_slot_ = s.next_free;
  s.kind = kind;
  s.armed = true;
  return slot;
}

void Engine::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slot_at(slot);
  s.fn.reset();
  s.armed = false;
  s.gen = s.gen == ~0U ? 1 : s.gen + 1;
  s.next_free = free_slot_;
  free_slot_ = slot;
}

void Engine::push_key(Time t, std::uint32_t slot) {
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  queue_drained_ = false;
  if (profiler_ != nullptr) {
    profiler_->note_queue_depth(heap_.size());
  }
}

bool Engine::cancel_watchdog(WatchdogId id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= (chunks_.size() << kChunkBits)) return false;
  Slot& s = slot_at(slot);
  if (s.gen != gen || !s.armed) return false;
  // The key stays in the heap until its time; only the callback goes now.
  s.armed = false;
  s.fn.reset();
  return true;
}

std::string Engine::blocked_report() const {
  static constexpr const char* kStateNames[] = {"ready", "running", "blocked",
                                                "finished"};
  std::ostringstream os;
  os << "engine: t=" << now_ << "ns events=" << events_executed_
     << (queue_drained_ ? " queue=drained" : " queue=pending")
     << " live=" << live_processes() << "\n";
  for (const auto& p : processes_) {
    if (p->finished()) continue;
    os << "  process " << p->id() << " '" << p->name() << "' state="
       << kStateNames[static_cast<int>(p->state())]
       << (p->resume_scheduled_ ? " (resume pending)" : " (no pending resume)")
       << "\n";
  }
  return os.str();
}

void Engine::run_process(Process& p) {
  assert(current_ == nullptr && "nested process execution");
  if (p.state_ == Process::State::kFinished) return;
  p.resume_scheduled_ = false;
  p.state_ = Process::State::kRunning;
  current_ = &p;
  p.fiber_.resume();
  current_ = nullptr;
  if (p.fiber_.finished()) {
    p.state_ = Process::State::kFinished;
  }
}

void Engine::kill(Process& p) {
  assert(current_ != &p && "a process cannot kill itself");
  if (p.finished()) return;
  // The fiber unwinds on p's stack; make p the current process so any code
  // running in destructors sees consistent engine state.
  Process* saved = current_;
  current_ = &p;
  p.fiber_.kill();
  current_ = saved;
  p.state_ = Process::State::kFinished;
  p.resume_scheduled_ = false;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(obs::kEngineTrack, "kill", now_, "pid", p.id());
  }
}

Process& Engine::respawn(Process& dead, std::function<void(Process&)> body,
                         Time start) {
  assert(dead.finished() && "respawn of a process that is still alive");
  return spawn(dead.name(), std::move(body), start);
}

Time Engine::run(Time until, const std::function<bool()>& stop_when) {
  while (!heap_.empty()) {
    const Key top = heap_.front();
    if (top.time > until) {
      now_ = until;
      return now_;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (sampler_ != nullptr) {
      while (next_sample_at_ <= top.time) {
        now_ = next_sample_at_;
        sampler_->sample_now(next_sample_at_);
        next_sample_at_ += sampler_interval_;
      }
    }
    now_ = top.time;
    ++events_executed_;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete(obs::kEngineTrack, "dispatch", now_, 0, "seq",
                        static_cast<std::int64_t>(top.seq));
    }
    // The slot's chunk never moves, so the callback runs in place even if
    // it grows the slab; the slot is recycled only after it returns.
    Slot& s = slot_at(top.slot);
    const bool armed = s.armed;
    s.armed = false;
    if (profiler_ != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      if (armed) s.fn();
      const auto t1 = std::chrono::steady_clock::now();
      profiler_->record(
          s.kind,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
    } else if (armed) {
      s.fn();
    }
    release_slot(top.slot);
    if (stop_when && stop_when()) return now_;
  }
  queue_drained_ = true;
  if (live_processes() > 0 && !deadlock_reported_) {
    // Every runnable fiber is blocked and no timers are pending: nothing can
    // ever wake anyone again.  Fail loudly instead of letting the caller
    // spin to its horizon or a test harness hit its TIMEOUT.
    deadlock_reported_ = true;
    std::fprintf(stderr,
                 "sim: DEADLOCK — event queue drained with %zu blocked "
                 "process(es)\n%s",
                 live_processes(), blocked_report().c_str());
  }
  return now_;
}

std::size_t Engine::live_processes() const noexcept {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) ++n;
  }
  return n;
}

bool Engine::deadlocked() const noexcept {
  return queue_drained_ && live_processes() > 0;
}

}  // namespace nscc::sim
