// Discrete-event simulation engine with process-oriented semantics.
//
// The engine owns a virtual clock and an event queue.  Simulated processors
// are Process objects, each backed by a Fiber; exactly one process runs at a
// time and every event execution is ordered by (time, sequence number), so a
// whole simulation is deterministic given its seeds.  Blocking and resuming
// a process is a register-only context switch on its guarded stack, with no
// system call (see fiber.hpp).
//
// Processes interact with virtual time through three verbs:
//   * delay(dt)   — charge dt of computation, then continue;
//   * suspend()   — block until some event calls resume();
//   * finishing the body — the process is done.
//
// The queue allocates nothing per event in steady state.  A binary heap of
// 24-byte (time, seq, slot) keys orders the events; each key names a slot
// in a recycled slab that holds the event's callback inline (see
// InlineFunction) plus its kind and a cancel flag.  Slab chunks never move,
// so a callback runs in place even when it schedules enough new events to
// grow the slab.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/fiber.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace nscc::sim {

class Engine;

class Process {
 public:
  enum class State { kReady, kRunning, kBlocked, kFinished };

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool finished() const noexcept {
    return state_ == State::kFinished;
  }

  /// Current virtual time (engine clock).  Valid from inside or outside.
  [[nodiscard]] Time now() const noexcept;

  /// Charge `dt` of virtual computation.  Must be called from inside the
  /// process.  dt must be >= 0.
  void delay(Time dt);

  /// Block until another event resumes this process.  Must be called from
  /// inside the process.
  void suspend();

  /// Make a blocked process runnable at virtual time `t` (>= now).  Must be
  /// called from engine context (an event handler or another process... any
  /// code outside this process).
  void resume_at(Time t);

  /// Resume at the current virtual time.
  void resume() { resume_at(now()); }

  Engine& engine() noexcept { return engine_; }

 private:
  friend class Engine;
  Process(Engine& engine, int id, std::string name,
          std::function<void()> body, std::size_t stack_bytes);

  Engine& engine_;
  int id_;
  std::string name_;
  State state_ = State::kReady;
  bool resume_scheduled_ = false;
  Fiber fiber_;
};

class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a process whose body starts executing at virtual time `start`.
  Process& spawn(std::string name, std::function<void(Process&)> body,
                 Time start = 0,
                 std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// An event callback: any `void()` callable whose captures fit in 64
  /// bytes is stored without a heap allocation.
  using Callback = InlineFunction<void(), 64>;

  /// Schedule a plain event callback at virtual time `t` (>= now).
  template <typename F>
  void schedule(Time t, F&& fn) {
    schedule(t, obs::EventKind::kGeneric, std::forward<F>(fn));
  }
  /// Kind-tagged form: the attached Profiler attributes the event's
  /// wall-clock dispatch cost to `kind` (network delivery, fiber resume,
  /// watchdog, ...).  Identical virtual-time semantics.
  template <typename F>
  void schedule(Time t, obs::EventKind kind, F&& fn) {
    (void)enqueue(t, kind, std::forward<F>(fn));
  }

  /// Watchdog-timer API: like schedule(), but cancelable.  A canceled
  /// watchdog's event still occupies the queue until `t` and then does
  /// nothing (so cancellation cannot unblock run()'s termination early, it
  /// only suppresses the callback, which is destroyed at cancel time).
  /// Used for receive timeouts, retransmit timers and the DSM starvation
  /// watchdog.  Ids are never 0, so 0 can mean "no timer".
  using WatchdogId = std::uint64_t;
  template <typename F>
  WatchdogId set_watchdog(Time t, F&& fn) {
    const std::uint32_t slot =
        enqueue(t, obs::EventKind::kWatchdog, std::forward<F>(fn));
    return (static_cast<WatchdogId>(slot_at(slot).gen) << 32) | slot;
  }
  /// Returns true when the watchdog had not fired yet (and now never will).
  bool cancel_watchdog(WatchdogId id) noexcept;

  /// Human-readable diagnostic of every unfinished process (name, id,
  /// state) plus queue/clock status — what you want printed when a run
  /// deadlocks.  Cheap enough to call unconditionally after run().
  [[nodiscard]] std::string blocked_report() const;

  /// Forcibly terminate a process: its fiber is resumed one last time with
  /// the kill flag set so the stack unwinds (destructors run), then the
  /// process is marked finished.  Pending resume events for it become
  /// no-ops.  Must be called from outside the victim (engine context or
  /// another process).  Models a node crash losing all volatile state.
  void kill(Process& p);

  /// Spawn a fresh process reusing a dead process's name (crash-restart).
  /// The new process has a new id; the caller re-wires any pointers held to
  /// the old Process.
  Process& respawn(Process& dead, std::function<void(Process&)> body,
                   Time start);

  /// Run until the event queue drains, the clock passes `until`, or
  /// `stop_when` (checked after every event) returns true.  Returns the
  /// final virtual time.
  Time run(Time until = std::numeric_limits<Time>::max(),
           const std::function<bool()>& stop_when = {});

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of spawned processes that have not finished.
  [[nodiscard]] std::size_t live_processes() const noexcept;

  /// True when run() drained the queue but live processes remain blocked —
  /// i.e. the simulation deadlocked (e.g. a Global_Read that can never be
  /// satisfied).
  [[nodiscard]] bool deadlocked() const noexcept;

  /// Total events executed (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  [[nodiscard]] Process* current() noexcept { return current_; }

  /// Attach an event tracer (nullptr detaches).  When attached and enabled,
  /// the engine records a zero-duration dispatch span per executed event on
  /// the engine track, names each spawned process's track, and processes
  /// record their delay() intervals as compute spans.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_; }

  /// Attach a metrics sampler: the run loop calls sampler->sample_now(t) at
  /// every multiple of `interval` the virtual clock crosses (before the
  /// first event at-or-after the boundary executes).  The sampler never
  /// injects events, so it cannot keep a drained queue alive.
  void set_sampler(obs::Sampler* sampler, Time interval) noexcept {
    sampler_ = sampler;
    sampler_interval_ = interval > 0 ? interval : 1;
    next_sample_at_ = now_ + sampler_interval_;
  }

  /// Attach a self-profiler (nullptr detaches).  When attached, the run
  /// loop times every dispatched event with the host's steady clock and
  /// attributes the cost to the event's kind, and schedule() tracks the
  /// queue's high-water mark.  Wall-clock readings never enter virtual
  /// time, so profiled runs stay byte-identical in simulated results.
  void set_profiler(obs::Profiler* profiler) noexcept { profiler_ = profiler; }
  [[nodiscard]] obs::Profiler* profiler() noexcept { return profiler_; }

 private:
  friend class Process;

  /// Heap entry.  `seq` is unique, so (time, seq) is a total order and
  /// equal-time events run in scheduling order.
  struct Key {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Slab entry: one pending event's callback.
  struct Slot {
    Callback fn;
    /// Bumped every time the slot is recycled (never 0), so a WatchdogId
    /// naming an earlier occupant no longer matches.
    std::uint32_t gen = 1;
    std::uint32_t next_free = 0;
    obs::EventKind kind = obs::EventKind::kGeneric;
    /// Cleared when the event dispatches or its watchdog is cancelled; a
    /// key whose slot is not armed at dispatch skips the callback.
    bool armed = false;
  };
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1U << kChunkBits;
  static constexpr std::uint32_t kNoSlot = ~0U;

  Slot& slot_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  std::uint32_t acquire_slot(obs::EventKind kind);
  void release_slot(std::uint32_t slot) noexcept;
  void push_key(Time t, std::uint32_t slot);
  /// Store `fn` in a fresh slot and queue its key; returns the slot.
  template <typename F>
  std::uint32_t enqueue(Time t, obs::EventKind kind, F&& fn) {
    assert(t >= now_ && "cannot schedule an event in the virtual past");
    const std::uint32_t slot = acquire_slot(kind);
    slot_at(slot).fn = std::forward<F>(fn);
    push_key(t, slot);
    return slot;
  }

  void run_process(Process& p);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_slot_ = kNoSlot;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
  bool queue_drained_ = false;
  bool deadlock_reported_ = false;
  obs::Tracer* tracer_ = nullptr;
  obs::Sampler* sampler_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  Time sampler_interval_ = 0;
  Time next_sample_at_ = 0;
};

}  // namespace nscc::sim
