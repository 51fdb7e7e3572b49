// Cooperative fibers (ucontext-based) for process-oriented simulation.
//
// Each simulated processor runs as a fiber so the event engine can suspend
// it at blocking points (message receive, Global_Read, barrier) and resume
// it at a later virtual time, with a context switch two orders of magnitude
// cheaper than an OS thread handoff.  Exactly one fiber runs at a time,
// which also makes every simulation single-threaded and deterministic.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>

namespace nscc::sim {

/// Thrown inside a fiber to unwind its stack when the engine is destroyed
/// before the fiber body has finished.  Fiber bodies must let it propagate.
struct FiberKilled {};

class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 512 * 1024;

  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control from the caller (the engine) into the fiber.  Returns
  /// when the fiber calls yield() or its body finishes.
  void resume();

  /// Transfer control from inside the fiber back to the engine.  Must only
  /// be called from within the fiber body.  Throws FiberKilled if the fiber
  /// is being torn down.
  void yield();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Resume the fiber one last time with the kill flag set, so its stack
  /// unwinds via FiberKilled.  No-op when already finished.
  void kill();

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void run_body();

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  /// The resuming (engine) stack, as AddressSanitizer reported it on the
  /// last switch in; unused in builds without ASan.
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool killing_ = false;
};

}  // namespace nscc::sim
