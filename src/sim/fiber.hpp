// Cooperative fibers for process-oriented simulation.
//
// Each simulated processor runs as a fiber so the event engine can suspend
// it at blocking points (message receive, Global_Read, barrier) and resume
// it at a later virtual time.  Exactly one fiber runs at a time, which also
// makes every simulation deterministic; only pure compute kernels leave the
// engine thread (see host_pool.hpp).
//
// The context switch is register-only: a few lines of x86-64 SysV assembly
// in fiber.cpp (nscc_sim_fiber_switch, the one routine to port to another
// ISA) push the callee-saved registers, the MXCSR and the x87 control word
// on the old stack and pop them from the new one.  It makes no system call
// and leaves the signal mask alone.  Each fiber runs on its own mmap'd
// stack with a PROT_NONE guard page below it, so an overflow faults instead
// of corrupting the heap.
#pragma once

#include <cstddef>
#include <functional>

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
  /// At least `bytes` of stack, rounded up to whole pages, mapped with an
  /// inaccessible guard page just below its lowest address.
  class GuardedStack {
   public:
    explicit GuardedStack(std::size_t bytes);
    ~GuardedStack();

    GuardedStack(const GuardedStack&) = delete;
    GuardedStack& operator=(const GuardedStack&) = delete;

    /// Lowest usable address; the stack grows down from bottom() + size().
    [[nodiscard]] char* bottom() const noexcept { return mapping_ + guard_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    std::size_t guard_;
    std::size_t size_;
    char* mapping_;
  };

  [[noreturn]] static void entry(Fiber* self) noexcept;

  std::function<void()> body_;
  GuardedStack stack_;
  /// Saved stack pointers: the fiber's while it is suspended, the
  /// resumer's while the fiber runs.
  void* sp_ = nullptr;
  void* return_sp_ = nullptr;
  /// The resuming (engine) stack, as AddressSanitizer reported it on the
  /// last switch in; unused in builds without ASan.
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  /// ThreadSanitizer contexts of this fiber and of its resumer; unused in
  /// builds without TSan.
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
  bool started_ = false;
  bool finished_ = false;
  bool killing_ = false;
};

}  // namespace nscc::sim
