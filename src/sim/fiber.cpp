#include "sim/fiber.hpp"

#include <cassert>
#include <cstdint>

// AddressSanitizer must be told about every stack switch.  Without it, an
// exception thrown on a fiber stack (FiberKilled, or an application error)
// makes ASan's no-return handler unpoison the wrong stack and report a
// bogus stack error.
#if defined(__SANITIZE_ADDRESS__)
#define NSCC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NSCC_ASAN_FIBERS 1
#endif
#endif
#ifdef NSCC_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace nscc::sim {

namespace {

/// Announce a switch to the stack [bottom, bottom + size).  `fake_stack`
/// saves the current stack's state; nullptr means the current stack is
/// finished for good.
void start_switch(void** fake_stack, const void* bottom, std::size_t size) {
#ifdef NSCC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#else
  (void)fake_stack;
  (void)bottom;
  (void)size;
#endif
}

/// Complete a switch on the new stack; reports the stack we came from.
void finish_switch(void* fake_stack, const void** from_bottom,
                   std::size_t* from_size) {
#ifdef NSCC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, from_bottom, from_size);
#else
  (void)fake_stack;
  (void)from_bottom;
  (void)from_size;
#endif
}

}  // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)), stack_(new char[stack_bytes]) {
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_bytes;
  context_.uc_link = &return_context_;
  // makecontext only passes ints, so split the `this` pointer in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

Fiber::~Fiber() { kill(); }

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run_body();
}

void Fiber::run_body() {
  finish_switch(nullptr, &caller_stack_, &caller_stack_size_);
  try {
    body_();
  } catch (const FiberKilled&) {
    // Normal teardown path: the stack has been unwound.
  }
  finished_ = true;
  // uc_link returns control to return_context_ (the engine).
  start_switch(nullptr, caller_stack_, caller_stack_size_);
}

void Fiber::resume() {
  assert(!finished_ && "resuming a finished fiber");
  started_ = true;
  void* fake_stack = nullptr;
  start_switch(&fake_stack, context_.uc_stack.ss_sp, context_.uc_stack.ss_size);
  swapcontext(&return_context_, &context_);
  finish_switch(fake_stack, nullptr, nullptr);
}

void Fiber::yield() {
  void* fake_stack = nullptr;
  start_switch(&fake_stack, caller_stack_, caller_stack_size_);
  swapcontext(&context_, &return_context_);
  finish_switch(fake_stack, &caller_stack_, &caller_stack_size_);
  if (killing_) throw FiberKilled{};
}

void Fiber::kill() {
  if (finished_ || !started_) {
    finished_ = true;
    return;
  }
  killing_ = true;
  resume();  // The fiber unwinds via FiberKilled and finishes.
  assert(finished_);
}

}  // namespace nscc::sim
