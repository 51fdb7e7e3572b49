#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <new>

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
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer must know which fiber runs, or it takes one thread's
// stack switching under it for a data race between its own frames.  Each
// Fiber gets a TSan fiber context and every switch names its target.
#if defined(__SANITIZE_THREAD__)
#define NSCC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NSCC_TSAN_FIBERS 1
#endif
#endif
#ifdef NSCC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim::Fiber has an x86-64 context switch only: port nscc_sim_fiber_switch and the initial frame Fiber::Fiber builds for it"
#endif

// nscc_sim_fiber_switch(void** save_sp, void* load_sp) pushes a frame on
// the current stack, stores the stack pointer to *save_sp, loads load_sp and
// pops the same frame from there.  The frame, lowest address first: MXCSR
// (4 bytes), x87 control word (2 bytes, padded to 8), r15, r14, r13, r12,
// rbx, rbp, return address.  These are all the state the SysV ABI asks a
// callee to preserve; the signal mask is not touched.  It does not switch
// CET shadow stacks, which glibc enables only when asked to by a tunable.
//
// nscc_sim_fiber_entry is the return address of a fresh fiber's initial
// frame.  It calls r13(r12) and marks the return address undefined, so the
// unwinder treats it as the bottom of the fiber's stack.  The endbr64 keeps
// it a valid branch target under -fcf-protection.
asm(".pushsection .text\n"
    ".globl nscc_sim_fiber_switch\n"
    ".hidden nscc_sim_fiber_switch\n"
    ".type nscc_sim_fiber_switch, @function\n"
    ".p2align 4\n"
    "nscc_sim_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size nscc_sim_fiber_switch, .-nscc_sim_fiber_switch\n"
    ".globl nscc_sim_fiber_entry\n"
    ".hidden nscc_sim_fiber_entry\n"
    ".type nscc_sim_fiber_entry, @function\n"
    ".p2align 4\n"
    "nscc_sim_fiber_entry:\n"
    "  .cfi_startproc\n"
    "  .cfi_undefined rip\n"
    "  endbr64\n"
    "  movq %r12, %rdi\n"
    "  callq *%r13\n"
    "  ud2\n"
    "  .cfi_endproc\n"
    ".size nscc_sim_fiber_entry, .-nscc_sim_fiber_entry\n"
    ".popsection\n");

extern "C" {
void nscc_sim_fiber_switch(void** save_sp, void* load_sp);
void nscc_sim_fiber_entry();
}

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

/// A new TSan fiber context (nullptr in builds without TSan).
void* tsan_create() {
#ifdef NSCC_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

void tsan_destroy(void* fiber) {
#ifdef NSCC_TSAN_FIBERS
  __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

/// The running TSan fiber context (nullptr in builds without TSan).
void* tsan_current() {
#ifdef NSCC_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

/// Tell TSan that `fiber` runs from the next instruction on.
void tsan_switch_to(void* fiber) {
#ifdef NSCC_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

char* map_guarded(std::size_t guard, std::size_t size) {
  void* mapping = mmap(nullptr, guard + size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping == MAP_FAILED) throw std::bad_alloc();
  if (mprotect(mapping, guard, PROT_NONE) != 0) {
    munmap(mapping, guard + size);
    throw std::bad_alloc();
  }
  return static_cast<char*>(mapping);
}

}  // namespace

Fiber::GuardedStack::GuardedStack(std::size_t bytes)
    : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
      size_((std::max<std::size_t>(bytes, 1) + guard_ - 1) / guard_ * guard_),
      mapping_(map_guarded(guard_, size_)) {}

Fiber::GuardedStack::~GuardedStack() {
#ifdef NSCC_ASAN_FIBERS
  // Frames that never returned leave poisoned shadow memory behind; clear
  // it so whatever is mapped at these addresses next starts clean.
  __asan_unpoison_memory_region(bottom(), size_);
#endif
  munmap(mapping_, guard_ + size_);
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)), stack_(stack_bytes), tsan_fiber_(tsan_create()) {
  // The frame nscc_sim_fiber_switch pops on the first resume: the
  // creator's FP control words, r13 = &entry, r12 = this, the other
  // registers zero (rbp = 0 ends frame-pointer walks), and the entry
  // trampoline as return address.  The stack top is page-aligned, so the
  // trampoline starts with the 16-byte alignment a call needs.
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  __asm__("stmxcsr %0" : "=m"(mxcsr));
  __asm__("fnstcw %0" : "=m"(x87_cw));
  auto* frame = reinterpret_cast<std::uint64_t*>(stack_.bottom() +
                                                 stack_.size()) - 8;
  frame[0] = mxcsr | (std::uint64_t{x87_cw} << 32);
  frame[1] = 0;  // r15
  frame[2] = 0;  // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(&Fiber::entry);  // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(this);           // r12
  frame[5] = 0;  // rbx
  frame[6] = 0;  // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&nscc_sim_fiber_entry);
  sp_ = frame;
}

Fiber::~Fiber() {
  kill();
  tsan_destroy(tsan_fiber_);
}

void Fiber::entry(Fiber* self) noexcept {
  finish_switch(nullptr, &self->caller_stack_, &self->caller_stack_size_);
  try {
    self->body_();
  } catch (const FiberKilled&) {
    // Normal teardown path: the stack has been unwound.
  }
  self->finished_ = true;
  // This stack is finished for good; control never comes back here.
  tsan_switch_to(self->tsan_caller_);
  start_switch(nullptr, self->caller_stack_, self->caller_stack_size_);
  nscc_sim_fiber_switch(&self->sp_, self->return_sp_);
  __builtin_unreachable();
}

void Fiber::resume() {
  assert(!finished_ && "resuming a finished fiber");
  started_ = true;
  tsan_caller_ = tsan_current();
  tsan_switch_to(tsan_fiber_);
  void* fake_stack = nullptr;
  start_switch(&fake_stack, stack_.bottom(), stack_.size());
  nscc_sim_fiber_switch(&return_sp_, sp_);
  finish_switch(fake_stack, nullptr, nullptr);
}

void Fiber::yield() {
  tsan_switch_to(tsan_caller_);
  void* fake_stack = nullptr;
  start_switch(&fake_stack, caller_stack_, caller_stack_size_);
  nscc_sim_fiber_switch(&sp_, return_sp_);
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
