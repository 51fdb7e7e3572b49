// Tests for the fiber layer and the discrete-event engine: scheduling order,
// virtual-time semantics of delay/suspend/resume, determinism, deadlock
// detection, and teardown of unfinished fibers; and for the host worker
// pool that runs compute kernels while their virtual delay elapses.  The fiber tests also pin
// what the context switch must preserve: per-fiber FP control state,
// exception handling across switches, and a guard page under every stack.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <array>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/host_pool.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define NSCC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NSCC_TEST_ASAN 1
#endif
#endif

namespace {

using nscc::sim::Engine;
using nscc::sim::Fiber;
using nscc::sim::HostPool;
using nscc::sim::Process;
using nscc::sim::Time;

/// The rounding mode as the x87 unit and as SSE see it, both as FE_*
/// values; a context switch must carry both.
std::pair<int, int> rounding_modes() {
  return {std::fegetround(), static_cast<int>((_mm_getcsr() >> 3) & 0xc00)};
}

/// Suspends `depth` frames deep, each frame counting its own destruction.
void descend_and_yield(Fiber& self, int depth, int& destroyed) {
  struct Frame {
    int* count;
    ~Frame() { ++*count; }
  } frame{&destroyed};
  if (depth == 1) {
    self.yield();
  } else {
    descend_and_yield(self, depth - 1, destroyed);
  }
}

#ifndef NSCC_TEST_ASAN
constexpr std::uintptr_t kOverflowStackBytes = 64 * 1024;
volatile bool stop_recursing = false;
/// Address of a local near the top of the overflowing fiber's stack.
volatile std::uintptr_t overflow_stack_top = 0;
std::uintptr_t page_bytes = 0;

/// Recursion with no bound the compiler can see; every frame touches its
/// locals, so the stack grows a small step at a time into the guard page.
int recurse(int depth) {
  volatile char locals[256];
  locals[0] = static_cast<char>(depth);
  if (stop_recursing) return locals[0];
  return recurse(depth + 1) + locals[0];
}

/// SIGSEGV handler on an alternate stack.  A fault within a page of the
/// fiber stack's lower end is the guard page: restore the default action
/// so the faulting write repeats and kills the process by SIGSEGV.  A fault
/// anywhere else means the overflow ran on into other memory: exit 1.
void on_overflow_fault(int, siginfo_t* info, void*) {
  const std::uintptr_t depth =
      overflow_stack_top - reinterpret_cast<std::uintptr_t>(info->si_addr);
  if (depth + page_bytes < kOverflowStackBytes ||
      depth > kOverflowStackBytes + page_bytes) {
    _exit(1);
  }
  signal(SIGSEGV, SIG_DFL);
}

void overflow_a_fiber_stack() {
  const rlimit no_core_dump{0, 0};
  setrlimit(RLIMIT_CORE, &no_core_dump);
  page_bytes = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = on_overflow_fault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  Fiber f(
      [] {
        volatile char probe = 0;
        overflow_stack_top = reinterpret_cast<std::uintptr_t>(&probe);
        recurse(0);
      },
      kOverflowStackBytes);
  f.resume();
}
#endif

TEST(Fiber, RunsBodyToCompletion) {
  int steps = 0;
  Fiber f([&] { steps = 3; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(steps, 3);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber* self = nullptr;
  Fiber f([&] {
    trace.push_back(1);
    self->yield();
    trace.push_back(2);
    self->yield();
    trace.push_back(3);
  });
  self = &f;
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1}));
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, KillUnwindsStack) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Fiber* self = nullptr;
  {
    Fiber f([&] {
      Sentinel s{&destroyed};
      self->yield();  // Never resumed normally.
      FAIL() << "should not get here";
    });
    self = &f;
    f.resume();
    EXPECT_FALSE(destroyed);
  }  // Destructor kills the fiber.
  EXPECT_TRUE(destroyed);
}

TEST(Fiber, KillNeverStartedIsSafe) {
  Fiber f([] { FAIL() << "body must not run"; });
  // Destructor only: the body never runs.
}

TEST(Fiber, FpControlStateIsPerFiber) {
  const auto nearest = std::make_pair(FE_TONEAREST, FE_TONEAREST);
  const auto downward = std::make_pair(FE_DOWNWARD, FE_DOWNWARD);
  ASSERT_EQ(rounding_modes(), nearest);
  Fiber* self = nullptr;
  std::pair<int, int> seen_before_yield;
  std::pair<int, int> seen_after_yield;
  Fiber f([&] {
    std::fesetround(FE_DOWNWARD);
    seen_before_yield = rounding_modes();
    self->yield();
    seen_after_yield = rounding_modes();
  });
  self = &f;
  f.resume();
  EXPECT_EQ(seen_before_yield, downward);
  EXPECT_EQ(rounding_modes(), nearest);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(seen_after_yield, downward);
  EXPECT_EQ(rounding_modes(), nearest);
}

TEST(Fiber, ExceptionsThrownAndCaughtAcrossYields) {
  Fiber* self = nullptr;
  int caught = 0;
  Fiber f([&] {
    for (int round = 0; round < 3; ++round) {
      const std::string what = "round " + std::to_string(round);
      try {
        self->yield();
        throw std::runtime_error(what);
      } catch (const std::runtime_error& e) {
        self->yield();  // Suspended while handling the exception.
        EXPECT_EQ(e.what(), what);
        ++caught;
      }
    }
  });
  self = &f;
  int resumes = 0;
  while (!f.finished()) {
    f.resume();
    ++resumes;
    // The resumer throws and catches on its own stack in between.
    try {
      throw std::logic_error("resumer");
    } catch (const std::logic_error&) {
    }
  }
  EXPECT_EQ(caught, 3);
  EXPECT_EQ(resumes, 7);
}

TEST(Fiber, ThousandLiveFibersResumeRoundRobinInOrder) {
  constexpr int kFibers = 1000;
  constexpr int kRounds = 3;
  std::vector<int> order;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&order, &fibers, i] {
          for (int round = 0; round < kRounds; ++round) {
            order.push_back(i);
            fibers[i]->yield();
          }
        },
        64 * 1024));
  }
  for (int round = 0; round <= kRounds; ++round) {
    for (auto& f : fibers) f->resume();
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFibers * kRounds));
  for (std::size_t k = 0; k < order.size(); ++k) {
    ASSERT_EQ(order[k], static_cast<int>(k % kFibers)) << "at " << k;
  }
  for (const auto& f : fibers) EXPECT_TRUE(f->finished());
}

TEST(Fiber, KillUnwindsEveryFrameOfADeepStack) {
  constexpr int kDepth = 100;
  int destroyed = 0;
  Fiber* self = nullptr;
  Fiber f([&] { descend_and_yield(*self, kDepth, destroyed); });
  self = &f;
  f.resume();
  EXPECT_EQ(destroyed, 0);
  f.kill();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(destroyed, kDepth);
}

TEST(FiberDeathTest, StackOverflowHitsTheGuardPage) {
#ifdef NSCC_TEST_ASAN
  GTEST_SKIP() << "ASan reports the overflow itself and exits; it does not "
                  "die by SIGSEGV";
#else
  EXPECT_EXIT(overflow_a_fiber_stack(), ::testing::KilledBySignal(SIGSEGV),
              "");
#endif
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(30, [&] { order.push_back(3); });
  eng.schedule(10, [&] { order.push_back(1); });
  eng.schedule(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule(42, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine eng;
  std::vector<Time> stamps;
  eng.spawn("p", [&](Process& p) {
    stamps.push_back(p.now());
    p.delay(100);
    stamps.push_back(p.now());
    p.delay(0);
    stamps.push_back(p.now());
    p.delay(50);
    stamps.push_back(p.now());
  });
  eng.run();
  EXPECT_EQ(stamps, (std::vector<Time>{0, 100, 100, 150}));
  EXPECT_EQ(eng.live_processes(), 0u);
}

TEST(Engine, SpawnStartTimeHonoured) {
  Engine eng;
  Time started = -1;
  eng.spawn("late", [&](Process& p) { started = p.now(); }, 777);
  eng.run();
  EXPECT_EQ(started, 777);
}

TEST(Engine, SuspendResumeAcrossProcesses) {
  Engine eng;
  std::vector<std::string> trace;
  Process& consumer = eng.spawn("consumer", [&](Process& p) {
    trace.push_back("c:wait");
    p.suspend();
    trace.push_back("c:resumed@" + std::to_string(p.now()));
  });
  eng.spawn("producer", [&](Process& p) {
    p.delay(500);
    trace.push_back("p:resume");
    consumer.resume_at(p.now() + 10);
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"c:wait", "p:resume",
                                             "c:resumed@510"}));
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  eng.spawn("stuck", [](Process& p) { p.suspend(); });
  eng.run();
  EXPECT_TRUE(eng.deadlocked());
  EXPECT_EQ(eng.live_processes(), 1u);
}

TEST(Engine, NoDeadlockWhenAllFinish) {
  Engine eng;
  eng.spawn("ok", [](Process& p) { p.delay(5); });
  eng.run();
  EXPECT_FALSE(eng.deadlocked());
}

TEST(Engine, RunUntilStopsClock) {
  Engine eng;
  int fired = 0;
  eng.schedule(100, [&] { ++fired; });
  eng.schedule(900, [&] { ++fired; });
  eng.run(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 500);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ManyProcessesInterleaveDeterministically) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      eng.spawn("p" + std::to_string(i), [&order, i](Process& p) {
        for (int k = 0; k < 3; ++k) {
          p.delay(10 * (i + 1));
          order.push_back(i);
        }
      });
    }
    eng.run();
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 24u);
}

TEST(Engine, TeardownWithLiveProcessesUnwinds) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Engine eng;
    eng.spawn("held", [&](Process& p) {
      Sentinel s{&destroyed};
      p.suspend();
    });
    eng.run();
    EXPECT_TRUE(eng.deadlocked());
  }
  EXPECT_TRUE(destroyed);
}

// ---- The key-heap queue ------------------------------------------------------

TEST(EngineQueue, EqualTimeEventsRunInScheduleOrderUnderChurn) {
  // Keys at many other times keep the heap reshuffling while equal-time
  // events are pushed, some of them from inside a running callback at the
  // current time; each batch must still run in the order it was scheduled.
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    eng.schedule(1000 - 7 * (i % 13), [] {});
    eng.schedule(500, [&order, i] { order.push_back(i); });
  }
  eng.schedule(500, [&] {
    for (int i = 100; i < 140; ++i) {
      eng.schedule(eng.now(), [&order, i] { order.push_back(i); });
      eng.schedule(eng.now() + 1 + i % 3, [] {});
    }
  });
  eng.run();
  std::vector<int> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(i);
  for (int i = 100; i < 140; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EngineQueue, CancelledWatchdogHoldsTheQueueUntilItsTime) {
  Engine eng;
  bool fired = false;
  const auto id = eng.set_watchdog(1000, [&] { fired = true; });
  eng.schedule(10, [&] { EXPECT_TRUE(eng.cancel_watchdog(id)); });
  eng.run();
  EXPECT_FALSE(fired);
  // The cancelled key still dispatched at its time, as a no-op.
  EXPECT_EQ(eng.now(), 1000);
  EXPECT_EQ(eng.events_executed(), 2u);
  EXPECT_FALSE(eng.cancel_watchdog(id));
}

TEST(EngineQueue, StaleWatchdogIdDoesNotCancelTheSlotsNextEvent) {
  // A fired watchdog's slot is recycled for the next event; the old id
  // must not reach the new occupant.
  Engine eng;
  int fired = 0;
  const auto id = eng.set_watchdog(5, [&] { ++fired; });
  eng.run();
  eng.schedule(10, [&] { ++fired; });
  EXPECT_FALSE(eng.cancel_watchdog(id));
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineQueue, WatchdogCannotCancelItselfWhileFiring) {
  Engine eng;
  Engine::WatchdogId id = 0;
  bool cancelled = true;
  id = eng.set_watchdog(5, [&] { cancelled = eng.cancel_watchdog(id); });
  eng.run();
  EXPECT_FALSE(cancelled);
}

TEST(EngineQueue, CallbackGrowingTheSlabMidDispatchStaysIntact) {
  // One callback schedules far more events than the slab holds, so the
  // slab grows while that callback is running.  The callback reads its own
  // captures afterwards: if its storage had moved, that read would be a
  // use-after-free (the sanitizer job flags it).
  Engine eng;
  // A heap-backed, non-const capture in a mutable closure: the read after
  // the loop must go back to the closure's storage.
  std::string label(64, 'x');
  std::uint64_t sum = 0;
  int grown = 0;
  eng.schedule(1, [&eng, &sum, &grown, label]() mutable {
    for (std::uint64_t i = 0; i < 3000; ++i) {
      const std::array<std::uint64_t, 4> pad{i, i, i, i};
      eng.schedule(2 + static_cast<Time>(i % 5),
                   [&sum, pad] { sum += pad[0] + pad[3]; });
    }
    grown = label == std::string(64, 'x') ? 1 : -1;
  });
  eng.run();
  EXPECT_EQ(grown, 1);
  EXPECT_EQ(sum, 2 * (2999ULL * 3000ULL / 2));
  EXPECT_EQ(eng.events_executed(), 3001u);
}

// ---- InlineFunction ------------------------------------------------------------

TEST(InlineFunction, SmallCapturesStayInline) {
  using Fn = nscc::sim::InlineFunction<int(int), 24>;
  int base = 5;
  auto add = [&base](int x) { return base + x; };
  static_assert(Fn::kStoredInline<decltype(add)>);
  Fn f = add;
  EXPECT_EQ(f(2), 7);
  Fn g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT: moved-from is empty by contract.
  EXPECT_EQ(g(3), 8);
}

TEST(InlineFunction, OversizedCaptureFallsBackToTheHeap) {
  using Fn = nscc::sim::InlineFunction<std::uint64_t(), 16>;
  auto token = std::make_shared<int>(0);
  const std::array<std::uint64_t, 4> big{1, 2, 3, 4};
  auto sum = [big, token] { return big[0] + big[1] + big[2] + big[3]; };
  static_assert(!Fn::kStoredInline<decltype(sum)>);
  {
    Fn f = sum;
    Fn g = std::move(f);
    EXPECT_EQ(g(), 10u);
    EXPECT_EQ(token.use_count(), 3);  // token, `sum`, g's heap copy.
  }
  EXPECT_EQ(token.use_count(), 2);  // The heap copy was destroyed once.
}

TEST(InlineFunction, HoldsMoveOnlyCaptures) {
  using Fn = nscc::sim::InlineFunction<int(), 16>;
  auto owned = std::make_unique<int>(42);
  Fn f = [p = std::move(owned)] { return *p; };
  Fn g;
  g = std::move(f);
  EXPECT_EQ(g(), 42);
  g.reset();
  EXPECT_FALSE(g);
}

// ---- Host worker pool ---------------------------------------------------------

/// A pool-agnostic job over a callable that lives beside it.
template <typename F>
struct OwnedJob {
  explicit OwnedJob(F f) : fn(std::move(f)), job(&call, &fn) {}
  static void call(void* f) { (*static_cast<F*>(f))(); }
  F fn;
  HostPool::Job job;
};

/// The HostPool tests use no fiber, so a ThreadSanitizer build can run
/// them (the fiber switch carries no TSan annotations).
class HostPoolTest : public ::testing::TestWithParam<int> {};

TEST_P(HostPoolTest, EveryJobRunsExactlyOnce) {
  HostPool pool(GetParam());
  EXPECT_EQ(pool.workers(), GetParam());
  // More jobs than ring slots, so some rounds also take the inline path.
  constexpr int kJobs = 3 * static_cast<int>(HostPool::kRingSlots) / 2;
  std::vector<int> runs(kJobs, 0);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::unique_ptr<OwnedJob<std::function<void()>>>> jobs;
    for (int i = 0; i < kJobs; ++i) {
      jobs.push_back(std::make_unique<OwnedJob<std::function<void()>>>(
          [&runs, i] { ++runs[static_cast<std::size_t>(i)]; }));
    }
    for (auto& j : jobs) pool.submit(j->job);
    // Join in reverse, so joiners help with jobs that are not theirs.
    for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
      pool.join((*it)->job);
      EXPECT_TRUE((*it)->job.done());
    }
  }
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)], 4) << "job " << i;
  }
}

TEST_P(HostPoolTest, JobExceptionReachesTheJoiner) {
  HostPool pool(GetParam());
  auto thrower = [] { throw std::runtime_error("kernel failed"); };
  OwnedJob<decltype(thrower)> bad(thrower);
  int ran = 0;
  auto fine = [&ran] { ++ran; };
  OwnedJob<decltype(fine)> good(fine);
  pool.submit(bad.job);
  pool.submit(good.job);
  try {
    pool.join(bad.job);
    FAIL() << "expected the job's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "kernel failed");
  }
  // The failure is the job's alone: the pool keeps working.
  pool.join(good.job);
  EXPECT_EQ(ran, 1);
}

TEST_P(HostPoolTest, FullRingRunsInline) {
  const int workers = GetParam();
  HostPool pool(workers);
  // Park every worker on a job that waits for a release.
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  auto park = [&] {
    parked.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  };
  std::vector<std::unique_ptr<OwnedJob<decltype(park)>>> blockers;
  for (int i = 0; i < workers; ++i) {
    blockers.push_back(std::make_unique<OwnedJob<decltype(park)>>(park));
    pool.submit(blockers.back()->job);
  }
  while (parked.load() < workers) std::this_thread::yield();
  // Fill the ring; nobody drains it while the workers are parked.
  std::atomic<int> ran{0};
  auto count = [&ran] { ran.fetch_add(1); };
  std::vector<std::unique_ptr<OwnedJob<decltype(count)>>> queued;
  for (std::size_t i = 0; i < HostPool::kRingSlots; ++i) {
    queued.push_back(std::make_unique<OwnedJob<decltype(count)>>(count));
    pool.submit(queued.back()->job);
  }
  // With workers, the ring holds them all; without, each ran at submit.
  EXPECT_EQ(ran.load(), workers == 0 ? static_cast<int>(HostPool::kRingSlots)
                                     : 0);
  OwnedJob<decltype(count)> overflow(count);
  pool.submit(overflow.job);
  EXPECT_TRUE(overflow.job.done()) << "a submit to a full ring runs inline";
  release.store(true);
  for (auto& j : queued) pool.join(j->job);
  for (auto& j : blockers) pool.join(j->job);
  EXPECT_EQ(ran.load(), static_cast<int>(HostPool::kRingSlots) + 1);
}

TEST_P(HostPoolTest, SubmitAndJoinAllocateNothing) {
  HostPool pool(GetParam());
  double sink = 0.0;
  auto kernel = [&sink] {
    for (int i = 1; i <= 1000; ++i) sink += 1.0 / i;
  };
  auto round = [&] {
    for (int i = 0; i < 100; ++i) {
      HostPool::Scope<decltype(kernel)> scope(pool, kernel);
      scope.join();
    }
  };
  round();  // Warm-up.
  const std::uint64_t before = nscc::obs::alloc_counts().count;
  round();
  EXPECT_EQ(nscc::obs::alloc_counts().count - before, 0U);
  EXPECT_GT(sink, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workers, HostPoolTest, ::testing::Values(0, 1, 3));

TEST(HostPoolFiber, KillJoinsOffloadedWorkBeforeUnwindingFinishes) {
  for (const int workers : {0, 1, 3}) {
    HostPool pool(workers);
    std::atomic<bool> kernel_done{false};
    bool done_when_frame_died = false;
    struct FrameEnd {
      std::atomic<bool>* kernel_done;
      bool* seen;
      ~FrameEnd() { *seen = kernel_done->load(); }
    };
    Engine eng;
    Process& p = eng.spawn("offloader", [&](Process& self) {
      // Outer to the scope: destroyed after the scope's destructor ran.
      const FrameEnd end{&kernel_done, &done_when_frame_died};
      auto kernel = [&kernel_done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        kernel_done.store(true);
      };
      HostPool::Scope<decltype(kernel)> scope(pool, kernel);
      self.delay(100);
      scope.join();
      ADD_FAILURE() << "the process was killed mid-delay";
    });
    eng.schedule(50, [&] { eng.kill(p); });
    eng.run();
    EXPECT_TRUE(p.finished()) << workers << " workers";
    EXPECT_TRUE(kernel_done.load()) << workers << " workers";
    EXPECT_TRUE(done_when_frame_died) << workers << " workers";
  }
}

}  // namespace
