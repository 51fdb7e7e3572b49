#include "sim/host_pool.hpp"

#include <sched.h>

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nscc::sim {

namespace {

/// Polls of the queue a worker makes before it goes to sleep; at a pause
/// instruction each, a few tens of microseconds: about one sweep kernel.
constexpr int kSpinPolls = 2048;

void cpu_relax() noexcept {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

/// CPUs in this process's affinity mask (1 when it cannot be read).
int usable_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

void HostPool::Job::run() noexcept {
  try {
    fn_(arg_);
  } catch (...) {
    error_ = std::current_exception();
  }
  done_.store(true, std::memory_order_release);
}

HostPool::HostPool(int workers) {
  threads_.reserve(static_cast<std::size_t>(std::max(0, workers)));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

HostPool::~HostPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

HostPool& HostPool::shared() {
  static HostPool pool(std::min(kMaxWorkers, usable_cpus() - 1));
  return pool;
}

void HostPool::submit(Job& job) {
  bool queued = false;
  bool wake = false;
  if (!threads_.empty()) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (count_ < kRingSlots) {
      ring_[(head_ + count_) % kRingSlots] = &job;
      ++count_;
      queued_.store(count_, std::memory_order_relaxed);
      queued = true;
      wake = sleepers_ > 0;
    }
  }
  if (!queued) {
    job.run();
  } else if (wake) {
    wake_.notify_one();
  }
}

void HostPool::join(Job& job) {
  wait(job);
  if (job.error_) std::rethrow_exception(job.error_);
}

void HostPool::wait(Job& job) noexcept {
  while (!job.done()) {
    if (Job* next = try_pop()) {
      next->run();
    } else {
      // The job is running on a worker: it finishes without our help.
      cpu_relax();
    }
  }
}

HostPool::Job* HostPool::pop_locked() noexcept {
  if (count_ == 0) return nullptr;
  Job* job = ring_[head_];
  head_ = (head_ + 1) % kRingSlots;
  --count_;
  queued_.store(count_, std::memory_order_relaxed);
  return job;
}

HostPool::Job* HostPool::try_pop() noexcept {
  if (queued_.load(std::memory_order_relaxed) == 0) return nullptr;
  const std::lock_guard<std::mutex> lock(mu_);
  return pop_locked();
}

void HostPool::worker_loop() noexcept {
  for (;;) {
    Job* job = nullptr;
    for (int poll = 0; poll < kSpinPolls && job == nullptr; ++poll) {
      job = try_pop();
      if (job == nullptr) cpu_relax();
    }
    if (job == nullptr) {
      std::unique_lock<std::mutex> lock(mu_);
      ++sleepers_;
      wake_.wait(lock, [this] { return stop_ || count_ > 0; });
      --sleepers_;
      job = pop_locked();
      if (job == nullptr) return;  // Stopped with nothing queued.
    }
    job->run();
  }
}

}  // namespace nscc::sim
