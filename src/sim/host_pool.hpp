// A small process-wide pool of host worker threads for compute kernels.
//
// The simulator runs every virtual processor on one host thread, one event
// after another, even when many processors compute over the same virtual
// interval.  HostPool lets a process hand the host-side kernel of such a
// compute phase to a worker thread, keep the engine running other events
// while the phase's virtual delay elapses, and join the kernel when it
// resumes (rt::Task::compute(dt, work) is the one caller that matters).
//
// Offload contract.  An offloaded job runs on another host thread while the
// engine thread keeps executing events, so it must:
//   * touch only memory no event can reach while the job runs: buffers
//     private to the submitting process, plus data nobody writes during
//     the run (say, an immutable matrix);
//   * not touch the tracer, the DSM, an RNG stream, a mailbox, the engine,
//     the machine's packet buffer list (rt::PacketPool, which only the
//     engine thread draws from and returns to), or any other process's
//     state;
//   * not decide the virtual time charged for it: the delay is fixed
//     before the job runs, so results and virtual time stay bit-identical
//     whatever thread runs the kernel and however long it takes.
//
// Mechanics.  A job record lives on its submitter's stack (no per-job
// allocation); the queue is a preallocated ring of pointers to them.  A
// full ring, or a pool with no workers, runs the job inline at submit.
// Workers spin briefly for work, then sleep on a condition variable that
// submit() notifies only when someone is asleep.  join() runs queued jobs on
// the calling thread until its own job is done, so it always makes
// progress, and rethrows the job's exception.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nscc::sim {

class HostPool {
 public:
  /// At most this many workers, however many CPUs the process may use.
  static constexpr int kMaxWorkers = 7;
  /// Queued jobs the ring holds; a submit beyond it runs inline.
  static constexpr std::size_t kRingSlots = 64;

  /// A pool of exactly `workers` threads (0: every job runs inline).
  explicit HostPool(int workers);
  /// Stops and joins the workers.  Every submitted job must have been
  /// joined first.
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// The process-wide pool, created on first use with one worker per CPU in
  /// the process's affinity mask beyond the first, at most kMaxWorkers.  A
  /// process pinned to one CPU gets a pool with no workers.
  static HostPool& shared();

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// One queued unit of work.  It must stay alive, unmoved, until joined.
  class Job {
   public:
    Job(void (*fn)(void*), void* arg) noexcept : fn_(fn), arg_(arg) {}
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    [[nodiscard]] bool done() const noexcept {
      return done_.load(std::memory_order_acquire);
    }

   private:
    friend class HostPool;
    void run() noexcept;

    void (*fn_)(void*);
    void* arg_;
    std::exception_ptr error_;
    std::atomic<bool> done_{false};
  };

  /// Queue `job` for a worker; runs it inline when there is no worker or
  /// the ring is full.
  void submit(Job& job);

  /// Wait until `job` has run, running queued jobs meanwhile; rethrows the
  /// exception the job threw, if any.
  void join(Job& job);

  /// join() without the rethrow (for unwinding paths).
  void wait(Job& job) noexcept;

  /// Offloads `work` for the guard's lifetime: submitted on construction,
  /// joined by join() or, when the scope unwinds first (a killed fiber),
  /// waited for by the destructor, so the job never outlives the stack
  /// frame that holds it and the state it reads.
  template <typename Work>
  class Scope {
   public:
    Scope(HostPool& pool, Work& work)
        : pool_(pool), job_(&invoke, std::addressof(work)) {
      pool_.submit(job_);
    }
    ~Scope() {
      if (!joined_) pool_.wait(job_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void join() {
      joined_ = true;
      pool_.join(job_);
    }

   private:
    static void invoke(void* work) { (*static_cast<Work*>(work))(); }

    HostPool& pool_;
    Job job_;
    bool joined_ = false;
  };

 private:
  /// Pop the oldest queued job, or nullptr.  Lock held.
  Job* pop_locked() noexcept;
  /// Pop under the lock without blocking, or nullptr.
  Job* try_pop() noexcept;
  void worker_loop() noexcept;

  std::mutex mu_;
  std::condition_variable wake_;
  Job* ring_[kRingSlots] = {};
  std::size_t head_ = 0;   ///< Index of the oldest queued job.
  std::size_t count_ = 0;  ///< Queued jobs.
  /// Mirrors count_ so spinning workers can poll without the lock.
  std::atomic<std::size_t> queued_{0};
  int sleepers_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace nscc::sim
