// Parallel logic sampling with default-value speculation and Time-Warp
// style rollback (paper Section 3.2), in three implementation styles.
//
// The network is partitioned across simulated nodes.  Iteration t of task k
// samples k's nodes; remote parents take the peer's iteration-(t-1) values.
// Interface values (plus a local evidence-consistency bit) are published
// every iteration through a DSM shared location per task:
//
//   * kSynchronous  — barrier per iteration, Global_Read(t-1, 0): iteration
//                     t waits for every peer's iteration-(t-1) block;
//   * kAsynchronous — never waits: iteration t uses the freshest received
//                     block (or the CPT-derived default values before any
//                     arrives) and gambles it equals iteration t-1's values;
//   * kPartialAsync — Global_Read(t-1, age): the gamble is bounded to at
//                     most `age` iterations of staleness.
//
// When a peer's true iteration-u block arrives and differs from the values
// an already-computed iteration used, the task rolls back: iterations u+1
// onward are recomputed with the corrected inputs and the corrected
// interface blocks are re-published (superseding the earlier ones, which is
// how receivers detect and cascade the rollback — the anti-message role).
// Per-(iteration, node) counter-based randomness makes recomputation
// deterministic, so values only change downstream of corrected inputs.
//
// Query tallies count only *validated* iterations (all true input blocks
// received and matched), and the run's completion time is the virtual time
// at which every owner's queries reached the configured CI precision on
// validated samples.
#pragma once

#include <cstdint>
#include <vector>

#include "bayes/logic_sampling.hpp"
#include "bayes/partitioner.hpp"
#include "dsm/shared_space.hpp"
#include "harness/run_config.hpp"
#include "rt/vm.hpp"

namespace nscc::bayes {

/// Interface-block location scheme: task p's phase-`phase` block.  Public
/// so the harness tolerance contract audits the same locations the sampler
/// shares; kMaxPhases bounds the guard phases per task.
inline constexpr int kMaxPhases = 16;
[[nodiscard]] inline dsm::LocationId block_loc(int p, int phase) noexcept {
  return 500 + p * kMaxPhases + phase;
}

/// Mode, age, seed, and the propagation policy live in the embedded
/// harness::RunConfig.  The sampler lifts the policy's read_timeout,
/// partition_heal and consistency fields; interface blocks are
/// never coalesced — rollback detection needs every superseding
/// publication.
struct ParallelInferenceConfig : harness::RunConfig {
  int parts = 2;
  /// Iterations every task runs (fixed, so termination needs no global
  /// agreement; completion is extracted post hoc from CI checkpoints).
  std::uint64_t iterations = 12000;
  /// Interface-update batching: iterations per published message.  0 = auto
  /// (sync and async send every iteration — lockstep needs it and the
  /// paper's uncontrolled async floods; partial async amortises messages
  /// within its staleness budget, ~age/2 capped at 16).  Sync always uses 1.
  int batch = 0;
  double confidence = 0.90;
  double precision = 0.01;
  int check_interval = 250;
  sim::Time cost_per_node_sample = 26 * sim::kMicrosecond;
  /// Bookkeeping cost per rolled-back iteration (state restore).
  sim::Time rollback_overhead = 120 * sim::kMicrosecond;
  /// Persistent node speed spread and per-iteration jitter, as in the GA.
  double node_speed_spread = 0.15;
  double per_iter_jitter = 0.10;
  /// Occasional long stalls (OS daemons / paging on the paper's era nodes):
  /// with this probability per iteration, a task stalls for a uniform
  /// duration in [stall_min, stall_max].  These transients are what let an
  /// unthrottled asynchronous run stray far ahead and pay deep rollbacks.
  double stall_probability = 0.005;
  sim::Time stall_min = 10 * sim::kMillisecond;
  sim::Time stall_max = 60 * sim::kMillisecond;
  PartitionConfig partition;
};

/// The run's mechanism counters live in the embedded harness::RunStats
/// (filled from the machine's registry); completion_time is the virtual
/// time when every task's queries met the CI target (full run time when
/// some never did — see `converged`).  Fields here are sampler-specific.
struct ParallelInferenceResult : harness::RunStats {
  sim::Time full_run_time = 0;
  bool converged = false;

  std::vector<QueryEstimate> estimates;  ///< On validated samples.
  std::uint64_t iterations = 0;          ///< Per task (fixed).
  std::uint64_t validated_samples = 0;   ///< Min over tasks.
  std::uint64_t rollbacks = 0;
  std::uint64_t rolled_back_iterations = 0;
  std::uint64_t nodes_resampled = 0;
  int edge_cut = 0;
};

ParallelInferenceResult run_parallel_logic_sampling(
    const BeliefNetwork& net, const std::vector<Evidence>& evidence,
    const std::vector<Query>& queries, const ParallelInferenceConfig& config,
    const rt::MachineConfig& machine);

}  // namespace nscc::bayes
