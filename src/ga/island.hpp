// Island-model parallel GA over the NSCC shared space (paper Sections 3.1,
// 4.2.1): each deme evolves on its own simulated node; every generation it
// broadcasts its best N/2 individuals to all other demes through a shared
// location, and incorporates fresh migrants by replacing its worst
// individuals.  Three implementation styles are provided:
//
//   * kSynchronous  — barrier each generation, then Global_Read with age 0
//                     (everyone consumes the previous generation's migrants);
//   * kAsynchronous — plain reads; migrants are used as and when they arrive;
//   * kPartialAsync — Global_Read with a programmer-chosen age bound.
//
// Demes run a fixed number of generations; the result carries the merged
// best-so-far trajectory over virtual time so experiment drivers can apply
// the paper's protocol (async/partial run until they converge at least as
// far as the synchronous program did).
#pragma once

#include <cstdint>

#include "dsm/adaptive_age.hpp"
#include "dsm/shared_space.hpp"
#include "ga/sequential.hpp"
#include "harness/run_config.hpp"
#include "rt/vm.hpp"

namespace nscc::ga {

/// The consistency mode, staleness bound, seed, and propagation policy live
/// in the embedded harness::RunConfig; fields here are GA-specific.
struct IslandConfig : harness::RunConfig {
  int function_id = 1;
  /// Dynamic age setting (paper Section 6 future work): when true (and mode
  /// is kPartialAsync), each deme adjusts its own age at runtime with an
  /// AdaptiveAgeController seeded from `adaptive`.
  bool adaptive_age = false;
  dsm::AdaptiveAgeController::Config adaptive;
  int ndemes = 4;
  int deme_size = 50;      ///< N per deme; total population scales with P.
  int migrants = 25;       ///< N/2 individuals broadcast per generation.
  int generations = 300;   ///< Every deme runs exactly this many.
  GaParams params;
  GaComputeModel compute;
  bool use_fitness_cache = true;
};

/// Shared-location id for deme d's migrant buffer.  Public so the harness
/// tolerance contract audits the same locations the demes actually share.
[[nodiscard]] inline dsm::LocationId migrant_loc(int deme) noexcept {
  return 100 + deme;
}

/// The run's mechanism counters live in the embedded harness::RunStats
/// (filled from the machine's registry); fields here are GA-specific.
struct IslandResult : harness::RunStats {
  double best_fitness = 0.0;      ///< Global best at the end.
  GaTrajectory global_best;       ///< Merged best-so-far over virtual time.
  /// Mean population fitness across demes over virtual time (step-function
  /// merge of the per-deme averages).  The paper's "converged further than
  /// the synchronous version" criterion is evaluated on this curve.
  GaTrajectory global_average;
  double final_average = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  /// Adaptive-age diagnostics (zero unless adaptive_age was on).
  double mean_final_age = 0.0;
  std::uint64_t age_adjustments = 0;
};

/// Run one island-GA experiment on a fresh harness::Cluster.  `machine`
/// supplies the network/runtime cost parameters (ntasks is overridden by
/// config.ndemes); config.loader_offered_bps sets the background load.
IslandResult run_island_ga(const IslandConfig& config,
                           const rt::MachineConfig& machine);

}  // namespace nscc::ga
