// The four paper workloads as harness::Workload adapters.  Each adapter
// holds the workload's problem-size parameters as plain members, declared
// once in its constructor (the initializer is the flag default; tests may
// set the members directly), exposes the RunConfig -> legacy-config mapping
// as a public build() so the parity tests can inspect it, and converts the
// legacy result to RunStats.
#pragma once

#include <string>
#include <vector>

#include "bayes/logic_sampling.hpp"
#include "bayes/network.hpp"
#include "bayes/parallel_sampling.hpp"
#include "ga/island.hpp"
#include "harness/workload.hpp"
#include "nn/train.hpp"
#include "solver/jacobi.hpp"

namespace nscc::harness {

/// Island-model GA (paper Sections 3.1, 4.2.1): one deme per node, best
/// individuals migrate through a shared location every generation.
class GaIslandWorkload final : public Workload {
 public:
  int function_id = 6;   ///< Test function 1..8 (6 = Rastrigin).
  int demes = 8;
  int generations = 150;

  GaIslandWorkload();
  [[nodiscard]] std::string name() const override { return "ga.island"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] ga::IslandConfig build(const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  /// The cached serial GA on the pooled population (demes x deme size).
  [[nodiscard]] RunStats reference(const RunConfig& run) const override;
  /// Async and Global_Read demes run "enough generations so that the
  /// subpopulation converged further than the synchronous version": the
  /// budget grows 1.5x, up to 3x, until the final average population
  /// fitness is within 2% of the serial program's improvement of the sync
  /// final average.  Reports the extras "generations" and "quality_ok".
  RunStats run_matched(const RunConfig& run, const rt::MachineConfig& machine,
                       const RunStats& serial, const RunStats* sync) override;
};

/// Speculative parallel logic sampling with rollback (paper Section 3.2),
/// by default on the paper's Figure 1 medical-diagnosis belief network.
class BayesSamplingWorkload final : public Workload {
 public:
  int parts = 2;
  std::uint64_t iterations = 6000;

  BayesSamplingWorkload();
  /// The paper's Figure 1 network: A -> {B, C}; {B, C} -> D; C -> E.
  [[nodiscard]] static bayes::BeliefNetwork figure1();

  /// The inference problem (Figure 1 by default): P(coma = true |
  /// metastatic-cancer = true) and P(headache = true | ...).
  bayes::BeliefNetwork network = figure1();
  std::vector<bayes::Evidence> evidence = {{0, 1}};
  std::vector<bayes::Query> queries = {{3, 1}, {4, 1}};
  /// Names of the query estimates in tables and JSON; the first is the
  /// quality metric.  Queries past the end are named "P(query <i>)".
  std::vector<std::string> query_names = {"P(coma|cancer)",
                                          "P(headache|cancer)"};

  [[nodiscard]] std::string name() const override { return "bayes.sampling"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] bayes::ParallelInferenceConfig build(
      const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  /// Sequential logic sampling until the confidence interval is met.
  [[nodiscard]] RunStats reference(const RunConfig& run) const override;
  /// Every parallel variant samples 1.3x the serial program's samples
  /// drawn, enough for the interval to be met with margin even under the
  /// speculative modes' validation lag.
  RunStats run_matched(const RunConfig& run, const rt::MachineConfig& machine,
                       const RunStats& serial, const RunStats* sync) override;

 private:
  RunStats sample(const bayes::ParallelInferenceConfig& cfg,
                  const rt::MachineConfig& machine) const;
  /// `stats` with the named query estimates as quality and extras.
  [[nodiscard]] RunStats with_estimates(
      RunStats stats,
      const std::vector<bayes::QueryEstimate>& estimates) const;
};

/// Row-block parallel Jacobi on a 2-D Poisson system (paper Section 1's
/// opening data-race tolerant application).
class JacobiWorkload final : public Workload {
 public:
  int grid = 16;          ///< Poisson grid side (n x n unknowns).
  int processors = 4;
  double tolerance = 1e-7;

  JacobiWorkload();
  [[nodiscard]] std::string name() const override { return "solver.jacobi"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] solver::ParallelJacobiConfig build(const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  /// Sequential Jacobi on the same system.
  [[nodiscard]] RunStats reference(const RunConfig& run) const override;
};

/// Bounded-staleness SGD on the two-spirals task (paper Section 6's named
/// future-work application): P workers plus a parameter server.
class NnTrainWorkload final : public Workload {
 public:
  int workers = 4;
  int steps = 500;

  NnTrainWorkload();
  [[nodiscard]] std::string name() const override { return "nn.train"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] nn::TrainConfig build(const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  /// Single-node SGD over the same mini-batch schedule.
  [[nodiscard]] RunStats reference(const RunConfig& run) const override;
  /// run() plus the extra "time_to_quality_s": the virtual time at which
  /// the training loss first reached 1.15x the serial program's final loss
  /// (NaN, serialised as null, when it never did).
  RunStats run_matched(const RunConfig& run, const rt::MachineConfig& machine,
                       const RunStats& serial, const RunStats* sync) override;

 private:
  [[nodiscard]] nn::TrainResult train(const RunConfig& run,
                                      const rt::MachineConfig& machine) const;
};

}  // namespace nscc::harness
