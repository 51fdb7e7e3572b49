#include "harness/workloads.hpp"

#include <algorithm>
#include <cmath>

#include "ga/functions.hpp"
#include "ga/sequential.hpp"
#include "rt/vm.hpp"

namespace nscc::harness {

namespace {

/// The staleness bound each variant's read discipline promises: synchronous
/// reads demand the producer's previous iteration exactly, Global_Read(age)
/// reads promise the declared bound, fully asynchronous reads tolerate
/// anything (that is the paper's uncontrolled baseline).
sanitize::Iteration mode_age_bound(const RunConfig& run) {
  switch (run.mode) {
    case dsm::Mode::kSynchronous:
      return 0;
    case dsm::Mode::kPartialAsync:
      return run.age;
    case dsm::Mode::kAsynchronous:
      break;
  }
  return -1;
}

}  // namespace

// ---- ga.island -------------------------------------------------------------

std::string GaIslandWorkload::description() const {
  return "island GA on " + ga::test_function(function_id).name;
}

GaIslandWorkload::GaIslandWorkload() {
  declare("demes", &GaIslandWorkload::demes, {1},
          "number of islands (simulated nodes)");
  declare("generations", &GaIslandWorkload::generations, {1},
          "generations per deme");
  declare("function", &GaIslandWorkload::function_id, {1, 8},
          "test function 1..8 (6 = Rastrigin)");
}

ga::IslandConfig GaIslandWorkload::build(const RunConfig& run) const {
  ga::IslandConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.function_id = function_id;
  cfg.ndemes = demes;
  cfg.generations = generations;
  return cfg;
}

namespace {

/// The GA's figure of merit and extras (serial or island result) over the
/// mechanism fields already in `stats`.
template <class Result>
RunStats ga_stats(RunStats stats, const Result& r) {
  stats.quality_name = "best_fitness";
  stats.quality = r.best_fitness;
  stats.extra = {{"final_average", r.final_average},
                 {"evaluations", static_cast<double>(r.evaluations)},
                 {"cache_hits", static_cast<double>(r.cache_hits)}};
  return stats;
}

RunStats evolve(const ga::IslandConfig& cfg, const rt::MachineConfig& machine) {
  const auto r = ga::run_island_ga(cfg, machine);
  return ga_stats(r, r);
}

}  // namespace

RunStats GaIslandWorkload::run(const RunConfig& run,
                               const rt::MachineConfig& machine) {
  return evolve(build(run), machine);
}

RunStats GaIslandWorkload::reference(const RunConfig& run) const {
  const ga::IslandConfig island = build(run);
  const auto r = ga::run_sequential_ga({.function_id = function_id,
                                        .pop_size = island.params.pop_size * demes,
                                        .generations = generations,
                                        .seed = run.seed,
                                        .params = island.params,
                                        .compute = island.compute});
  RunStats stats = ga_stats({.completion_time = r.completion_time}, r);
  stats.extra.insert(stats.extra.end(),
                     {{"initial_average", r.average.points.front().second},
                      {"generations", static_cast<double>(generations)}});
  return stats;
}

RunStats GaIslandWorkload::run_matched(const RunConfig& run,
                                       const rt::MachineConfig& machine,
                                       const RunStats& serial,
                                       const RunStats* sync) {
  ga::IslandConfig cfg = build(run);
  RunStats stats = evolve(cfg, machine);
  bool ok = true;
  if (sync != nullptr) {
    constexpr double kQualitySlack = 0.02;
    const double target = sync->extra_value("final_average");
    const double slack =
        kQualitySlack * std::fabs(serial.extra_value("initial_average") - target);
    const int cap = 3 * generations;
    for (;;) {
      ok = stats.extra_value("final_average") <= target + slack;
      if (ok || cfg.generations >= cap) break;
      cfg.generations = std::min(cap, cfg.generations * 3 / 2);
      stats = evolve(cfg, machine);
    }
  }
  stats.extra.emplace_back("generations", cfg.generations);
  stats.extra.emplace_back("quality_ok", ok ? 1.0 : 0.0);
  return stats;
}

sanitize::ToleranceSpec GaIslandWorkload::tolerance_spec(
    const RunConfig& run) const {
  const ga::IslandConfig cfg = build(run);
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // Adaptive demes raise their own age at runtime, bounded by the
  // controller's cap — the contract certifies that cap, not the seed age.
  if (cfg.adaptive_age && run.mode == dsm::Mode::kPartialAsync) {
    rule.max_age = std::max(rule.max_age, cfg.adaptive.max_age);
  }
  // Sync/partial demes always state an age bound on migrant reads; only
  // the uncontrolled asynchronous variant reads un-aged.  Degraded and
  // not-yet-valid migrants are tolerated by design: demes skip them (crash
  // recovery serves the last published migrants; before the first
  // migration nothing has arrived).
  rule.require_aged = run.mode != dsm::Mode::kAsynchronous;
  sanitize::ToleranceSpec spec;
  spec.declare_range(ga::migrant_loc(0), ga::migrant_loc(cfg.ndemes), rule);
  return spec;
}

// ---- bayes.sampling --------------------------------------------------------

bayes::BeliefNetwork BayesSamplingWorkload::figure1() {
  bayes::BeliefNetwork net;
  const auto a = net.add_node("metastatic-cancer", 2);
  const auto b = net.add_node("serum-calcium", 2);
  const auto c = net.add_node("brain-tumor", 2);
  const auto d = net.add_node("coma", 2);
  const auto e = net.add_node("headache", 2);
  net.set_parents(b, {a});
  net.set_parents(c, {a});
  net.set_parents(d, {b, c});
  net.set_parents(e, {c});
  net.set_cpt(a, {0.80, 0.20});
  net.set_cpt(b, {0.80, 0.20, 0.20, 0.80});
  net.set_cpt(c, {0.95, 0.05, 0.20, 0.80});
  net.set_cpt(d, {0.95, 0.05, 0.40, 0.60, 0.30, 0.70, 0.20, 0.80});
  net.set_cpt(e, {0.90, 0.10, 0.30, 0.70});
  net.validate();
  return net;
}

std::string BayesSamplingWorkload::description() const {
  return "speculative logic sampling on the Figure 1 belief network";
}

BayesSamplingWorkload::BayesSamplingWorkload() {
  declare("iterations", &BayesSamplingWorkload::iterations, {1},
          "sampling iterations per task");
  declare("parts", &BayesSamplingWorkload::parts, {1},
          "network partitions (simulated nodes)");
}

bayes::ParallelInferenceConfig BayesSamplingWorkload::build(
    const RunConfig& run) const {
  bayes::ParallelInferenceConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.parts = parts;
  cfg.iterations = iterations;
  return cfg;
}

RunStats BayesSamplingWorkload::with_estimates(
    RunStats stats, const std::vector<bayes::QueryEstimate>& estimates) const {
  auto name = [this](std::size_t i) {
    return i < query_names.size() ? query_names[i]
                                  : "P(query " + std::to_string(i) + ")";
  };
  stats.quality_name = name(0);
  stats.quality = estimates.empty() ? 0.0 : estimates[0].probability;
  for (std::size_t i = 1; i < queries.size(); ++i) {
    stats.extra.emplace_back(
        name(i), i < estimates.size() ? estimates[i].probability : 0.0);
  }
  return stats;
}

RunStats BayesSamplingWorkload::sample(
    const bayes::ParallelInferenceConfig& cfg,
    const rt::MachineConfig& machine) const {
  const auto r = bayes::run_parallel_logic_sampling(network, evidence,
                                                    queries, cfg, machine);
  RunStats stats = with_estimates(r, r.estimates);
  stats.extra.insert(
      stats.extra.end(),
      {{"rollbacks", static_cast<double>(r.rollbacks)},
       {"nodes_resampled", static_cast<double>(r.nodes_resampled)},
       {"validated_samples", static_cast<double>(r.validated_samples)},
       {"converged", r.converged ? 1.0 : 0.0}});
  return stats;
}

RunStats BayesSamplingWorkload::run(const RunConfig& run,
                                    const rt::MachineConfig& machine) {
  return sample(build(run), machine);
}

RunStats BayesSamplingWorkload::reference(const RunConfig& run) const {
  const auto r = bayes::run_logic_sampling(network, evidence, queries,
                                           {.seed = run.seed});
  RunStats stats =
      with_estimates({.completion_time = r.completion_time}, r.estimates);
  stats.extra.insert(
      stats.extra.end(),
      {{"samples_drawn", static_cast<double>(r.samples_drawn)},
       {"samples_used", static_cast<double>(r.samples_used)},
       {"converged", r.converged ? 1.0 : 0.0}});
  return stats;
}

RunStats BayesSamplingWorkload::run_matched(const RunConfig& run,
                                            const rt::MachineConfig& machine,
                                            const RunStats& serial,
                                            const RunStats*) {
  bayes::ParallelInferenceConfig cfg = build(run);
  cfg.iterations =
      static_cast<std::uint64_t>(serial.extra_value("samples_drawn")) * 13 / 10;
  return sample(cfg, machine);
}

sanitize::ToleranceSpec BayesSamplingWorkload::tolerance_spec(
    const RunConfig& run) const {
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // Guard-phase reads are receiver-driven flow control: partial mode polls
  // un-aged inside its free run-ahead window and the rollback machinery
  // tolerates any interim value (corrections supersede), so un-aged reads
  // are legitimate in every mode.
  rule.require_aged = false;
  sanitize::ToleranceSpec spec;
  spec.declare_range(bayes::block_loc(0, 0), bayes::block_loc(parts, 0),
                     rule);
  return spec;
}

// ---- solver.jacobi ---------------------------------------------------------

std::string JacobiWorkload::description() const {
  return "row-block parallel Jacobi on a 2-D Poisson system";
}

JacobiWorkload::JacobiWorkload() {
  declare("grid", &JacobiWorkload::grid, {1},
          "Poisson grid side (n x n unknowns)");
  declare("processors", &JacobiWorkload::processors, {1}, "simulated nodes");
  declare("tolerance", &JacobiWorkload::tolerance, {0.0},
          "residual tolerance");
}

solver::ParallelJacobiConfig JacobiWorkload::build(const RunConfig& run) const {
  solver::ParallelJacobiConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.processors = processors;
  cfg.tolerance = tolerance;
  cfg.check_interval = 25;
  return cfg;
}

namespace {

/// The solver's figure of merit and extras (sequential or parallel
/// solution) over the mechanism fields already in `stats`.
RunStats jacobi_stats(RunStats stats, const solver::JacobiSolution& r) {
  stats.quality_name = "residual";
  stats.quality = r.residual;
  stats.extra = {{"sweeps", static_cast<double>(r.sweeps)},
                 {"error_inf", r.error_inf},
                 {"converged", r.converged ? 1.0 : 0.0}};
  return stats;
}

}  // namespace

RunStats JacobiWorkload::run(const RunConfig& run,
                             const rt::MachineConfig& machine) {
  const auto sys = solver::make_poisson_2d(grid, run.seed);
  const auto r = solver::run_parallel_jacobi(sys, build(run), machine);
  return jacobi_stats(r, r);
}

sanitize::ToleranceSpec JacobiWorkload::tolerance_spec(const RunConfig& run) const {
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // require_aged stays off in every mode: the verified convergence phase
  // legitimately plain-reads boundary blocks after a flushing barrier, and
  // Bertsekas-Tsitsiklis convergence tolerates any finite interim
  // staleness on those paths.
  sanitize::ToleranceSpec spec;
  spec.declare_range(solver::block_loc(0), solver::block_loc(processors),
                     rule);
  return spec;
}

RunStats JacobiWorkload::reference(const RunConfig& run) const {
  const auto r = solver::run_sequential_jacobi(
      solver::make_poisson_2d(grid, run.seed), {.tolerance = tolerance});
  return jacobi_stats({.completion_time = r.completion_time}, r);
}

// ---- nn.train --------------------------------------------------------------

std::string NnTrainWorkload::description() const {
  return "bounded-staleness SGD on the two-spirals MLP";
}

NnTrainWorkload::NnTrainWorkload() {
  declare("steps", &NnTrainWorkload::steps, {1},
          "mini-batch steps per worker");
  declare("workers", &NnTrainWorkload::workers, {1},
          "worker nodes (plus a parameter server)");
}

nn::TrainConfig NnTrainWorkload::build(const RunConfig& run) const {
  nn::TrainConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.workers = workers;
  cfg.steps = steps;
  return cfg;
}

namespace {

RunStats nn_stats(const nn::TrainResult& r) {
  RunStats stats = r;
  stats.quality_name = "final_loss";
  stats.quality = r.final_loss;
  stats.extra = {{"final_accuracy", r.final_accuracy}};
  return stats;
}

}  // namespace

nn::TrainResult NnTrainWorkload::train(const RunConfig& run,
                                       const rt::MachineConfig& machine) const {
  const auto data = nn::make_two_spirals(60, 0.02, run.seed);
  return nn::train_parallel(data, build(run), machine);
}

RunStats NnTrainWorkload::run(const RunConfig& run,
                              const rt::MachineConfig& machine) {
  return nn_stats(train(run, machine));
}

RunStats NnTrainWorkload::run_matched(const RunConfig& run,
                                      const rt::MachineConfig& machine,
                                      const RunStats& serial,
                                      const RunStats*) {
  const nn::TrainResult r = train(run, machine);
  const sim::Time ttq = r.time_to_loss(1.15 * serial.quality);
  RunStats stats = nn_stats(r);
  stats.extra.emplace_back("time_to_quality_s",
                           ttq < 0 ? std::nan("") : sim::to_seconds(ttq));
  return stats;
}

sanitize::ToleranceSpec NnTrainWorkload::tolerance_spec(const RunConfig& run) const {
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // Sync/partial workers always bound their parameter pulls; only the
  // Hogwild-flavoured asynchronous variant reads un-aged.  A not-yet-valid
  // or degraded vector is tolerated: workers fall back to their local
  // parameter copy (stale-gradient SGD still converges).
  rule.require_aged = run.mode != dsm::Mode::kAsynchronous;
  sanitize::ToleranceSpec spec;
  spec.declare(nn::kParamsLoc, rule);
  return spec;
}

RunStats NnTrainWorkload::reference(const RunConfig& run) const {
  return nn_stats(nn::train_sequential(nn::make_two_spirals(60, 0.02, run.seed),
                                       build(run)));
}

}  // namespace nscc::harness
