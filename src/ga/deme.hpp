// Generational GA engine for one (sub)population.
//
// Implements the paper's GA class (Section 4.2.1) with DeJong's settings:
// population size N, crossover rate C, bit mutation rate M, generation gap
// G = 1 (full replacement), scaling window W, and elitist selection (S = E).
// Selection is roulette-wheel on window-scaled fitness; crossover is
// one-point.  All problems are minimisation.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "ga/chromosome.hpp"
#include "ga/fitness_cache.hpp"
#include "ga/functions.hpp"
#include "util/rng.hpp"

namespace nscc::ga {

struct GaParams {
  int pop_size = 50;            ///< N
  double crossover_rate = 0.6;  ///< C
  double mutation_rate = 0.001; ///< M (per bit)
  int scaling_window = 1;       ///< W (generations of worst-fitness history)
  bool elitist = true;          ///< S = E
};

/// Cost-relevant counters for one operation (the simulator charges
/// virtual CPU per evaluation / cache hit).
struct EvalCount {
  int evaluations = 0;
  int cache_hits = 0;

  EvalCount& operator+=(const EvalCount& o) noexcept {
    evaluations += o.evaluations;
    cache_hits += o.cache_hits;
    return *this;
  }
};

class Deme {
 public:
  /// `cache` may be nullptr to disable fitness caching.
  Deme(const TestFunction& fn, GaParams params, util::Xoshiro256 rng,
       FitnessCache* cache = nullptr);

  /// Create and evaluate the initial random population.
  EvalCount initialize();

  /// Advance one generation (selection, crossover, mutation, evaluation,
  /// elitism).  Requires initialize() first.
  EvalCount step();

  [[nodiscard]] const Individual& best() const;
  [[nodiscard]] double worst_fitness() const;
  [[nodiscard]] double average_fitness() const;

  /// Copy the k best individuals into `out` (resized to k, or to the
  /// population size if smaller), ascending fitness (best first).  Copies
  /// are assigned, so a reused `out` keeps its genomes' storage.
  void best_k(int k, std::vector<Individual>& out) const;

  /// Replace the worst individuals with the best `replace_count` of the
  /// incoming pool (the paper's "replace the worst ... with these
  /// migrants", bounded so a deme is never wiped out by P-1 senders).
  void incorporate(std::span<const Individual> migrants, int replace_count);

  /// Checkpoint restore: adopt an already-evaluated population as the state
  /// at `generation`.  The scaling window restarts from the population's
  /// current worst (its deeper history is not worth checkpointing).
  void restore(std::vector<Individual> population, int generation);

  [[nodiscard]] int generation() const noexcept { return generation_; }
  [[nodiscard]] const std::vector<Individual>& population() const noexcept {
    return population_;
  }
  [[nodiscard]] const TestFunction& function() const noexcept { return fn_; }

 private:
  EvalCount evaluate(Individual& ind);
  /// Indices into population_ sorted by ascending fitness, in rank_.
  const std::vector<int>& ranked() const;

  const TestFunction& fn_;
  GaParams params_;
  util::Xoshiro256 rng_;
  FitnessCache* cache_;
  std::vector<Individual> population_;
  // Per-step scratch, kept across generations so a step reuses its storage.
  std::vector<Individual> next_;  ///< Children; swapped with population_.
  Individual spare_;              ///< Odd pop_size: the last pair's 2nd child.
  std::vector<double> wheel_;     ///< Roulette-wheel slot widths.
  std::vector<double> x_;         ///< Decoded variables of the evaluee.
  mutable std::vector<int> rank_;  ///< ranked()'s result.
  std::vector<const Individual*> pool_;  ///< incorporate()'s migrant order.
  std::deque<double> worst_window_;  ///< Worst raw fitness per generation (W deep).
  int generation_ = 0;
};

}  // namespace nscc::ga
