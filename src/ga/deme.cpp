#include "ga/deme.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace nscc::ga {

Deme::Deme(const TestFunction& fn, GaParams params, util::Xoshiro256 rng,
           FitnessCache* cache)
    : fn_(fn), params_(params), rng_(rng), cache_(cache) {
  assert(params_.pop_size >= 2);
  assert(params_.scaling_window >= 1);
}

EvalCount Deme::evaluate(Individual& ind) {
  EvalCount count;
  if (ind.evaluated) return count;
  double fitness = 0.0;
  if (cache_ != nullptr && cache_->lookup(ind.genome, fitness)) {
    ++count.cache_hits;
  } else {
    decode(ind.genome, fn_, x_);
    fitness = fn_.eval(x_, rng_);
    ++count.evaluations;
    if (cache_ != nullptr) cache_->insert(ind.genome, fitness);
  }
  ind.fitness = fitness;
  ind.evaluated = true;
  return count;
}

EvalCount Deme::initialize() {
  population_.assign(static_cast<std::size_t>(params_.pop_size), Individual{});
  EvalCount count;
  for (Individual& ind : population_) {
    ind.genome = util::BitVec(static_cast<std::size_t>(fn_.genome_bits()));
    ind.genome.randomize(rng_);
    ind.evaluated = false;
    count += evaluate(ind);
  }
  worst_window_.clear();
  worst_window_.push_back(worst_fitness());
  generation_ = 0;
  return count;
}

const std::vector<int>& Deme::ranked() const {
  rank_.resize(population_.size());
  std::iota(rank_.begin(), rank_.end(), 0);
  std::sort(rank_.begin(), rank_.end(), [this](int a, int b) {
    return population_[static_cast<std::size_t>(a)].fitness <
           population_[static_cast<std::size_t>(b)].fitness;
  });
  return rank_;
}

const Individual& Deme::best() const {
  assert(!population_.empty());
  return *std::min_element(population_.begin(), population_.end(),
                           [](const Individual& a, const Individual& b) {
                             return a.fitness < b.fitness;
                           });
}

double Deme::worst_fitness() const {
  assert(!population_.empty());
  return std::max_element(population_.begin(), population_.end(),
                          [](const Individual& a, const Individual& b) {
                            return a.fitness < b.fitness;
                          })
      ->fitness;
}

double Deme::average_fitness() const {
  double sum = 0.0;
  for (const Individual& ind : population_) sum += ind.fitness;
  return sum / static_cast<double>(population_.size());
}

void Deme::best_k(int k, std::vector<Individual>& out) const {
  const std::vector<int>& idx = ranked();
  out.resize(static_cast<std::size_t>(
      std::clamp(k, 0, static_cast<int>(idx.size()))));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = population_[static_cast<std::size_t>(idx[i])];
  }
}

void Deme::incorporate(std::span<const Individual> migrants,
                       int replace_count) {
  if (migrants.empty() || replace_count <= 0) return;
  // Best `replace_count` of the incoming pool...
  pool_.clear();
  for (const Individual& m : migrants) pool_.push_back(&m);
  std::sort(pool_.begin(), pool_.end(),
            [](const Individual* a, const Individual* b) {
              return a->fitness < b->fitness;
            });
  const int k = std::min<int>(
      {replace_count, static_cast<int>(pool_.size()),
       static_cast<int>(population_.size())});
  // ...replace the worst k of the population.
  const std::vector<int>& idx = ranked();
  for (int i = 0; i < k; ++i) {
    const int victim =
        idx[static_cast<std::size_t>(static_cast<int>(idx.size()) - 1 - i)];
    population_[static_cast<std::size_t>(victim)] =
        *pool_[static_cast<std::size_t>(i)];
  }
}

void Deme::restore(std::vector<Individual> population, int generation) {
  population_ = std::move(population);
  generation_ = generation;
  worst_window_.clear();
  worst_window_.push_back(worst_fitness());
}

EvalCount Deme::step() {
  assert(!population_.empty() && "initialize() must be called first");
  EvalCount count;

  // Window scaling: fitness' = (worst over last W generations) - fitness.
  const double window_worst =
      *std::max_element(worst_window_.begin(), worst_window_.end());
  wheel_.resize(population_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < population_.size(); ++i) {
    wheel_[i] = std::max(0.0, window_worst - population_[i].fitness);
    total += wheel_[i];
  }

  auto select = [&]() -> const Individual& {
    if (total <= 0.0) {
      // Degenerate scaling (all equal): uniform choice.
      return population_[rng_.below(population_.size())];
    }
    double ball = rng_.uniform01() * total;
    for (std::size_t i = 0; i < wheel_.size(); ++i) {
      ball -= wheel_[i];
      if (ball <= 0.0) return population_[i];
    }
    return population_.back();
  };

  // population_ stays untouched until the swap below, so the elite and
  // the selected parents are read in place.
  const Individual& elite = best();

  // Children are copy-assigned into next_, reusing its genomes' storage,
  // and crossed over in place.  With an odd population the last pair's
  // second child goes to spare_ and is dropped after its mutation draws,
  // which keep the RNG stream of the generation.
  const std::size_t n = population_.size();
  next_.resize(n);
  const std::size_t nbits = static_cast<std::size_t>(fn_.genome_bits());
  const std::uint64_t mutation =
      util::bernoulli_threshold(params_.mutation_rate);
  for (std::size_t i = 0; i < n; i += 2) {
    Individual& a = next_[i];
    Individual& b = i + 1 < n ? next_[i + 1] : spare_;
    a = select();
    b = select();
    if (rng_.bernoulli(params_.crossover_rate)) {
      const std::size_t point = 1 + rng_.below(nbits - 1);
      util::BitVec::crossover(a.genome, b.genome, point);
      a.evaluated = false;
      b.evaluated = false;
    }
    for (Individual* child : {&a, &b}) {
      // One draw per bit on a local copy of the stream: the genome words
      // the loop flips are uint64_t like rng_'s state, so drawing on rng_
      // itself would reload and store its state around every flip.
      util::Xoshiro256 rng = rng_;
      for (std::size_t bit = 0; bit < nbits; ++bit) {
        if (rng.bernoulli_below(mutation)) {
          child->genome.flip(bit);
          child->evaluated = false;
        }
      }
      rng_ = rng;
    }
  }

  for (Individual& child : next_) count += evaluate(child);

  if (params_.elitist) {
    // The best of the previous generation survives, replacing the worst child.
    auto worst_it = std::max_element(next_.begin(), next_.end(),
                                     [](const Individual& a, const Individual& b) {
                                       return a.fitness < b.fitness;
                                     });
    if (worst_it->fitness > elite.fitness) *worst_it = elite;
  }

  population_.swap(next_);
  ++generation_;

  worst_window_.push_back(worst_fitness());
  while (static_cast<int>(worst_window_.size()) > params_.scaling_window) {
    worst_window_.pop_front();
  }
  return count;
}

}  // namespace nscc::ga
