// Regenerates Table 1 (the eight-function GA test bed) and verifies that the
// sequential GA drives each function toward its published minimum: per
// function we report the limits, the published min f(x), the best fitness
// our GA reaches, the average population fitness, how many repetitions found
// the global optimum (the paper's solution-quality metric), and the fitness
// cache hit rate of the serial program [19].
#include <cstdio>
#include <iostream>

#include "ga/functions.hpp"
#include "ga/sequential.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("generations", 400, "generations per run (paper: 1000)")
      .range("generations", 1)
      .add_int("reps", 5, "repetitions with different seeds (paper: 25)")
      .range("reps", 1)
      .add_int("pop", 50, "population size N")
      .range("pop", 2)
      .add_int("seed", 1, "base seed")
      .add_bool("paper-scale", false, "use the paper's 1000 gens x 25 reps");
  if (!flags.parse(argc, argv)) return 1;

  int generations = static_cast<int>(flags.get_int("generations"));
  int reps = static_cast<int>(flags.get_int("reps"));
  if (flags.get_bool("paper-scale")) {
    generations = 1000;
    reps = 25;
  }

  nscc::util::Table table("Table 1 - eight-function GA test bed");
  table.columns({"fn", "name", "vars", "limits", "paper min f(x)",
                 "best found", "avg fitness", "optimum found", "cache hits"});

  for (const auto& fn : nscc::ga::dejong_testbed()) {
    double best = 1e300;
    double avg = 0.0;
    double hit_rate = 0.0;
    int found = 0;
    const double tol = nscc::ga::optimum_tolerance(fn);
    for (int rep = 0; rep < reps; ++rep) {
      nscc::ga::SequentialGaConfig cfg;
      cfg.function_id = fn.id;
      cfg.pop_size = static_cast<int>(flags.get_int("pop"));
      cfg.generations = generations;
      cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed")) +
                 1000ULL * static_cast<std::uint64_t>(rep);
      const auto result = nscc::ga::run_sequential_ga(cfg);
      best = std::min(best, result.best_fitness);
      avg += result.final_average;
      hit_rate += result.cache_hit_rate();
      if (result.best_fitness <= fn.global_min + tol) ++found;
    }
    char limits[64];
    std::snprintf(limits, sizeof limits, "[%g, %g]", fn.lo, fn.hi);
    char found_str[32];
    std::snprintf(found_str, sizeof found_str, "%d/%d", found, reps);
    table.row()
        .cell(static_cast<std::int64_t>(fn.id))
        .cell(fn.name)
        .cell(static_cast<std::int64_t>(fn.nvars))
        .cell(limits)
        .cell(fn.global_min, 5)
        .cell(best, 5)
        .cell(avg / reps, 4)
        .cell(found_str)
        .cell(hit_rate / reps, 3);
  }
  table.print(std::cout);
  return 0;
}
