#include "ga/island.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "ga/chromosome.hpp"
#include "harness/cluster.hpp"
#include "harness/policy.hpp"
#include "recovery/recovery.hpp"

namespace nscc::ga {

namespace {

struct DemeOutcome {
  std::vector<std::pair<sim::Time, double>> best_points;
  std::vector<std::pair<sim::Time, double>> avg_points;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  dsm::Iteration final_age = 0;
  std::uint64_t age_adjustments = 0;
};

}  // namespace

IslandResult run_island_ga(const IslandConfig& config,
                           const rt::MachineConfig& machine) {
  const TestFunction& fn = test_function(config.function_id);
  harness::Cluster cluster(machine, config, config.ndemes,
                           config.compute.node_speed_spread);
  rt::VirtualMachine& vm = cluster.vm();
  std::vector<DemeOutcome> outcomes(static_cast<std::size_t>(config.ndemes));

  for (int d = 0; d < config.ndemes; ++d) {
    vm.add_task("deme" + std::to_string(d), [&, d](rt::Task& task) {
      DemeOutcome& out = outcomes[static_cast<std::size_t>(d)];
      const double my_speed = cluster.speed(d);
      util::Xoshiro256 jitter_rng = task.rng().split(0xba5e);

      // The deme honours the run's full policy and adds the sync
      // reliable-updates rule, via the shared harness mapping.
      recovery::Coordinator* rc = cluster.recovery();
      dsm::PropagationPolicy prop = harness::make_policy(
          config, {.full = true,
                   .sync_reliable_updates = true,
                   .transport_enabled = task.vm().config().transport.enabled});
      dsm::SharedSpace space(task, prop);
      std::vector<int> readers;
      for (int r = 0; r < config.ndemes; ++r) {
        if (r != d) readers.push_back(r);
      }
      space.declare_written(migrant_loc(d), readers);
      for (int r = 0; r < config.ndemes; ++r) {
        if (r != d) space.declare_read(migrant_loc(r), r);
      }

      FitnessCache cache;
      GaParams params = config.params;
      params.pop_size = config.deme_size;
      Deme deme(fn, params, task.rng().split(0xdee),
                config.use_fitness_cache ? &cache : nullptr);

      double best_so_far = std::numeric_limits<double>::infinity();
      auto charge = [&](const EvalCount& count, sim::Time extra) {
        const double jitter =
            1.0 + config.compute.per_gen_jitter * jitter_rng.uniform(-1.0, 1.0);
        const sim::Time work =
            static_cast<sim::Time>(count.evaluations) * fn.eval_cost +
            static_cast<sim::Time>(count.cache_hits) *
                config.compute.cache_hit_cost +
            static_cast<sim::Time>(params.pop_size) *
                config.compute.op_cost_per_individual +
            extra;
        task.compute(static_cast<sim::Time>(static_cast<double>(work) *
                                            my_speed * jitter));
        if (jitter_rng.bernoulli(config.compute.stall_probability)) {
          task.compute(static_cast<sim::Time>(jitter_rng.uniform(
              static_cast<double>(config.compute.stall_min),
              static_cast<double>(config.compute.stall_max))));
        }
        out.evaluations += static_cast<std::uint64_t>(count.evaluations);
        out.cache_hits += static_cast<std::uint64_t>(count.cache_hits);
      };
      auto record = [&] {
        best_so_far = std::min(best_so_far, deme.best().fitness);
        out.best_points.emplace_back(task.now(), best_so_far);
        out.avg_points.emplace_back(task.now(), deme.average_fitness());
      };
      std::vector<Individual> migrants;  // Reused by every publish.
      auto publish = [&](dsm::Iteration gen) {
        rt::Packet p = task.vm().packets().acquire();
        deme.best_k(config.migrants, migrants);
        p.reserve(sizeof(std::uint32_t) + migrants.size() * migrant_bytes(fn));
        p.pack_u32(static_cast<std::uint32_t>(migrants.size()));
        for (const Individual& m : migrants) pack_individual(p, m, fn);
        space.write(migrant_loc(d), gen, std::move(p));
      };

      // Freshest migrant iteration already incorporated, per source deme.
      std::map<int, dsm::Iteration> taken;

      // Crash-restart: a respawned incarnation restores the last snapshot
      // (its evolved population, the best-so-far tracker and the migrant
      // frontier) and continues from its generation; the adaptive-age
      // controller and scaling-window history restart fresh (part of the
      // quality delta a crash costs).
      const recovery::FnCheckpoint snapshot(
          [&] {
            rt::Packet p;
            p.pack_i32(deme.generation());
            p.pack_double(best_so_far);
            p.pack_u32(static_cast<std::uint32_t>(taken.size()));
            for (const auto& [src, iter] : taken) {
              p.pack_i32(src);
              p.pack_i64(iter);
            }
            const auto& pop = deme.population();
            p.pack_u32(static_cast<std::uint32_t>(pop.size()));
            for (const Individual& ind : pop) pack_individual(p, ind, fn);
            return p;
          },
          [&](rt::Packet& p) {
            const int gen = p.unpack_i32();
            best_so_far = p.unpack_double();
            taken.clear();
            const std::uint32_t ntaken = p.unpack_u32();
            for (std::uint32_t i = 0; i < ntaken; ++i) {
              const int src = p.unpack_i32();
              taken[src] = p.unpack_i64();
            }
            const std::uint32_t n = p.unpack_u32();
            std::vector<Individual> pop(n);
            for (Individual& ind : pop) unpack_individual(p, fn, ind);
            deme.restore(std::move(pop), gen);
          });
      const std::int64_t restored =
          rc != nullptr ? rc->restore(task, snapshot) : -1;
      if (restored < 0) {
        charge(deme.initialize(), 0);
        record();
        publish(0);
        if (rc != nullptr) rc->maybe_checkpoint(task, 0, snapshot);
      } else {
        // Re-announce the restored state: peers with newer copies drop the
        // update as stale; our own local copy must exist to serve demands.
        record();
        publish(restored);
      }

      // Dynamic age setting (paper Section 6): per-deme controller fed one
      // observation per generation.
      dsm::AdaptiveAgeController controller(config.adaptive);
      const bool adaptive =
          config.adaptive_age && config.mode == dsm::Mode::kPartialAsync;
      sim::Time last_gen_start = task.now();
      sim::Time last_block_time = 0;

      // Reused across generations: the copy of a source's migrant buffer
      // (unpacking consumes it) and the decoded pool, whose first `pooled`
      // entries are this generation's migrants.
      rt::Packet data;
      std::vector<Individual> pool;

      // Generation 0 is covered by either the initialize+publish above or
      // the restored checkpoint, so the loop resumes after it.
      for (int gen = static_cast<int>(restored < 0 ? 0 : restored) + 1;
           gen <= config.generations; ++gen) {
        if (config.mode == dsm::Mode::kSynchronous) task.barrier();
        const dsm::Iteration age = adaptive ? controller.age() : config.age;
        double gen_max_staleness = 0.0;

        std::size_t pooled = 0;
        for (int r = 0; r < config.ndemes; ++r) {
          if (r == d) continue;
          const dsm::SharedSpace::Value* v = nullptr;
          switch (config.mode) {
            case dsm::Mode::kSynchronous:
              v = &space.global_read(migrant_loc(r), gen - 1, 0);
              break;
            case dsm::Mode::kPartialAsync:
              v = &space.global_read(migrant_loc(r), gen - 1, age);
              gen_max_staleness =
                  std::max(gen_max_staleness,
                           static_cast<double>(gen - 1 - v->iteration));
              break;
            case dsm::Mode::kAsynchronous:
              v = &space.read(migrant_loc(r), gen - 1);
              break;
          }
          if (!v->valid || v->iteration <= taken[r]) continue;
          taken[r] = v->iteration;
          data = v->data;
          const std::uint32_t count = data.unpack_u32();
          for (std::uint32_t i = 0; i < count; ++i, ++pooled) {
            if (pooled == pool.size()) pool.emplace_back();
            unpack_individual(data, fn, pool[pooled]);
          }
        }
        if (pooled > 0) {
          deme.incorporate(std::span(pool).first(pooled), config.migrants);
          charge(EvalCount{},
                 static_cast<sim::Time>(pooled) *
                     config.compute.migration_cost_per_individual);
        }

        charge(deme.step(), 0);
        record();
        publish(gen);
        // A generation boundary is restart-safe: the publish above already
        // carries everything peers may demand from this deme.
        if (rc != nullptr) rc->maybe_checkpoint(task, gen, snapshot);

        if (adaptive) {
          const sim::Time now = task.now();
          const sim::Time blocked =
              space.stats().global_read_block_time - last_block_time;
          controller.observe(now - last_gen_start, blocked, gen_max_staleness);
          last_gen_start = now;
          last_block_time = space.stats().global_read_block_time;
        }
      }

      out.final_age = adaptive ? controller.age() : config.age;
      out.age_adjustments = controller.increases() + controller.decreases();
    });
  }

  IslandResult result;
  static_cast<harness::RunStats&>(result) = cluster.run();

  // Merge per-deme best-so-far points into a global prefix-min trajectory.
  std::vector<std::pair<sim::Time, double>> merged;
  for (int d = 0; d < config.ndemes; ++d) {
    const DemeOutcome& out = outcomes[static_cast<std::size_t>(d)];
    merged.insert(merged.end(), out.best_points.begin(), out.best_points.end());
    result.evaluations += out.evaluations;
    result.cache_hits += out.cache_hits;
    result.mean_final_age += static_cast<double>(out.final_age) /
                             static_cast<double>(config.ndemes);
    result.age_adjustments += out.age_adjustments;
  }
  std::sort(merged.begin(), merged.end());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [t, f] : merged) {
    if (f < best) {
      best = f;
      result.global_best.points.emplace_back(t, best);
    }
  }
  result.best_fitness = best;

  // Global average fitness: step-function merge of the per-deme averages.
  struct Sample {
    sim::Time t;
    int deme;
    double avg;
  };
  std::vector<Sample> samples;
  for (int d = 0; d < config.ndemes; ++d) {
    for (const auto& [t, a] : outcomes[static_cast<std::size_t>(d)].avg_points) {
      samples.push_back({t, d, a});
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.t < b.t; });
  std::vector<double> last(static_cast<std::size_t>(config.ndemes));
  std::vector<bool> seen(static_cast<std::size_t>(config.ndemes), false);
  int seen_count = 0;
  for (const Sample& s : samples) {
    if (!seen[static_cast<std::size_t>(s.deme)]) {
      seen[static_cast<std::size_t>(s.deme)] = true;
      ++seen_count;
    }
    last[static_cast<std::size_t>(s.deme)] = s.avg;
    if (seen_count == config.ndemes) {
      double sum = 0.0;
      for (double v : last) sum += v;
      result.global_average.points.emplace_back(
          s.t, sum / static_cast<double>(config.ndemes));
    }
  }
  result.final_average = result.global_average.points.empty()
                             ? std::numeric_limits<double>::infinity()
                             : result.global_average.points.back().second;
  return result;
}

}  // namespace nscc::ga
