#include "solver/jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>

#include "harness/cluster.hpp"
#include "harness/policy.hpp"
#include "recovery/recovery.hpp"

namespace nscc::solver {

namespace {

constexpr int kResidualTag = 800;
constexpr int kDecisionTag = 801;
constexpr int kGatherTag = 802;

/// Contiguous row blocks: owner p holds [starts[p], starts[p+1]).
std::vector<int> block_starts(int size, int parts) {
  std::vector<int> starts(static_cast<std::size_t>(parts) + 1);
  for (int p = 0; p <= parts; ++p) {
    starts[static_cast<std::size_t>(p)] =
        static_cast<int>(static_cast<long long>(size) * p / parts);
  }
  return starts;
}

}  // namespace

JacobiResult run_sequential_jacobi(const LinearSystem& sys,
                                   const JacobiConfig& config) {
  const int n = sys.size();
  JacobiResult result;
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  sim::Time now = 0;
  const auto sweep_cost = static_cast<sim::Time>(sys.a.nonzeros()) *
                              config.cost_per_nonzero +
                          config.sweep_overhead;

  for (int sweep = 1; sweep <= config.max_sweeps; ++sweep) {
    sys.a.jacobi_rows(0, n, sys.b, x, next);
    x.swap(next);
    now += sweep_cost;
    result.sweeps = sweep;
    if (sweep % config.check_interval == 0) {
      now += sweep_cost / 4;  // Residual evaluation pass.
      result.residual = sys.a.residual_inf(x, sys.b);
      if (result.residual <= config.tolerance) {
        result.converged = true;
        break;
      }
    }
  }
  if (!result.converged) result.residual = sys.a.residual_inf(x, sys.b);
  result.completion_time = now;
  double err = 0.0;
  for (int r = 0; r < n; ++r) {
    err = std::max(err, std::fabs(x[static_cast<std::size_t>(r)] -
                                  sys.x_true[static_cast<std::size_t>(r)]));
  }
  result.error_inf = err;
  result.x = std::move(x);
  return result;
}

ParallelJacobiResult run_parallel_jacobi(const LinearSystem& sys,
                                         const ParallelJacobiConfig& config,
                                         const rt::MachineConfig& machine) {
  const int n = sys.size();
  const int P = config.processors;
  const auto starts = block_starts(n, P);
  auto owner_of = [&](int row) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), row);
    return static_cast<int>(it - starts.begin()) - 1;
  };

  // Import sets: which owners' blocks each task needs.
  std::vector<std::set<int>> imports(static_cast<std::size_t>(P));
  for (int r = 0; r < n; ++r) {
    const int me = owner_of(r);
    int count = 0;
    const auto [cols, vals] = sys.a.row(r, count);
    (void)vals;
    for (int i = 0; i < count; ++i) {
      const int o = owner_of(cols[i]);
      if (o != me) imports[static_cast<std::size_t>(me)].insert(o);
    }
  }
  // Reader sets are the transpose.
  std::vector<std::vector<int>> readers(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    for (int src : imports[static_cast<std::size_t>(p)]) {
      readers[static_cast<std::size_t>(src)].push_back(p);
    }
  }

  harness::Cluster cluster(machine, config, P, config.node_speed_spread);
  rt::VirtualMachine& vm = cluster.vm();

  struct Outcome {
    std::vector<double> block;
    int sweeps = 0;
    double residual = 0.0;
  };
  std::vector<Outcome> outcomes(static_cast<std::size_t>(P));

  for (int me = 0; me < P; ++me) {
    vm.add_task("block" + std::to_string(me), [&, me](rt::Task& task) {
      Outcome& out = outcomes[static_cast<std::size_t>(me)];
      util::Xoshiro256 jitter_rng = task.rng().split(0xba5e);
      const double my_speed = cluster.speed(me);
      const int lo = starts[static_cast<std::size_t>(me)];
      const int hi = starts[static_cast<std::size_t>(me) + 1];

      recovery::Coordinator* rc = cluster.recovery();
      dsm::SharedSpace space(task,
                             harness::make_policy(config, {.coalesce = true}));
      space.declare_written(block_loc(me), readers[static_cast<std::size_t>(me)]);
      for (int src : imports[static_cast<std::size_t>(me)]) {
        space.declare_read(block_loc(src), src);
      }

      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      std::vector<double> mine(static_cast<std::size_t>(hi - lo), 0.0);

      std::size_t my_nnz = 0;
      for (int r = lo; r < hi; ++r) {
        int count = 0;
        (void)sys.a.row(r, count);
        my_nnz += static_cast<std::size_t>(count);
      }
      const auto sweep_cost =
          static_cast<sim::Time>(my_nnz) * config.cost_per_nonzero +
          config.sweep_overhead;

      auto publish = [&](dsm::Iteration sweep) {
        rt::Packet p = task.vm().packets().acquire();
        p.reserve(sizeof(std::uint64_t) + mine.size() * sizeof(double));
        p.pack_double_vec(mine);
        space.write(block_loc(me), sweep, std::move(p));
      };
      auto absorb = [&](int src,
                        std::optional<dsm::Iteration> curr_iter = {}) {
        const auto& v = space.read(block_loc(src), curr_iter);
        if (!v.valid) return;
        const int slo = starts[static_cast<std::size_t>(src)];
        const int shi = starts[static_cast<std::size_t>(src) + 1];
        v.data.unpack_double_vec_into(std::span<double>(x).subspan(
            static_cast<std::size_t>(slo), static_cast<std::size_t>(shi - slo)));
      };

      bool done = false;
      int sweep = 0;

      // The residual reduction is an anonymous collective in the legacy
      // format; with recovery enabled each contribution is stamped with its
      // sender and reduce round so the coordinator can skip dead peers and
      // answer a rejoined straggler's replay of an already-finished round.
      auto reduce = [&](double local, int round) {
        if (me == 0) {
          double global = local;
          if (rc == nullptr) {
            for (int i = 1; i < P; ++i) {
              global = std::max(
                  global, task.recv(kResidualTag).payload.unpack_double());
            }
          } else {
            std::vector<bool> got(static_cast<std::size_t>(P), false);
            for (;;) {
              bool need = false;
              for (int i = 1; i < P; ++i) {
                if (!got[static_cast<std::size_t>(i)] && rc->alive(i)) {
                  need = true;
                }
              }
              if (!need) break;
              auto msg = rc->receive(task, kResidualTag);
              if (!msg) continue;  // Re-evaluate membership.
              rt::Packet pl = msg->payload;
              const int sender = pl.unpack_i32();
              const int r = pl.unpack_i32();
              const double v = pl.unpack_double();
              if (r < round) {
                // A rejoined node catching up through a round everyone else
                // finished: tell it to keep sweeping.
                rt::Packet d;
                d.pack_i32(r);
                d.pack_u8(0);
                task.send(sender, kDecisionTag, d);
                continue;
              }
              global = std::max(global, v);
              got[static_cast<std::size_t>(sender)] = true;
            }
          }
          out.residual = global;
          const bool conv = global <= config.tolerance;
          rt::Packet decision;
          if (rc != nullptr) decision.pack_i32(round);
          decision.pack_u8(conv ? 1 : 0);
          for (int i = 1; i < P; ++i) {
            if (rc == nullptr || rc->alive(i)) {
              task.send(i, kDecisionTag, decision);
            }
          }
          return conv;
        }
        rt::Packet p;
        if (rc != nullptr) {
          p.pack_i32(me);
          p.pack_i32(round);
        }
        p.pack_double(local);
        task.send(0, kResidualTag, std::move(p));
        if (rc == nullptr) {
          return task.recv(kDecisionTag).payload.unpack_u8() == 1;
        }
        // Bounded wait: while we sit here we are not publishing, and a
        // coordinator blocked in Global_Read on *our* stale block never
        // reaches the reduce that would answer us.  Giving up after a
        // patience window and sweeping on breaks that cycle; the abandoned
        // round's residual is answered inline at the coordinator's next
        // reduce and discarded here as stale.
        const int patience =
            2 * std::max(1, static_cast<int>(recovery::kPhiThreshold));
        for (int waits = 0;;) {
          auto msg =
              task.recv_timeout(kDecisionTag, rc->config().heartbeat_interval);
          if (!msg) {
            // The coordinator is gone: no decision is coming.  Keep sweeping
            // toward max_sweeps rather than blocking forever.
            if (!rc->alive(0)) return false;
            if (++waits >= patience) return false;
            continue;
          }
          rt::Packet pl = msg->payload;
          const int r = pl.unpack_i32();
          const bool conv = pl.unpack_u8() == 1;
          // A converged decision ends the run whatever its round: under
          // recovery the stop is tentative anyway, and a straggler that
          // abandoned that round must not sweep past the shutdown.
          if (conv) return true;
          if (r < round) continue;  // A decision queued while we were down.
          return conv;
        }
      };

      // Everything a block task needs to continue from a reduce-round
      // boundary: the sweep counter, its own block, and its view of the
      // full vector.  Checkpoints are taken only at reduce boundaries so a
      // restart never replays half a residual collective (the rounds are
      // anonymous counts).
      const recovery::FnCheckpoint snapshot(
          [&] {
            rt::Packet p;
            p.pack_i32(sweep);
            p.pack_double_vec(x);
            p.pack_double_vec(mine);
            return p;
          },
          [&](rt::Packet& p) {
            sweep = p.unpack_i32();
            x = p.unpack_double_vec();
            mine = p.unpack_double_vec();
          });
      const std::int64_t restored =
          rc != nullptr ? rc->restore(task, snapshot) : -1;
      if (restored < 0) {
        publish(0);
        if (rc != nullptr) rc->maybe_checkpoint(task, 0, snapshot);
      } else {
        // Re-announce the restored block: peers with newer copies drop the
        // update as stale; our own local copy must exist to serve demands.
        publish(sweep);
      }

      while (!done && sweep < config.max_sweeps) {
        ++sweep;
        if (config.mode == dsm::Mode::kSynchronous) task.barrier();
        for (int src : imports[static_cast<std::size_t>(me)]) {
          switch (config.mode) {
            case dsm::Mode::kSynchronous:
              (void)space.global_read(block_loc(src), sweep - 1, 0);
              break;
            case dsm::Mode::kPartialAsync:
              (void)space.global_read(block_loc(src), sweep - 1, config.age);
              break;
            case dsm::Mode::kAsynchronous:
              space.poll();
              break;
          }
          // Global_Read already recorded the staleness of what it served;
          // the asynchronous plain read records its own.
          absorb(src, config.mode == dsm::Mode::kAsynchronous
                          ? std::optional<dsm::Iteration>(sweep - 1)
                          : std::nullopt);
        }

        // The sweep kernel runs on a host worker while its virtual cost
        // elapses: it reads and writes only this task's x and mine and the
        // immutable system, and its cost is drawn before it runs.
        const double jitter =
            1.0 + config.per_sweep_jitter * jitter_rng.uniform(-1.0, 1.0);
        task.compute(
            static_cast<sim::Time>(static_cast<double>(sweep_cost) *
                                   my_speed * jitter),
            [&] {
              sys.a.jacobi_rows(lo, hi, sys.b, x, mine);
              std::copy(mine.begin(), mine.end(),
                        x.begin() + static_cast<std::ptrdiff_t>(lo));
            });
        publish(sweep);
        if (rc != nullptr) rc->note_progress(task, sweep);

        // Distributed convergence test: a loose periodic reduction on the
        // (possibly stale) local views, followed by a verified phase when it
        // tentatively passes.  After a barrier every previously published
        // block has been delivered (FIFO bus), so the verified local views
        // equal the final assembled state and the stop decision is exact.
        if (sweep % config.check_interval == 0) {
          auto local_residual = [&] {
            double local = 0.0;
            task.compute(
                static_cast<sim::Time>(
                    static_cast<double>(static_cast<sim::Time>(my_nnz) *
                                        config.cost_per_nonzero) *
                    my_speed / 4.0),
                [&] { local = sys.a.residual_inf(x, sys.b, lo, hi); });
            return local;
          };
          if (reduce(local_residual(), sweep)) {
            if (rc != nullptr) {
              // Recovery mode accepts the tentative decision: the verifying
              // barrier cannot be run while a peer may be dead, so the stop
              // is made on possibly-stale views (part of the degraded-mode
              // quality loss; the driver reports the assembled residual).
              done = true;
            } else {
              // Tentative pass on stale views: verify on flushed, fresh ones.
              task.barrier();
              space.poll();
              for (int src : imports[static_cast<std::size_t>(me)]) {
                absorb(src);
              }
              done = reduce(local_residual(), sweep);
            }
          }
          if (rc != nullptr && !done) {
            // Reduce-round boundary: no collective in flight, safe to snap.
            rc->maybe_checkpoint(task, sweep, snapshot);
          }
        }
      }
      out.sweeps = sweep;
      out.block = mine;
    });
  }

  ParallelJacobiResult result;
  static_cast<harness::RunStats&>(result) = cluster.run();

  // Assemble the final solution from the per-task blocks.
  result.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int p = 0; p < P; ++p) {
    const Outcome& out = outcomes[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < out.block.size(); ++i) {
      result.x[static_cast<std::size_t>(starts[static_cast<std::size_t>(p)]) + i] =
          out.block[i];
    }
    result.sweeps = std::max(result.sweeps, out.sweeps);
  }
  result.residual = sys.a.residual_inf(result.x, sys.b);
  result.converged = result.residual <= config.tolerance;
  double err = 0.0;
  for (int r = 0; r < n; ++r) {
    err = std::max(err, std::fabs(result.x[static_cast<std::size_t>(r)] -
                                  sys.x_true[static_cast<std::size_t>(r)]));
  }
  result.error_inf = err;
  return result;
}

}  // namespace nscc::solver
