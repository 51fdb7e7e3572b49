// Engine microbench: raw discrete-event throughput of sim::Engine under a
// mixed event storm (fiber resumes, plain callbacks, watchdog arm/cancel),
// self-measured by obs::Profiler.  This is the number the bench regression
// gate watches for "the simulator itself got slower": events/sec of the run
// loop, peak queue depth, and per-run heap allocations, reported per
// repetition in nscc-bench-v3 JSON (--json-out).
//
// Wall-clock metrics are inherently noisy; compare them with a tolerance
// (nscc-bench-compare --tol=events_per_sec=R), never exactly.
#include <cstdint>
#include <iostream>
#include <string>

#include "harness/sweep.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

struct StormResult {
  nscc::obs::Profiler profiler;
  std::uint64_t events = 0;
};

/// One storm: P fiber processes spinning on delay(), a generic
/// self-rescheduling callback chain, and a watchdog armed+cancelled per
/// chain step — every EventKind the engine tags, in deterministic ratio.
StormResult run_storm(int procs, std::uint64_t target_events) {
  StormResult result;
  nscc::sim::Engine engine;
  engine.set_profiler(&result.profiler);

  // Fibers get ~2/3 of the budget, the callback chain the rest.
  const std::uint64_t per_proc =
      target_events * 2 / 3 / static_cast<std::uint64_t>(procs);
  for (int p = 0; p < procs; ++p) {
    engine.spawn("storm" + std::to_string(p),
                 [per_proc](nscc::sim::Process& self) {
                   for (std::uint64_t i = 0; i < per_proc; ++i) {
                     self.delay(1 * nscc::sim::kMicrosecond);
                   }
                 });
  }
  const std::uint64_t chain_steps = target_events / 3;
  // Chain step: one generic event that also arms and immediately cancels a
  // watchdog (the cancelled timer still occupies the queue — realistic
  // retransmit-timer churn).
  struct Chain {
    nscc::sim::Engine* engine;
    std::uint64_t remaining;
    void step() {
      if (remaining == 0) return;
      --remaining;
      const auto wd = engine->set_watchdog(
          engine->now() + 10 * nscc::sim::kMicrosecond, [] {});
      engine->cancel_watchdog(wd);
      engine->schedule(engine->now() + 1 * nscc::sim::kMicrosecond,
                       [this] { step(); });
    }
  };
  Chain chain{&engine, chain_steps};
  engine.schedule(0, [&chain] { chain.step(); });

  result.profiler.start_run(engine.events_executed());
  engine.run();
  result.profiler.finish_run(engine.events_executed());
  result.events = engine.events_executed();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("events", 200000, "approximate event budget per repetition")
      .range("events", 1)
      .add_int("procs", 8, "fiber processes in the storm")
      .range("procs", 1)
      .add_int("reps", 3, "repetitions (wall-clock noise averaging)")
      .range("reps", 1)
      .add_int("seed", 1, "recorded in the sweep key (the storm itself is "
                          "deterministic)");
  nscc::harness::Sweep sweep("engine_microbench");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);

  const int procs = static_cast<int>(flags.get_int("procs"));
  const auto target = static_cast<std::uint64_t>(flags.get_int("events"));
  const int reps = static_cast<int>(flags.get_int("reps"));

  nscc::util::Table table("Engine microbench: mixed event storm, procs=" +
                          std::to_string(procs));
  table.columns({"rep", "events", "events/sec", "wall ms", "peak queue",
                 "allocs", "alloc KiB"});

  for (int rep = 0; rep < reps; ++rep) {
    StormResult r = run_storm(procs, target);
    const nscc::obs::Profiler& prof = r.profiler;
    table.row()
        .cell(static_cast<std::uint64_t>(rep))
        .cell(prof.events())
        .cell(prof.events_per_sec(), 0)
        .cell(prof.wall_seconds() * 1e3, 2)
        .cell(prof.peak_queue_depth())
        .cell(prof.allocations())
        .cell(static_cast<double>(prof.alloc_bytes()) / 1024.0, 1);

    nscc::harness::SweepRecord rec;
    rec.workload = "engine.storm";
    rec.variant = "mixed";
    rec.age = 0;
    rec.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    rec.repeat = rep;
    rec.params = {{"procs", static_cast<double>(procs)},
                  {"events_target", static_cast<double>(target)}};
    rec.stats = {
        {"events_per_sec", prof.events_per_sec()},
        {"events", static_cast<double>(prof.events())},
        {"wall_s", prof.wall_seconds()},
        {"peak_queue_depth", static_cast<double>(prof.peak_queue_depth())},
        {"allocations", static_cast<double>(prof.allocations())},
        {"alloc_bytes", static_cast<double>(prof.alloc_bytes())},
        {"mean_dispatch_ns",
         prof.dispatch(nscc::obs::EventKind::kProcess).mean()},
    };
    sweep.add(std::move(rec));
  }
  table.print(std::cout);
  if (!sweep.write()) return 1;
  return 0;
}
