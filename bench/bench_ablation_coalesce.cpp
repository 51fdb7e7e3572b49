// Ablation A1: sender-side update coalescing (the buffering freedom the
// paper attributes to asynchronous DSMs, Section 1/2).  A bursty writer
// updates one shared location faster than the congested bus can carry it;
// with coalescing, at most one update per reader is in flight and bursts
// merge into the newest value.  We report messages sent, updates merged,
// the staleness the reader observes, and the writer-side completion time,
// across bus loads.
#include <iostream>

#include "dsm/shared_space.hpp"
#include "fault/fault.hpp"
#include "net/load_generator.hpp"
#include "obs/obs.hpp"
#include "rt/vm.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

struct Outcome {
  std::uint64_t updates_sent = 0;
  std::uint64_t coalesced = 0;
  double reader_final_staleness = 0.0;
  double completion_s = 0.0;
};

Outcome run(bool coalesce, double load_mbps, int writes,
            const nscc::obs::Options& obs_options,
            const nscc::fault::FaultPlan& fault_plan,
            nscc::sim::Time read_timeout) {
  nscc::rt::MachineConfig cfg;
  cfg.ntasks = 2;
  cfg.obs = obs_options;
  cfg.fault = fault_plan;
  cfg.transport.enabled = !fault_plan.empty();
  nscc::rt::VirtualMachine vm(cfg);
  Outcome out;
  vm.add_task("writer", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t, {.coalesce = coalesce});
    space.declare_written(1, {1});
    for (int i = 0; i < writes; ++i) {
      nscc::rt::Packet p;
      p.pack_double_vec(std::vector<double>(64, static_cast<double>(i)));
      space.write(1, i, std::move(p));
      t.compute(nscc::sim::kMillisecond / 2);  // Burstier than the wire.
    }
    t.compute(nscc::sim::kSecond);  // Let the bus drain.
  });
  vm.add_task("reader", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t, {.read_timeout = read_timeout});
    space.declare_read(1, 0);
    // Wait until the final value (or a fresher one) arrives.
    (void)space.global_read(1, writes - 1, 0);
    out.reader_final_staleness =
        static_cast<double>(writes - 1 - space.local_iteration(1));
  });
  nscc::net::LoadGenerator loader(vm.engine(), vm.bus(),
                                  {.offered_bps = load_mbps * 1e6,
                                   .frame_payload_bytes = 1024,
                                   .poisson = true,
                                   .seed = 5});
  out.completion_s = nscc::sim::to_seconds(vm.run());
  loader.stop();
  const nscc::obs::Registry& reg = vm.obs().registry();
  out.updates_sent = reg.counter_value("dsm.updates_sent", 0);
  out.coalesced = reg.counter_value("dsm.updates_coalesced", 0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("writes", 400, "updates the writer produces")
      .range("writes", 1);
  nscc::obs::add_flags(flags);
  nscc::fault::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  const int writes = static_cast<int>(flags.get_int("writes"));
  const nscc::fault::FaultPlan fault_plan = nscc::fault::plan_from_flags(flags);
  const nscc::sim::Time read_timeout =
      nscc::fault::read_timeout_from_flags(flags);
  // Each traced run overwrites the outputs; the surviving files describe
  // the last configuration (coalescing under the heaviest load).
  const nscc::obs::Options obs_options = nscc::obs::options_from_flags(flags);

  nscc::util::Table table("Ablation A1 - sender-side update coalescing");
  table.columns({"bus load", "policy", "updates sent", "merged",
                 "completion s"});
  for (double load : {0.0, 4.0, 8.0}) {
    for (bool coalesce : {false, true}) {
      const auto out =
          run(coalesce, load, writes, obs_options, fault_plan, read_timeout);
      table.row()
          .cell(nscc::util::format_double(load, 0) + " Mbps")
          .cell(coalesce ? "coalesce" : "immediate")
          .cell(out.updates_sent)
          .cell(out.coalesced)
          .cell(out.completion_s, 3);
    }
  }
  table.print(std::cout);
  return 0;
}
