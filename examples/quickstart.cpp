// Quickstart: the Global_Read primitive in 60 lines.
//
// A producer task runs an iterative computation and writes a shared
// location once per iteration; a fast consumer reads it with a bounded
// staleness of 3 iterations.  Watch the consumer block (receiver-driven
// flow control) whenever it gets more than 3 iterations ahead.
//
//   $ ./examples/quickstart [--trace-out=trace.json] [--metrics-out=m.csv]
#include <cstdio>
#include <iostream>

#include "dsm/shared_space.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "rt/vm.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace nscc;

int main(int argc, char** argv) {
  util::Flags flags;
  obs::add_flags(flags);
  fault::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  rt::MachineConfig machine;
  machine.ntasks = 2;
  machine.obs = obs::options_from_flags(flags);
  machine.obs.enable = true;  // Always collect; the summary table reads it.
  machine.fault = fault::plan_from_flags(flags);
  machine.transport.enabled = !machine.fault.empty();
  dsm::PropagationPolicy reader_policy;
  reader_policy.read_timeout = fault::read_timeout_from_flags(flags);
  rt::VirtualMachine vm(machine);

  constexpr dsm::LocationId kTemperature = 1;
  constexpr dsm::Iteration kIterations = 12;
  constexpr dsm::Iteration kAge = 3;

  vm.add_task("producer", [](rt::Task& task) {
    dsm::SharedSpace space(task);
    space.declare_written(kTemperature, {1});
    double value = 100.0;
    for (dsm::Iteration iter = 0; iter < kIterations; ++iter) {
      task.compute(20 * sim::kMillisecond);  // Slow iterative solver step.
      value *= 0.9;
      rt::Packet p;
      p.pack_double(value);
      space.write(kTemperature, iter, std::move(p));
    }
  });

  vm.add_task("consumer", [reader_policy](rt::Task& task) {
    dsm::SharedSpace space(task, reader_policy);
    space.declare_read(kTemperature, 0);
    for (dsm::Iteration iter = 0; iter < kIterations; ++iter) {
      // Global_Read(locn, curr_iter, age): returns a value generated no
      // earlier than iteration curr_iter - age, blocking if necessary.
      const auto& v = space.global_read(kTemperature, iter, kAge);
      rt::Packet data = v.data;  // Copy before unpacking.
      std::printf("consumer iter %2lld: temperature=%6.2f (from producer "
                  "iteration %lld, staleness %lld) at t=%.3fs\n",
                  static_cast<long long>(iter), data.unpack_double(),
                  static_cast<long long>(v.iteration),
                  static_cast<long long>(iter - v.iteration),
                  sim::to_seconds(task.now()));
      task.compute(2 * sim::kMillisecond);  // Fast consumer.
    }
    const obs::Registry& reg = task.vm().obs().registry();
    std::printf(
        "consumer blocked %llu times for %.3fs total\n",
        static_cast<unsigned long long>(
            reg.counter_value("dsm.global_read_blocks", task.id())),
        sim::to_seconds(static_cast<sim::Time>(
            reg.counter_value("dsm.global_read_block_time_ns", task.id()))));
  });

  const sim::Time end = vm.run();
  std::printf("simulation finished at t=%.3fs (deadlocked: %s)\n\n",
              sim::to_seconds(end), vm.deadlocked() ? "yes" : "no");

  // End-of-run summary straight from the metrics registry: every layer
  // published into it, so one table covers DSM, runtime, and network.
  const obs::Registry& reg = vm.obs().registry();
  const obs::Histogram* staleness = reg.find_histogram("dsm.staleness");
  util::Table summary("Run metrics (from obs::Registry)");
  summary.columns({"writes", "updates applied", "gr blocks", "block time s",
                   "staleness mean", "msgs sent", "bus util"});
  summary.row()
      .cell(reg.counter_value("dsm.writes", 0))
      .cell(reg.counter_value("dsm.updates_applied", 1))
      .cell(reg.counter_value("dsm.global_read_blocks", 1))
      .cell(static_cast<double>(
                reg.counter_value("dsm.global_read_block_time_ns", 1)) /
                1e9,
            3)
      .cell(staleness != nullptr ? staleness->mean() : 0.0, 2)
      .cell(reg.counter_value("rt.messages_sent", 0) +
            reg.counter_value("rt.messages_sent", 1))
      .cell(reg.gauge_value("net.utilization"), 3);
  summary.print(std::cout);
  return 0;
}
