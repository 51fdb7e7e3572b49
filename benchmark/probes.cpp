#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dsm/shared_space.hpp"
#include "fault/fault.hpp"
#include "net/shared_bus.hpp"
#include "net/switch_fabric.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace nscc::benchmark {

namespace {

constexpr int kAppTag = 7;
/// Virtual horizon for the probes' own machines: far beyond any healthy
/// probe, so only a wedged one reaches it.
constexpr sim::Time kProbeHorizon = 3600 * sim::kSecond;

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::uint64_t allocs_now() noexcept { return obs::alloc_counts().count; }

/// A packet of `bytes` serialised bytes (its length prefix included).
rt::Packet packet_of(std::uint32_t bytes) {
  const std::vector<std::uint8_t> body(bytes > 8 ? bytes - 8 : 0, 0x5a);
  rt::Packet p;
  p.pack_bytes(body.data(), body.size());
  return p;
}

/// Run a probe machine to completion; a deadlocked or runaway probe is a
/// failed operation, not a data point.
void run_probe_machine(rt::VirtualMachine& vm, const char* probe) {
  const sim::Time end = vm.run(kProbeHorizon);
  if (vm.deadlocked() || end >= kProbeHorizon) {
    throw std::runtime_error(std::string(probe) + " probe never completed");
  }
}

}  // namespace

void add_percentiles(Metrics& out, const std::string& name,
                     std::vector<double> samples, const std::string& unit) {
  std::sort(samples.begin(), samples.end());
  out.push_back({name + ".p50", nearest_rank(samples, 0.50), unit});
  out.push_back({name + ".p99", nearest_rank(samples, 0.99), unit});
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void probe_sim(const ProbeContext& ctx, Metrics& out) {
  SpanLog& log = *ctx.log;

  // Dispatch: one self-rescheduling chain per simulated node shares one
  // engine, so the queue is as wide as the workload's.  Each sample is a
  // batch of about 1000 events.
  constexpr std::uint64_t kBatch = 1000;
  sim::Engine engine;
  std::uint64_t budget = 0;
  struct Chain {
    sim::Engine* engine;
    std::uint64_t* budget;
    sim::Time period;
    void arm() {
      // A 40-byte capture: the size class of the network's delivery
      // closures (an outcome std::function plus a time and a seed), which
      // std::function keeps on the heap.
      const std::array<std::uint64_t, 4> payload{};
      engine->schedule(engine->now() + period, obs::EventKind::kNetwork,
                       [this, payload] {
                         (void)payload;
                         if (*budget == 0) return;
                         --*budget;
                         arm();
                       });
    }
  };
  std::vector<Chain> chains;
  for (int p = 0; p < ctx.nodes; ++p) {
    chains.push_back(Chain{&engine, &budget, (p + 1) * sim::kMicrosecond});
  }
  std::vector<double> event_ns;
  event_ns.reserve(static_cast<std::size_t>(ctx.samples));
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = allocs_now();
  for (int i = 0; i < ctx.samples; ++i) {
    budget = kBatch;
    const std::uint64_t executed = engine.events_executed();
    const int span = log.begin("sim.event_batch", ctx.parent, ctx.run_id);
    for (Chain& c : chains) c.arm();
    engine.run();
    const auto ns = static_cast<double>(log.end(span));
    const std::uint64_t n = engine.events_executed() - executed;
    events += n;
    event_ns.push_back(ns / static_cast<double>(n));
  }
  const std::uint64_t allocs = allocs_now() - allocs_before;

  // Fiber switch: one process's delay() round trip (schedule, yield,
  // dispatch, resume), timed from inside the fiber.
  std::vector<double> switch_ns;
  switch_ns.reserve(static_cast<std::size_t>(ctx.samples));
  sim::Engine fibers;
  fibers.spawn("probe", [&](sim::Process& self) {
    for (int i = 0; i < ctx.samples; ++i) {
      const int span = log.begin("sim.delay", ctx.parent, ctx.run_id);
      self.delay(sim::kMicrosecond);
      switch_ns.push_back(static_cast<double>(log.end(span)));
    }
  });
  fibers.run();

  add_percentiles(out, "sim.event_ns", std::move(event_ns), "ns");
  add_percentiles(out, "sim.fiber_switch_ns", std::move(switch_ns), "ns");
  out.push_back({"sim.allocs_per_event",
                 static_cast<double>(allocs) / static_cast<double>(events),
                 "count"});
}

namespace {

/// Time batches of frames handed to `transmit` and delivered by `engine`;
/// returns host ns per frame, one sample per batch.
template <typename Transmit>
std::vector<double> time_frames(const ProbeContext& ctx, sim::Engine& engine,
                                Transmit transmit) {
  constexpr int kFrames = 32;  // Amortises the clock reads over a batch.
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(ctx.samples));
  for (int i = 0; i < ctx.samples; ++i) {
    const int span = ctx.log->begin("net.frames", ctx.parent, ctx.run_id);
    for (int f = 0; f < kFrames; ++f) {
      const int src = f % ctx.nodes;
      transmit(src, (src + 1) % ctx.nodes);
    }
    engine.run();
    ns.push_back(static_cast<double>(ctx.log->end(span)) / kFrames);
  }
  return ns;
}

}  // namespace

void probe_net(const ProbeContext& ctx, Metrics& out) {
  sim::Engine engine;
  std::unique_ptr<fault::FaultInjector> injector;
  if (!ctx.machine.fault.empty()) {
    injector = std::make_unique<fault::FaultInjector>(ctx.machine.fault);
  }
  std::uint64_t outcomes = 0;
  auto outcome = [&outcomes](sim::Time, bool, std::uint64_t) { ++outcomes; };
  std::vector<double> ns;
  if (ctx.machine.network == rt::Network::kSp2Switch) {
    net::SwitchFabric fabric(engine, ctx.nodes, ctx.machine.sp2_switch);
    fabric.set_fault_injector(injector.get());
    ns = time_frames(ctx, engine, [&](int src, int dst) {
      fabric.transmit_observed(src, dst, ctx.update_bytes, outcome);
    });
  } else {
    net::SharedBus bus(engine, ctx.machine.bus);
    bus.set_fault_injector(injector.get());
    ns = time_frames(ctx, engine, [&](int src, int dst) {
      bus.transmit(src, dst, ctx.update_bytes, outcome);
    });
  }
  add_percentiles(out, "net.frame_ns", std::move(ns), "ns");
}

void probe_rt(const ProbeContext& ctx, Metrics& out) {
  SpanLog& log = *ctx.log;
  rt::MachineConfig machine = ctx.machine;
  machine.ntasks = 2;
  rt::VirtualMachine vm(machine);
  std::vector<double> one_way_ns;
  one_way_ns.reserve(static_cast<std::size_t>(ctx.samples));
  // The payload bounces between the tasks by move, so every allocation
  // counted below belongs to the runtime, not to the probe.
  vm.add_task("ping", [&](rt::Task& task) {
    rt::Packet payload = packet_of(ctx.update_bytes);
    for (int i = 0; i < ctx.samples; ++i) {
      const int span = log.begin("rt.round_trip", ctx.parent, ctx.run_id);
      task.send(1, kAppTag, std::move(payload));
      payload = task.recv(kAppTag).payload;
      one_way_ns.push_back(static_cast<double>(log.end(span)) / 2.0);
    }
  });
  vm.add_task("pong", [&](rt::Task& task) {
    for (int i = 0; i < ctx.samples; ++i) {
      rt::Message m = task.recv(kAppTag);
      task.send(0, kAppTag, std::move(m.payload));
    }
  });
  const std::uint64_t allocs_before = allocs_now();
  run_probe_machine(vm, "rt");
  const std::uint64_t allocs = allocs_now() - allocs_before;
  add_percentiles(out, "rt.msg_ns", std::move(one_way_ns), "ns");
  out.push_back({"rt.allocs_per_msg",
                 static_cast<double>(allocs) / (2.0 * ctx.samples), "count"});
}

void probe_dsm(const ProbeContext& ctx, Metrics& out) {
  SpanLog& log = *ctx.log;
  // The reader starts behind the writer and runs slower, so each
  // Global_Read finds its update already delivered: the probe times the
  // read path, not a wait for the writer.  The writer's gap exceeds every
  // workload's update wire time (2.7 KB on the 10 Mbps bus takes 2.3 ms).
  constexpr sim::Time kWriterGap = 10 * sim::kMillisecond;
  constexpr sim::Time kReaderGap = 11 * sim::kMillisecond;
  constexpr sim::Time kReaderLag = 20 * sim::kMillisecond;
  constexpr dsm::LocationId kLoc = 1;

  rt::MachineConfig machine = ctx.machine;
  machine.ntasks = 2;
  rt::VirtualMachine vm(machine);
  harness::PolicyOptions options = ctx.policy;
  options.transport_enabled = machine.transport.enabled;
  const dsm::PropagationPolicy policy = harness::make_policy(ctx.run, options);
  // Values are built before the allocation count starts: building them is
  // the application's cost, not the DSM's.
  std::vector<rt::Packet> values(
      static_cast<std::size_t>(ctx.samples),
      packet_of(ctx.update_bytes > kDsmHeaderBytes
                    ? ctx.update_bytes - kDsmHeaderBytes
                    : 8));
  std::vector<double> write_ns;
  std::vector<double> read_ns;
  write_ns.reserve(values.size());
  read_ns.reserve(values.size());

  vm.add_task("writer", [&](rt::Task& task) {
    dsm::SharedSpace space(task, policy);
    space.declare_written(kLoc, {1});
    for (int i = 0; i < ctx.samples; ++i) {
      const int span = log.begin("dsm.write", ctx.parent, ctx.run_id);
      space.write(kLoc, i, std::move(values[static_cast<std::size_t>(i)]));
      write_ns.push_back(static_cast<double>(log.end(span)));
      task.compute(kWriterGap);
    }
    // Stay alive (serving read demands) until the reader is done: a lost
    // final update must stay re-fetchable.
    (void)task.recv(kAppTag);
  });
  vm.add_task("reader", [&](rt::Task& task) {
    dsm::SharedSpace space(task, policy);
    space.declare_read(kLoc, 0);
    task.compute(kReaderLag);
    for (int i = 0; i < ctx.samples; ++i) {
      const int span = log.begin("dsm.global_read", ctx.parent, ctx.run_id);
      (void)space.global_read(kLoc, i, ctx.run.age);
      read_ns.push_back(static_cast<double>(log.end(span)));
      task.compute(kReaderGap);
    }
    task.send(0, kAppTag, rt::Packet{});
  });
  const std::uint64_t allocs_before = allocs_now();
  run_probe_machine(vm, "dsm");
  const std::uint64_t allocs = allocs_now() - allocs_before;
  add_percentiles(out, "dsm.write_ns", std::move(write_ns), "ns");
  add_percentiles(out, "dsm.global_read_ns", std::move(read_ns), "ns");
  out.push_back({"dsm.allocs_per_update",
                 static_cast<double>(allocs) / ctx.samples, "count"});
}

}  // namespace nscc::benchmark
