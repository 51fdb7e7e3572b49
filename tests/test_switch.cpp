// Tests for the SP2 switch-fabric interconnect: per-port serialisation,
// absence of global-medium contention, latency accounting, and end-to-end
// behaviour through the runtime.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "ga/island.hpp"
#include "net/shared_bus.hpp"
#include "net/switch_fabric.hpp"
#include "obs/trace.hpp"
#include "rt/vm.hpp"
#include "sim/engine.hpp"

namespace {

using nscc::net::SwitchConfig;
using nscc::net::SwitchFabric;
using nscc::sim::Engine;
using nscc::sim::Time;
using nscc::sim::kMicrosecond;

/// Carry a frame across the fabric; `on_delivered` sees its arrival.
template <typename F>
void send(SwitchFabric& fabric, int src, int dst, std::uint32_t bytes,
          F on_delivered) {
  fabric.transmit_observed(
      src, dst, bytes, [on_delivered](Time at, bool delivered, std::uint64_t) {
        if (delivered) on_delivered(at);
      });
}

SwitchConfig simple_switch() {
  SwitchConfig c;
  c.link_bandwidth_bps = 100e6;  // 12.5 MB/s: 1000 bytes = 80 us.
  c.fabric_latency = 10 * kMicrosecond;
  c.packet_overhead_bytes = 0;
  return c;
}

TEST(SwitchFabric, LinkTimeMatchesBandwidth) {
  Engine eng;
  SwitchFabric fabric(eng, 4, simple_switch());
  EXPECT_EQ(fabric.link_time(1000), 80 * kMicrosecond);
}

TEST(SwitchFabric, DeliveryIsTxPlusLatencyPlusRx) {
  Engine eng;
  SwitchFabric fabric(eng, 2, simple_switch());
  Time delivered = -1;
  send(fabric, 0, 1, 1000, [&](Time t) { delivered = t; });
  eng.run();
  EXPECT_EQ(delivered, 80 * kMicrosecond + 10 * kMicrosecond + 80 * kMicrosecond);
}

TEST(SwitchFabric, DisjointPairsDoNotContend) {
  // 0->1 and 2->3 simultaneously: both deliver as if alone (full bisection),
  // unlike the shared bus where the second would queue.
  Engine eng;
  SwitchFabric fabric(eng, 4, simple_switch());
  std::vector<Time> deliveries;
  send(fabric, 0, 1, 1000, [&](Time t) { deliveries.push_back(t); });
  send(fabric, 2, 3, 1000, [&](Time t) { deliveries.push_back(t); });
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], deliveries[1]);
}

TEST(SwitchFabric, SameSourceSerialisesOnTxPort) {
  Engine eng;
  SwitchFabric fabric(eng, 4, simple_switch());
  std::vector<Time> deliveries;
  send(fabric, 0, 1, 1000, [&](Time t) { deliveries.push_back(t); });
  send(fabric, 0, 2, 1000, [&](Time t) { deliveries.push_back(t); });
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  // The second message starts its TX only after the first finishes.
  EXPECT_EQ(deliveries[1] - deliveries[0], 80 * kMicrosecond);
}

TEST(SwitchFabric, SameDestinationSerialisesOnRxPort) {
  Engine eng;
  SwitchFabric fabric(eng, 4, simple_switch());
  std::vector<Time> deliveries;
  send(fabric, 0, 2, 1000, [&](Time t) { deliveries.push_back(t); });
  send(fabric, 1, 2, 1000, [&](Time t) { deliveries.push_back(t); });
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_GT(deliveries[1], deliveries[0]);
}

/// Fate of a burst of frames from node 0 to node 1 on either interconnect
/// under a plan that loses and corrupts frames: (delivered, corrupt seed)
/// per frame in arrival order, and the verdicts traced on the model's
/// track.
struct VerdictRun {
  std::vector<std::pair<bool, std::uint64_t>> outcomes;
  int traced_losses = 0;
  int traced_corruptions = 0;
};

constexpr int kBurstFrames = 16;

template <typename Transmit>
VerdictRun judged_burst(Engine& eng, nscc::obs::Tracer& tracer,
                        Transmit transmit) {
  VerdictRun run;
  for (int i = 0; i < kBurstFrames; ++i) {
    transmit([&run](Time, bool delivered, std::uint64_t corrupt_seed) {
      run.outcomes.emplace_back(delivered, corrupt_seed);
    });
  }
  eng.run();
  for (const auto& e : tracer.events()) {
    const std::string name = e.name;
    run.traced_losses += name == "fault.loss" ? 1 : 0;
    run.traced_corruptions += name == "fault.corrupt" ? 1 : 0;
  }
  return run;
}

nscc::fault::FaultPlan lossy_plan() {
  nscc::fault::FaultPlan plan;
  plan.seed = 5;
  plan.link.loss_prob = 0.3;
  plan.link.corrupt_prob = 0.3;
  return plan;
}

// The switch ends every frame in the bus's fault-and-delivery step: the
// same verdicts (drawn from the same stream) lose and damage the same
// frames, and each is counted once and traced on the sender's port track.
TEST(SwitchFabric, FaultVerdictsTakeTheBusPath) {
  Engine bus_eng;
  nscc::obs::Tracer bus_trace;
  bus_trace.enable(true);
  nscc::fault::FaultInjector bus_faults(lossy_plan());
  nscc::net::SharedBus bus(bus_eng, {});
  bus.set_tracer(&bus_trace);
  bus.set_fault_injector(&bus_faults);
  const VerdictRun on_bus =
      judged_burst(bus_eng, bus_trace, [&bus](nscc::net::Outcome out) {
        bus.transmit(0, 1, 1000, std::move(out));
      });

  Engine sw_eng;
  nscc::obs::Tracer sw_trace;
  sw_trace.enable(true);
  nscc::fault::FaultInjector sw_faults(lossy_plan());
  SwitchFabric fabric(sw_eng, 2, simple_switch());
  fabric.set_tracer(&sw_trace);
  fabric.set_fault_injector(&sw_faults);
  const VerdictRun on_switch =
      judged_burst(sw_eng, sw_trace, [&fabric](nscc::net::Outcome out) {
        fabric.transmit_observed(0, 1, 1000, std::move(out));
      });

  ASSERT_EQ(on_bus.outcomes.size(), static_cast<std::size_t>(kBurstFrames));
  EXPECT_EQ(on_bus.outcomes, on_switch.outcomes);
  for (const auto* faults : {&bus_faults, &sw_faults}) {
    EXPECT_EQ(faults->stats().frames_judged,
              static_cast<std::uint64_t>(kBurstFrames));
    EXPECT_GT(faults->stats().frames_lost, 0u);
    EXPECT_GT(faults->stats().frames_corrupted, 0u);
  }
  for (const VerdictRun* run : {&on_bus, &on_switch}) {
    EXPECT_EQ(static_cast<std::uint64_t>(run->traced_losses),
              bus_faults.stats().frames_lost);
    EXPECT_EQ(static_cast<std::uint64_t>(run->traced_corruptions),
              bus_faults.stats().frames_corrupted);
  }
}

TEST(SwitchFabric, RuntimeIntegrationPingPong) {
  nscc::rt::MachineConfig cfg;
  cfg.ntasks = 2;
  cfg.network = nscc::rt::Network::kSp2Switch;
  nscc::rt::VirtualMachine vm(cfg);
  int got = 0;
  vm.add_task("a", [&](nscc::rt::Task& t) {
    nscc::rt::Packet p;
    p.pack_i32(41);
    t.send(1, 1, std::move(p));
    got = t.recv(2).payload.unpack_i32();
  });
  vm.add_task("b", [](nscc::rt::Task& t) {
    auto m = t.recv(1);
    nscc::rt::Packet p;
    p.pack_i32(m.payload.unpack_i32() + 1);
    t.send(0, 2, std::move(p));
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(got, 42);
  // The Ethernet bus carried nothing.
  EXPECT_EQ(vm.bus().stats().frames_sent, 0u);
  EXPECT_EQ(vm.sp2_switch().stats().messages, 2u);
}

TEST(SwitchFabric, GaScalesFurtherThanEthernetAt16) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 1;
  cfg.mode = nscc::dsm::Mode::kSynchronous;
  cfg.ndemes = 16;
  cfg.generations = 30;
  cfg.seed = 3;
  const auto ethernet = nscc::ga::run_island_ga(cfg, {});
  nscc::rt::MachineConfig machine;
  machine.network = nscc::rt::Network::kSp2Switch;
  const auto sp2 = nscc::ga::run_island_ga(cfg, machine);
  EXPECT_FALSE(sp2.deadlocked);
  // The switch removes the shared-medium bottleneck: faster sync runs and
  // negligible per-port utilisation where the Ethernet was queueing.
  EXPECT_LT(sp2.completion_time, ethernet.completion_time);
  EXPECT_LT(sp2.bus_utilization, 0.5);
}

}  // namespace
