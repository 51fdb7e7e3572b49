// Tests for the shared-bus Ethernet model and the background load generator:
// transmission timing, FIFO queueing/contention, fragmentation overhead,
// utilization accounting, and offered-load accuracy.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/load_generator.hpp"
#include "net/shared_bus.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace {

using nscc::net::BusConfig;
using nscc::net::LoadGenerator;
using nscc::net::LoadGeneratorConfig;
using nscc::net::SharedBus;
using nscc::sim::Engine;
using nscc::sim::Time;
using nscc::sim::kMicrosecond;
using nscc::sim::kSecond;

/// Hand an anonymous frame to the bus; `on_delivered` sees its arrival.
template <typename F>
void send(SharedBus& bus, std::uint32_t bytes, F on_delivered) {
  bus.transmit(-1, -1, bytes,
               [on_delivered](Time at, bool delivered, std::uint64_t) {
                 if (delivered) on_delivered(at);
               });
}

BusConfig simple_config() {
  BusConfig c;
  c.bandwidth_bps = 10e6;  // 10 Mbps
  c.propagation_delay = 0;
  c.frame_overhead_bytes = 0;
  c.mtu_payload_bytes = 1460;
  return c;
}

TEST(SharedBus, TransmissionTimeMatchesBandwidth) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  // 1250 bytes = 10000 bits at 10 Mbps -> 1 ms.
  EXPECT_EQ(bus.transmission_time(1250), 1 * nscc::sim::kMillisecond);
}

TEST(SharedBus, OverheadAddsPerFrame) {
  auto cfg = simple_config();
  cfg.frame_overhead_bytes = 100;
  cfg.mtu_payload_bytes = 1000;
  Engine eng;
  SharedBus bus(eng, cfg);
  // 2500 payload bytes -> 3 frames -> 300 overhead bytes.
  EXPECT_EQ(bus.wire_bytes_for(2500), 2800u);
  // Zero-byte message still pays one frame of overhead.
  EXPECT_EQ(bus.wire_bytes_for(0), 100u);
}

TEST(SharedBus, DeliveryIncludesPropagation) {
  auto cfg = simple_config();
  cfg.propagation_delay = 70 * kMicrosecond;
  Engine eng;
  SharedBus bus(eng, cfg);
  Time delivered = -1;
  send(bus, 1250, [&](Time t) { delivered = t; });
  eng.run();
  EXPECT_EQ(delivered, 1 * nscc::sim::kMillisecond + 70 * kMicrosecond);
}

TEST(SharedBus, FifoContentionSerializesFrames) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  std::vector<Time> deliveries;
  // Three 1250-byte messages handed over simultaneously: 1ms each.
  for (int i = 0; i < 3; ++i) {
    send(bus, 1250, [&](Time t) { deliveries.push_back(t); });
  }
  eng.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], 1 * nscc::sim::kMillisecond);
  EXPECT_EQ(deliveries[1], 2 * nscc::sim::kMillisecond);
  EXPECT_EQ(deliveries[2], 3 * nscc::sim::kMillisecond);
}

TEST(SharedBus, BacklogReflectsQueuedWork) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  EXPECT_EQ(bus.current_backlog(), 0);
  send(bus, 1250, [](Time) {});
  send(bus, 1250, [](Time) {});
  EXPECT_EQ(bus.current_backlog(), 2 * nscc::sim::kMillisecond);
  eng.run();
  EXPECT_EQ(bus.current_backlog(), 0);
}

TEST(SharedBus, UtilizationTracksBusyFraction) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  send(bus, 1250, [](Time) {});  // 1 ms busy
  eng.run();
  eng.schedule(4 * nscc::sim::kMillisecond, [] {});
  eng.run();
  EXPECT_NEAR(bus.utilization(), 0.25, 1e-9);
}

TEST(SharedBus, StatsAccumulate) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  send(bus, 100, [](Time) {});
  send(bus, 200, [](Time) {});
  eng.run();
  EXPECT_EQ(bus.stats().frames_sent, 2u);
  EXPECT_EQ(bus.stats().payload_bytes, 300u);
}

TEST(LoadGenerator, AchievesOfferedLoad) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  LoadGeneratorConfig cfg;
  cfg.offered_bps = 2e6;  // 2 Mbps on a 10 Mbps bus
  cfg.frame_payload_bytes = 1024;
  cfg.seed = 99;
  LoadGenerator gen(eng, bus, cfg);
  const Time horizon = 5 * kSecond;
  eng.schedule(horizon, [&] { gen.stop(); });
  eng.run(horizon);
  const double achieved_bps =
      static_cast<double>(bus.stats().payload_bytes) * 8.0 /
      nscc::sim::to_seconds(horizon);
  EXPECT_NEAR(achieved_bps, 2e6, 0.05 * 2e6);
  EXPECT_NEAR(bus.utilization(), 0.2, 0.02);
}

TEST(LoadGenerator, ZeroLoadInjectsNothing) {
  Engine eng;
  SharedBus bus(eng, simple_config());
  LoadGeneratorConfig cfg;
  cfg.offered_bps = 0.0;
  LoadGenerator gen(eng, bus, cfg);
  eng.run();
  EXPECT_EQ(gen.frames_injected(), 0u);
  EXPECT_EQ(bus.stats().frames_sent, 0u);
}

TEST(LoadGenerator, PeriodicModeIsDeterministic) {
  auto run_once = [] {
    Engine eng;
    SharedBus bus(eng, simple_config());
    LoadGeneratorConfig cfg;
    cfg.offered_bps = 1e6;
    cfg.poisson = false;
    LoadGenerator gen(eng, bus, cfg);
    eng.schedule(kSecond, [&] { gen.stop(); });
    eng.run(kSecond);
    return bus.stats().frames_sent;
  };
  const auto a = run_once();
  EXPECT_EQ(a, run_once());
  EXPECT_GT(a, 100u);
}

}  // namespace
