// Background traffic source reproducing the paper's "network loader program".
//
// The paper loads the shared Ethernet at 0.5 / 1 / 2 Mbps from two dedicated
// SP2 nodes while the benchmarks run on four others (Figure 4).  This
// process injects frames into the SharedBus at a configured offered load,
// with optionally jittered (exponential) inter-departure times.
#pragma once

#include <cstdint>
#include <functional>

#include "net/shared_bus.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace nscc::net {

struct LoadGeneratorConfig {
  /// Offered load in bits per second of payload (0 disables the generator).
  double offered_bps = 0.0;
  /// Payload bytes per injected frame.
  std::uint32_t frame_payload_bytes = 1024;
  /// Jitter inter-departure times exponentially (mean preserved); when
  /// false, departures are strictly periodic.
  bool poisson = true;
  std::uint64_t seed = 0x10adULL;
};

/// Spawns a simulator process that keeps the bus loaded for the whole run.
/// The process stops injecting when `stop()` is called (the experiment
/// drivers call it once the benchmark tasks finish, so the run can drain).
class LoadGenerator {
 public:
  LoadGenerator(sim::Engine& engine, SharedBus& bus,
                const LoadGeneratorConfig& config);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void stop() noexcept { running_ = false; }

  [[nodiscard]] std::uint64_t frames_injected() const noexcept {
    return frames_injected_;
  }

 private:
  bool running_ = true;
  std::uint64_t frames_injected_ = 0;
  util::Xoshiro256 rng_;
  /// The self-rescheduling injection event.  Scheduled copies call it
  /// through `this`, so the generator must outlive the engine's run.
  std::function<void()> inject_;
};

}  // namespace nscc::net
