#include "net/load_generator.hpp"

#include <cmath>

namespace nscc::net {

LoadGenerator::LoadGenerator(sim::Engine& engine, SharedBus& bus,
                             const LoadGeneratorConfig& config)
    : rng_(config.seed) {
  if (config.offered_bps <= 0.0) {
    running_ = false;
    return;
  }
  const double mean_period_s =
      static_cast<double>(config.frame_payload_bytes) * 8.0 /
      config.offered_bps;

  // Self-rescheduling injection event; pure engine-context, no fiber needed.
  inject_ = [this, &engine, &bus, config, mean_period_s] {
    if (!running_) return;
    bus.transmit(-1, -1, config.frame_payload_bytes,
                 [](sim::Time, bool, std::uint64_t) {});
    ++frames_injected_;
    const double period_s = config.poisson
                                ? rng_.exponential(1.0 / mean_period_s)
                                : mean_period_s;
    engine.schedule(engine.now() + sim::from_seconds(period_s),
                    [this] { inject_(); });
  };
  engine.schedule(engine.now(), [this] { inject_(); });
}

}  // namespace nscc::net
