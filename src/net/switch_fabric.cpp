#include "net/switch_fabric.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace nscc::net {

sim::Time SwitchFabric::link_time(std::uint32_t payload_bytes) const {
  const double bits =
      static_cast<double>(payload_bytes + config_.packet_overhead_bytes) * 8.0;
  return static_cast<sim::Time>(std::ceil(
      bits / config_.link_bandwidth_bps * static_cast<double>(sim::kSecond)));
}

void SwitchFabric::transmit_observed(int src, int dst,
                                     std::uint32_t payload_bytes,
                                     Outcome outcome) {
  const sim::Time now = engine_.now();
  const sim::Time wire = link_time(payload_bytes);

  auto& tx = tx_busy_[static_cast<std::size_t>(src)];
  const sim::Time tx_start = std::max(now, tx);
  const sim::Time tx_end = tx_start + wire;
  tx = tx_end;

  auto& rx = rx_busy_[static_cast<std::size_t>(dst)];
  const sim::Time rx_start = std::max(tx_end + config_.fabric_latency, rx);
  const sim::Time delivered_at = rx_start + wire;
  rx = delivered_at;

  ++stats_.messages;
  stats_.payload_bytes += payload_bytes;
  stats_.tx_busy_time += wire;

  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->complete(track_base_ + src, "switch.tx", tx_start, wire,
                      "dst", dst, "bytes", payload_bytes);
  }

  deliver_frame(engine_, injector_, tracer_, track_base_ + src, src, dst,
                delivered_at, std::move(outcome));
}

void SwitchFabric::set_tracer(obs::Tracer* tracer) noexcept {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    // Claim a collision-free contiguous track range: with more processors
    // than kSwitchTrackBase (or a second fabric on the same tracer) the
    // preferred base may already be taken, and overlapping it would merge
    // unrelated components onto one exported thread track.
    track_base_ =
        tracer_->claim_tracks(static_cast<int>(tx_busy_.size()),
                              obs::kSwitchTrackBase);
    for (std::size_t p = 0; p < tx_busy_.size(); ++p) {
      tracer_->set_track_name(track_base_ + static_cast<int>(p),
                              "switch.port" + std::to_string(p));
    }
  }
}

double SwitchFabric::utilization() const {
  const auto ports = static_cast<double>(tx_busy_.size());
  const sim::Time elapsed = std::max<sim::Time>(1, engine_.now());
  return static_cast<double>(stats_.tx_busy_time) /
         (ports * static_cast<double>(elapsed));
}

}  // namespace nscc::net
