#include "net/shared_bus.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace nscc::net {

sim::Time SharedBus::transmission_time(
    std::uint32_t payload_bytes) const noexcept {
  const double bits = static_cast<double>(wire_bytes_for(payload_bytes)) * 8.0;
  return static_cast<sim::Time>(
      std::ceil(bits / config_.bandwidth_bps * static_cast<double>(sim::kSecond)));
}

std::uint64_t SharedBus::wire_bytes_for(
    std::uint32_t payload_bytes) const noexcept {
  const std::uint64_t frames =
      std::max<std::uint64_t>(1, (payload_bytes + config_.mtu_payload_bytes - 1) /
                                     config_.mtu_payload_bytes);
  return payload_bytes + frames * config_.frame_overhead_bytes;
}

sim::Time SharedBus::current_backlog() const noexcept {
  return std::max<sim::Time>(0, busy_until_ - engine_.now());
}

double SharedBus::utilization() const noexcept {
  const sim::Time elapsed = std::max<sim::Time>(
      1, std::max(engine_.now(), busy_until_));
  // busy_time already counts scheduled future transmissions.
  return static_cast<double>(stats_.busy_time) / static_cast<double>(elapsed);
}

void SharedBus::transmit(int src, int dst, std::uint32_t payload_bytes,
                         Outcome outcome) {
  const sim::Time now = engine_.now();
  const sim::Time start = std::max(now, busy_until_);
  const sim::Time tx = transmission_time(payload_bytes);
  const sim::Time end = start + tx;
  busy_until_ = end;

  ++stats_.frames_sent;
  stats_.payload_bytes += payload_bytes;
  stats_.wire_bytes += wire_bytes_for(payload_bytes);
  stats_.busy_time += tx;

  if (tracer_ != nullptr && tracer_->enabled()) {
    // Frame occupancy as a span on the bus track; acquisition wait (medium
    // contention) is surfaced both as the wait arg and a contend instant.
    tracer_->complete(obs::kBusTrack, "bus.frame", start, tx, "bytes",
                      payload_bytes, "wait_ns", start - now);
    if (start > now) {
      tracer_->instant(obs::kBusTrack, "bus.contend", now, "backlog_ns",
                       start - now);
    }
  }

  deliver_frame(engine_, injector_, tracer_, obs::kBusTrack, src, dst,
                end + config_.propagation_delay, std::move(outcome));
}

}  // namespace nscc::net
