#include "net/shared_bus.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
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

bool SharedBus::transmit(std::uint32_t payload_bytes,
                         std::function<void(sim::Time)> on_delivered) {
  return transmit(-1, -1, payload_bytes,
                  [cb = std::move(on_delivered)](sim::Time at, bool delivered,
                                                 std::uint64_t /*corrupt*/) {
                    if (delivered && cb) cb(at);
                  });
}

bool SharedBus::transmit(int src, int dst, std::uint32_t payload_bytes,
                         Outcome outcome) {
  if (config_.max_pending_frames != 0 &&
      pending_ >= config_.max_pending_frames) {
    ++stats_.frames_dropped;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(obs::kBusTrack, "bus.drop", engine_.now(), "bytes",
                       payload_bytes);
    }
    if (drop_hook_) drop_hook_(src, dst, payload_bytes, "tail_drop");
    return false;
  }

  const sim::Time now = engine_.now();
  const sim::Time start = std::max(now, busy_until_);
  const sim::Time tx = transmission_time(payload_bytes);
  const sim::Time end = start + tx;
  sim::Time delivered_at = end + config_.propagation_delay;
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

  if (start > now) {
    ++pending_;
    stats_.pending_high_water = std::max(stats_.pending_high_water, pending_);
    engine_.schedule(start, obs::EventKind::kNetwork, [this] { --pending_; });
  }

  // Fault judgement: a lost frame has already occupied the medium (wire
  // time is charged above) — it dies between the wire and the receiver.
  bool lost = false;
  sim::Time dup_at = 0;
  std::uint64_t corrupt_seed = 0;
  if (injector_ != nullptr) {
    const auto verdict = injector_->judge(src, dst, now, delivered_at);
    stats_.frames_lost += verdict.drop ? 1 : 0;
    stats_.frames_duplicated += verdict.duplicate ? 1 : 0;
    stats_.frames_delayed += verdict.extra_delay > 0 ? 1 : 0;
    stats_.frames_corrupted += verdict.corrupt_seed != 0 ? 1 : 0;
    lost = verdict.drop;
    corrupt_seed = verdict.corrupt_seed;
    delivered_at += verdict.extra_delay;
    if (verdict.duplicate) dup_at = delivered_at + verdict.duplicate_delay;
    if (tracer_ != nullptr && tracer_->enabled()) {
      if (verdict.drop) {
        tracer_->instant(obs::kBusTrack, "fault.loss", now, "src", src, "dst",
                         dst);
      } else if (verdict.duplicate) {
        tracer_->instant(obs::kBusTrack, "fault.dup", now, "src", src, "dst",
                         dst);
      } else if (verdict.extra_delay > 0) {
        tracer_->instant(obs::kBusTrack, "fault.delay", now, "extra_ns",
                         verdict.extra_delay);
      }
      if (verdict.corrupt_seed != 0) {
        tracer_->instant(obs::kBusTrack, "fault.corrupt", now, "src", src,
                         "dst", dst);
      }
    }
    if (lost && drop_hook_) drop_hook_(src, dst, payload_bytes, "fault");
  }

  if (lost) {
    engine_.schedule(delivered_at, obs::EventKind::kNetwork,
                     [cb = std::move(outcome), delivered_at] {
                       cb(delivered_at, false, 0);
                     });
    return true;
  }
  if (dup_at > 0) {
    // Two deliveries share one callback through one heap node (the rare
    // fault path; every other frame's outcome rides its event inline).
    // Only the original carries the damage: the duplicate models a
    // link-level retransmit whose second copy arrived intact.
    auto cb = std::make_shared<Outcome>(std::move(outcome));
    engine_.schedule(delivered_at, obs::EventKind::kNetwork,
                     [cb, delivered_at, corrupt_seed] {
                       (*cb)(delivered_at, true, corrupt_seed);
                     });
    engine_.schedule(dup_at, obs::EventKind::kNetwork,
                     [cb = std::move(cb), dup_at] { (*cb)(dup_at, true, 0); });
    return true;
  }
  auto deliver = [cb = std::move(outcome), delivered_at, corrupt_seed] {
    cb(delivered_at, true, corrupt_seed);
  };
  // The frame's outcome rides its delivery event without a heap node.
  static_assert(sim::Engine::Callback::kStoredInline<decltype(deliver)>);
  engine_.schedule(delivered_at, obs::EventKind::kNetwork, std::move(deliver));
  return true;
}

}  // namespace nscc::net
