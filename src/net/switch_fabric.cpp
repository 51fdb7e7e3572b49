#include "net/switch_fabric.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

namespace nscc::net {

sim::Time SwitchFabric::link_time(std::uint32_t payload_bytes) const {
  const double bits =
      static_cast<double>(payload_bytes + config_.packet_overhead_bytes) * 8.0;
  return static_cast<sim::Time>(std::ceil(
      bits / config_.link_bandwidth_bps * static_cast<double>(sim::kSecond)));
}

void SwitchFabric::transmit(
    int src, int dst, std::uint32_t payload_bytes,
    std::function<void(sim::Time delivered_at)> on_delivered) {
  transmit_observed(src, dst, payload_bytes,
                    [cb = std::move(on_delivered)](sim::Time at, bool delivered,
                                                   std::uint64_t /*corrupt*/) {
                      if (delivered && cb) cb(at);
                    });
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
  sim::Time delivered_at = rx_start + wire;
  rx = delivered_at;

  ++stats_.messages;
  stats_.payload_bytes += payload_bytes;
  stats_.tx_busy_time += wire;

  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->complete(track_base_ + src, "switch.tx", tx_start, wire,
                      "dst", dst, "bytes", payload_bytes);
  }

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
        tracer_->instant(track_base_ + src, "fault.loss", now, "dst",
                         dst);
      } else if (verdict.corrupt_seed != 0) {
        tracer_->instant(track_base_ + src, "fault.corrupt", now,
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
    return;
  }
  if (dup_at > 0) {
    // As on the bus: one shared heap node, and only the original copy
    // carries the damage.
    auto cb = std::make_shared<Outcome>(std::move(outcome));
    engine_.schedule(delivered_at, obs::EventKind::kNetwork,
                     [cb, delivered_at, corrupt_seed] {
                       (*cb)(delivered_at, true, corrupt_seed);
                     });
    engine_.schedule(dup_at, obs::EventKind::kNetwork,
                     [cb = std::move(cb), dup_at] { (*cb)(dup_at, true, 0); });
    return;
  }
  auto deliver = [cb = std::move(outcome), delivered_at, corrupt_seed] {
    cb(delivered_at, true, corrupt_seed);
  };
  // The frame's outcome rides its delivery event without a heap node.
  static_assert(sim::Engine::Callback::kStoredInline<decltype(deliver)>);
  engine_.schedule(delivered_at, obs::EventKind::kNetwork, std::move(deliver));
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
