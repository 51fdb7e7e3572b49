// Shared-medium network model standing in for the paper's 10 Mbps Ethernet.
//
// The bus serialises all transmissions FIFO (work-conserving arbitration):
// a frame handed to the bus at time t starts transmitting at
// max(t, busy_until), occupies the medium for (payload + per-frame overhead)
// * 8 / bandwidth, and is delivered after an additional propagation delay.
// Congestion therefore manifests as growing queueing delay — the effect the
// paper's loaded-network experiments (Figure 4) and warp measurements probe.
// An optional bounded transmit queue with tail drop models the lossy
// behaviour asynchronous algorithms tolerate.
//
// An attached fault::FaultInjector subjects every frame to the machine's
// FaultPlan: lost frames occupy the medium but report delivered=false, so
// callers can account for them (release transport windows, retransmit);
// duplicated frames report a second delivered=true outcome; delayed frames
// simply arrive later (and may reorder).  Tail drops and fault losses are
// also surfaced through an optional per-bus drop hook.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace nscc::net {

struct BusConfig {
  /// Medium bandwidth in bits per second (paper: 10 Mbps Ethernet).
  double bandwidth_bps = 10e6;
  /// One-way propagation + interrupt/DMA latency per frame.
  sim::Time propagation_delay = 50 * sim::kMicrosecond;
  /// Link + transport + PVM header bytes added to every frame.
  std::uint32_t frame_overhead_bytes = 84;
  /// Payload bytes per frame before fragmentation (Ethernet MTU minus
  /// headers).  Messages larger than this pay the overhead once per frame.
  std::uint32_t mtu_payload_bytes = 1460;
  /// Maximum frames waiting to start transmission; 0 means unbounded.
  /// When bounded, excess frames are tail-dropped.
  std::uint32_t max_pending_frames = 0;
};

/// Aggregate counters for reporting and tests.
struct BusStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;     ///< Tail-dropped before the wire.
  std::uint64_t frames_lost = 0;        ///< Fault-injected losses on the wire.
  std::uint64_t frames_duplicated = 0;  ///< Fault-injected duplicates.
  std::uint64_t frames_delayed = 0;     ///< Fault-injected extra delay.
  std::uint64_t frames_corrupted = 0;   ///< Fault-injected payload damage.
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  sim::Time busy_time = 0;
  std::uint32_t pending_high_water = 0;
};

class SharedBus {
 public:
  /// Runs at delivery (delivered=true; possibly twice for a duplicated
  /// frame) or at the moment a fault loses the frame (delivered=false);
  /// always engine context.  A tail-dropped message reports neither — the
  /// transmit() return value covers that case synchronously.
  /// `corrupt_seed` is nonzero when the frame arrived with a damaged
  /// payload (fault::corruption_effect(seed, bytes) describes the damage);
  /// a duplicated frame's second copy always arrives intact.
  ///
  /// Stored inline (no heap allocation) for captures up to 40 bytes; the
  /// delivery event that carries it then still fits the engine's inline
  /// callback.
  using Outcome = sim::InlineFunction<
      void(sim::Time at, bool delivered, std::uint64_t corrupt_seed), 40>;
  /// Observer for every frame the medium abandons (tail drop or fault
  /// loss); `reason` is a static string ("tail_drop", "fault").
  using DropHook =
      std::function<void(int src, int dst, std::uint32_t payload_bytes,
                         const char* reason)>;

  SharedBus(sim::Engine& engine, BusConfig config)
      : engine_(engine), config_(config) {}

  SharedBus(const SharedBus&) = delete;
  SharedBus& operator=(const SharedBus&) = delete;

  /// Hand a message of `payload_bytes` to the medium.  `src`/`dst` identify
  /// the endpoints for per-link fault lookup (-1 = anonymous, e.g. the
  /// background load generator).  Returns false when the bounded queue
  /// tail-dropped the message (`outcome` never runs).
  bool transmit(int src, int dst, std::uint32_t payload_bytes,
                Outcome outcome);

  /// Legacy anonymous-sender form: delivery callback only, fault losses are
  /// silent (the load generator and micro-benchmarks use this).
  bool transmit(std::uint32_t payload_bytes,
                std::function<void(sim::Time delivered_at)> on_delivered);

  /// Time the medium would need to carry `payload_bytes` (excluding queueing
  /// and propagation).
  [[nodiscard]] sim::Time transmission_time(
      std::uint32_t payload_bytes) const noexcept;

  /// Bytes put on the wire for a message of `payload_bytes` (payload plus
  /// per-fragment overhead).
  [[nodiscard]] std::uint64_t wire_bytes_for(
      std::uint32_t payload_bytes) const noexcept;

  /// Queueing delay a message handed over right now would experience before
  /// starting to transmit.
  [[nodiscard]] sim::Time current_backlog() const noexcept;

  /// Frames queued but not yet transmitting.
  [[nodiscard]] std::uint32_t pending_frames() const noexcept {
    return pending_;
  }

  /// Fraction of time the medium has been busy since time 0.
  [[nodiscard]] double utilization() const noexcept;

  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BusConfig& config() const noexcept { return config_; }

  /// Attach an event tracer: frames become spans on the bus track (with
  /// queueing shown as a wait arg), contention and tail drops instants.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attach a fault injector (nullptr detaches; not owned).
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// Attach a drop observer (tail drops and fault losses).
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

 private:
  sim::Engine& engine_;
  BusConfig config_;
  obs::Tracer* tracer_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  DropHook drop_hook_;
  sim::Time busy_until_ = 0;
  std::uint32_t pending_ = 0;
  BusStats stats_;
};

}  // namespace nscc::net
