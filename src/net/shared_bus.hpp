// Shared-medium network model standing in for the paper's 10 Mbps Ethernet.
//
// The bus serialises all transmissions FIFO (work-conserving arbitration):
// a frame handed to the bus at time t starts transmitting at
// max(t, busy_until), occupies the medium for (payload + per-frame overhead)
// * 8 / bandwidth, and is delivered after an additional propagation delay.
// Congestion therefore manifests as growing queueing delay — the effect the
// paper's loaded-network experiments (Figure 4) and warp measurements probe.
//
// An attached fault::FaultInjector subjects every frame to the machine's
// FaultPlan through net::deliver_frame (see net/frame.hpp): a lost frame
// still occupies the medium but reports delivered=false.
#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
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
};

/// Aggregate counters for reporting and tests.
struct BusStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  sim::Time busy_time = 0;
};

class SharedBus {
 public:
  SharedBus(sim::Engine& engine, BusConfig config)
      : engine_(engine), config_(config) {}

  SharedBus(const SharedBus&) = delete;
  SharedBus& operator=(const SharedBus&) = delete;

  /// Hand a message of `payload_bytes` to the medium.  `src`/`dst` identify
  /// the endpoints for the fault verdict (-1 = anonymous, e.g. the
  /// background load generator).  `outcome` runs exactly once (see
  /// net::Outcome).
  void transmit(int src, int dst, std::uint32_t payload_bytes,
                Outcome outcome);

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

  /// Fraction of time the medium has been busy since time 0.
  [[nodiscard]] double utilization() const noexcept;

  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BusConfig& config() const noexcept { return config_; }

  /// Attach an event tracer: frames become spans on the bus track (with
  /// queueing shown as a wait arg); contention and fault verdicts become
  /// instants.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attach a fault injector (nullptr detaches; not owned).
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  sim::Engine& engine_;
  BusConfig config_;
  obs::Tracer* tracer_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  sim::Time busy_until_ = 0;
  BusStats stats_;
};

}  // namespace nscc::net
