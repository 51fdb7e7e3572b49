// Point-to-point switched interconnect standing in for the IBM SP2's
// high-performance switch (paper Section 4.1: the SP2 had both the Ethernet
// our main experiments model and a high-speed switch; the paper expects
// applications with higher communication demands to keep benefiting from
// non-strict coherence on the faster fabric).
//
// Model: full-bisection multistage switch.  Each node has a dedicated
// injection (TX) and reception (RX) link of `link_bandwidth_bps`; a message
// serialises on its source's TX link, crosses the fabric with a fixed
// latency, then serialises on the destination's RX link.  Unlike the shared
// bus there is no global medium contention — only per-port queueing.
// An attached fault::FaultInjector subjects every message to the machine's
// FaultPlan through the same net::deliver_frame step as the shared bus.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nscc::net {

struct SwitchConfig {
  /// Per-port bandwidth (SP2 TB2-class: ~40 MB/s).
  double link_bandwidth_bps = 320e6;
  /// Fabric crossing latency (hardware + adapter).
  sim::Time fabric_latency = 40 * sim::kMicrosecond;
  /// Per-packet header bytes.
  std::uint32_t packet_overhead_bytes = 32;
};

struct SwitchStats {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  sim::Time tx_busy_time = 0;  ///< Summed over ports.
};

class SwitchFabric {
 public:
  SwitchFabric(sim::Engine& engine, int ports, SwitchConfig config)
      : engine_(engine),
        config_(config),
        tx_busy_(static_cast<std::size_t>(ports), 0),
        rx_busy_(static_cast<std::size_t>(ports), 0) {}

  SwitchFabric(const SwitchFabric&) = delete;
  SwitchFabric& operator=(const SwitchFabric&) = delete;

  /// Carry `payload_bytes` from port `src` to port `dst`.  Always accepted
  /// (link-level flow control is modelled by the runtime's sender window);
  /// `outcome` runs as on the bus (see net::Outcome).
  void transmit_observed(int src, int dst, std::uint32_t payload_bytes,
                         Outcome outcome);

  /// Serialisation time of a message on one link.
  [[nodiscard]] sim::Time link_time(std::uint32_t payload_bytes) const;

  /// Mean TX-port utilisation since time 0.
  [[nodiscard]] double utilization() const;

  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }

  /// Attach an event tracer: TX-link occupancy becomes spans, and fault
  /// verdicts instants, on the sender's per-port switch track.
  void set_tracer(obs::Tracer* tracer) noexcept;

  /// Attach a fault injector (nullptr detaches; not owned).
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  sim::Engine& engine_;
  SwitchConfig config_;
  obs::Tracer* tracer_ = nullptr;
  /// First track id of this fabric's per-port tracks, claimed from the
  /// tracer in set_tracer() so multiple fabrics (or many processors) can
  /// never collide with kSwitchTrackBase.
  int track_base_ = obs::kSwitchTrackBase;
  fault::FaultInjector* injector_ = nullptr;
  std::vector<sim::Time> tx_busy_;
  std::vector<sim::Time> rx_busy_;
  SwitchStats stats_;
};

}  // namespace nscc::net
