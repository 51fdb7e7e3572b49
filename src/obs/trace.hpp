// Event tracer keyed by virtual time, exporting Chrome trace-event JSON.
//
// Instrumented code records spans ("X" complete events), instants ("i") and
// counter samples ("C") against a simulated-process track id; the exporter
// writes the trace-event format that chrome://tracing and Perfetto load,
// with one named track per simulated processor (plus dedicated tracks for
// the engine, the shared bus, and switch ports).
//
// Hot-path discipline: record() does no allocation and no formatting — it
// copies POD into a ring buffer (allocated when tracing is first enabled)
// and `name`/arg names must be string literals (they are stored as const
// char* and formatted only at export time).  When the tracer is disabled
// every record call is a single predicted branch.
//
// Flow events ('s' start / 't' step / 'f' end) carry a machine-unique flow
// id and render as arrows between tracks in Perfetto — the DSM stamps one
// per propagated update so a stale read can be traced back to the write
// that produced it.  Flows are gated separately (set_flows) because every
// update costs three-plus ring slots; --flow-trace turns them on.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace nscc::obs {

/// Track ids for shared infrastructure (simulated processors use their own
/// small ids; these are chosen not to collide).
inline constexpr int kEngineTrack = 990;
inline constexpr int kBusTrack = 991;
inline constexpr int kSwitchTrackBase = 1000;  ///< + port number.

class Tracer {
 public:
  struct Event {
    sim::Time ts = 0;        ///< Virtual ns.
    sim::Time dur = 0;       ///< Complete events only.
    const char* name = nullptr;
    const char* a0_name = nullptr;  ///< Optional integer args.
    const char* a1_name = nullptr;
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
    std::uint64_t flow = 0;  ///< Flow id ('s'/'t'/'f' phases only).
    std::int32_t tid = 0;
    char phase = 'i';  ///< 'X' complete, 'i' instant, 'C' counter,
                       ///< 's'/'t'/'f' flow start/step/end.
  };

  /// The ring of `capacity` events is allocated on the first enable(true),
  /// so a tracer that is never switched on costs no memory.
  explicit Tracer(std::size_t capacity = 1 << 18)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void enable(bool on) {
    if (on && ring_.empty()) ring_.resize(capacity_);
    enabled_ = on;
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A span of virtual time [ts, ts+dur] on track `tid`.
  void complete(int tid, const char* name, sim::Time ts, sim::Time dur,
                const char* a0_name = nullptr, std::int64_t a0 = 0,
                const char* a1_name = nullptr, std::int64_t a1 = 0) noexcept {
    if (!enabled_) return;
    push(Event{ts, dur, name, a0_name, a1_name, a0, a1, 0, tid, 'X'});
  }

  /// A point event at virtual time `ts`.
  void instant(int tid, const char* name, sim::Time ts,
               const char* a0_name = nullptr, std::int64_t a0 = 0,
               const char* a1_name = nullptr, std::int64_t a1 = 0) noexcept {
    if (!enabled_) return;
    push(Event{ts, 0, name, a0_name, a1_name, a0, a1, 0, tid, 'i'});
  }

  /// A counter-track sample (renders as a filled area in Perfetto).
  void counter(int tid, const char* name, sim::Time ts,
               std::int64_t value) noexcept {
    if (!enabled_) return;
    push(Event{ts, 0, name, "value", nullptr, value, 0, 0, tid, 'C'});
  }

  /// Flow events: an 's' start on the producing track, any number of 't'
  /// steps on intermediate tracks, and an 'f' end (bind-enclosing) on the
  /// consuming track, all sharing one flow id.  Perfetto draws the arrows.
  /// Gated on set_flows() in addition to enable() — see flows_enabled().
  void flow_begin(int tid, const char* name, sim::Time ts, std::uint64_t id,
                  const char* a0_name = nullptr, std::int64_t a0 = 0,
                  const char* a1_name = nullptr, std::int64_t a1 = 0) noexcept {
    if (!flows_enabled()) return;
    push(Event{ts, 0, name, a0_name, a1_name, a0, a1, id, tid, 's'});
  }
  void flow_step(int tid, const char* name, sim::Time ts, std::uint64_t id,
                 const char* a0_name = nullptr, std::int64_t a0 = 0,
                 const char* a1_name = nullptr, std::int64_t a1 = 0) noexcept {
    if (!flows_enabled()) return;
    push(Event{ts, 0, name, a0_name, a1_name, a0, a1, id, tid, 't'});
  }
  void flow_end(int tid, const char* name, sim::Time ts, std::uint64_t id,
                const char* a0_name = nullptr, std::int64_t a0 = 0,
                const char* a1_name = nullptr, std::int64_t a1 = 0) noexcept {
    if (!flows_enabled()) return;
    push(Event{ts, 0, name, a0_name, a1_name, a0, a1, id, tid, 'f'});
  }

  /// Turn flow recording on/off (independent of enable(): flows add several
  /// ring slots per DSM update, so they are strictly opt-in).
  void set_flows(bool on) noexcept { flows_ = on; }
  [[nodiscard]] bool flows_enabled() const noexcept {
    return enabled_ && flows_;
  }
  /// Allocate a fresh machine-unique flow id (never 0; 0 means "no flow").
  [[nodiscard]] std::uint64_t new_flow() noexcept { return next_flow_++; }

  /// Human-readable track name emitted as thread_name metadata.  The first
  /// registration for a tid wins; re-registering the same name is a no-op
  /// (dedup), a *different* name is a track-id collision — asserted in
  /// debug builds, counted in release (see track_collisions()).
  void set_track_name(int tid, std::string name);
  /// Conflicting set_track_name registrations observed (release builds).
  [[nodiscard]] std::uint64_t track_collisions() const noexcept {
    return track_collisions_;
  }

  /// Reserve a contiguous range of `count` track ids for a component with
  /// many tracks (e.g. one per switch port).  Returns `preferred_base` when
  /// the range is free, otherwise the first non-overlapping base above it —
  /// so two SwitchFabrics sharing one tracer can never collide.
  int claim_tracks(int count, int preferred_base);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events overwritten because the ring filled (oldest are lost first).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Events in record order, oldest first.
  [[nodiscard]] std::vector<Event> events() const;

  [[nodiscard]] std::string to_chrome_json() const;
  /// Write to_chrome_json() to `path`; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  void clear() noexcept;

 private:
  void push(const Event& e) noexcept {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    if (count_ < capacity_) {
      ++count_;
    } else {
      ++dropped_;
    }
  }

  bool enabled_ = false;
  bool flows_ = false;
  std::size_t capacity_;
  std::vector<Event> ring_;  ///< Empty until the first enable(true).
  std::size_t head_ = 0;   ///< Next write position.
  std::size_t count_ = 0;  ///< Valid events in the ring.
  std::uint64_t dropped_ = 0;
  std::uint64_t next_flow_ = 1;
  std::uint64_t track_collisions_ = 0;
  std::map<int, std::string> track_names_;
  std::vector<std::pair<int, int>> claimed_;  ///< [lo, hi) track ranges.
};

}  // namespace nscc::obs
