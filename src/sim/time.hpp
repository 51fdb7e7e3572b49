// Virtual time for the discrete-event simulator.
//
// All computation and communication costs in NSCC are charged in virtual
// nanoseconds; a simulated run's "completion time" is the virtual clock at
// termination, playing the role wall-clock time played on the paper's SP2.
#pragma once

#include <cstdint>

namespace nscc::sim {

/// Virtual nanoseconds.
using Time = std::int64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1'000;
inline constexpr Time kMillisecond = 1'000'000;
inline constexpr Time kSecond = 1'000'000'000;

/// The virtual-time horizon of every run: harness::Cluster stops a run
/// there, and no time flag may name a point or a span past it.
inline constexpr Time kHorizon = 24LL * 3600 * kSecond;

/// Convert virtual time to floating-point seconds (for reporting).
[[nodiscard]] constexpr double to_seconds(Time t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Convert floating-point seconds to virtual time (rounds toward zero).
[[nodiscard]] constexpr Time from_seconds(double s) noexcept {
  return static_cast<Time>(s * static_cast<double>(kSecond));
}

}  // namespace nscc::sim
