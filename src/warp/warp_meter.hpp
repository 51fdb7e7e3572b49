// Warp metric (Park [14], as used in the paper's Section 4.3).
//
// A warp sample at node i with respect to node j is the ratio of the
// difference in arrival times of two consecutive messages from j to the
// difference in their send times.  Warp ~= 1 on a stable network; values
// much larger than 1 indicate rising load.  The runtime records a sample
// for every delivered message, "above PVM", exactly as the paper measured.
//
// State lives in a dense receiver x sender table, so recording a delivery is
// two index computations and no tree lookup or allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace nscc::warp {

class WarpMeter {
 public:
  WarpMeter() = default;
  /// Pre-size the table for node ids [0, nodes); record() grows it on
  /// demand for larger ids.
  explicit WarpMeter(int nodes) { grow(nodes); }

  /// Record a delivery at `receiver` of a message from `sender` that was
  /// handed to the network at `send_time` and arrived at `arrival_time`.
  void record(int receiver, int sender, sim::Time send_time,
              sim::Time arrival_time);

  /// Distribution of warp samples over all (receiver, sender) pairs.
  [[nodiscard]] const util::RunningStats& overall() const noexcept {
    return overall_;
  }

  /// Distribution for one directed pair; empty stats when never observed.
  [[nodiscard]] util::RunningStats pair(int receiver, int sender) const;

  [[nodiscard]] std::uint64_t samples() const noexcept {
    return overall_.count();
  }

  void reset();

 private:
  struct Last {
    sim::Time send_time = 0;
    sim::Time arrival_time = 0;
    bool valid = false;
  };

  struct Pair {
    Last last;
    util::RunningStats stats;
  };

  /// Re-lay the table for node ids [0, nodes), keeping every pair's state.
  void grow(int nodes);
  [[nodiscard]] std::size_t index(int receiver, int sender) const noexcept {
    return static_cast<std::size_t>(receiver) *
               static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(sender);
  }

  int nodes_ = 0;
  std::vector<Pair> table_;  ///< [receiver * nodes_ + sender].
  util::RunningStats overall_;
};

}  // namespace nscc::warp
