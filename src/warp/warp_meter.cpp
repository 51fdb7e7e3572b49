#include "warp/warp_meter.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nscc::warp {

void WarpMeter::grow(int nodes) {
  if (nodes <= nodes_) return;
  std::vector<Pair> table(static_cast<std::size_t>(nodes) *
                          static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes_; ++r) {
    for (int s = 0; s < nodes_; ++s) {
      table[static_cast<std::size_t>(r) * static_cast<std::size_t>(nodes) +
            static_cast<std::size_t>(s)] = std::move(table_[index(r, s)]);
    }
  }
  table_ = std::move(table);
  nodes_ = nodes;
}

void WarpMeter::record(int receiver, int sender, sim::Time send_time,
                       sim::Time arrival_time) {
  assert(receiver >= 0 && sender >= 0);
  grow(std::max(receiver, sender) + 1);
  Pair& p = table_[index(receiver, sender)];
  Last& last = p.last;
  if (last.valid) {
    const sim::Time dsend = send_time - last.send_time;
    const sim::Time darrive = arrival_time - last.arrival_time;
    if (dsend > 0) {
      const double w =
          static_cast<double>(darrive) / static_cast<double>(dsend);
      overall_.add(w);
      p.stats.add(w);
    }
  }
  last.send_time = send_time;
  last.arrival_time = arrival_time;
  last.valid = true;
}

util::RunningStats WarpMeter::pair(int receiver, int sender) const {
  if (receiver < 0 || sender < 0 || receiver >= nodes_ || sender >= nodes_) {
    return util::RunningStats{};
  }
  return table_[index(receiver, sender)].stats;
}

void WarpMeter::reset() {
  std::fill(table_.begin(), table_.end(), Pair{});
  overall_.reset();
}

}  // namespace nscc::warp
