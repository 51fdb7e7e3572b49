// A task's receive queue: FIFO with removal at any position (a tagged
// receive takes the first matching message, which need not be the oldest).
//
// Backed by one vector and a head index instead of a std::deque: a deque
// that a task keeps nearly empty allocates and frees a block every few
// messages as its ends cross block boundaries, while this queue reuses its
// buffer and allocates only when more messages are queued at once than ever
// before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace nscc::rt {

template <typename T>
class Mailbox {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() - head_;
  }

  /// The i-th queued message, oldest first.
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return items_[head_ + i];
  }
  [[nodiscard]] const T& back() const noexcept { return items_.back(); }

  void push_back(T item) {
    if (items_.size() == items_.capacity() && head_ * 2 >= items_.size()) {
      // Full buffer, at least half of it consumed: slide the live messages
      // down instead of growing (so each slide pays for itself).
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(item));
  }

  /// Remove and return the i-th queued message; the others keep their
  /// order.
  T take(std::size_t i) {
    const auto pos = items_.begin() + static_cast<std::ptrdiff_t>(head_ + i);
    T item = std::move(*pos);
    // Close the gap from the front: the messages ahead of `i` move back one
    // slot, usually none because `i` is usually 0.
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::move_backward(first, pos, std::next(pos));
    ++head_;
    if (empty()) clear();
    return item;
  }

  /// Drop every message (the buffer is kept).
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  ///< Slots before head_ are consumed.
};

}  // namespace nscc::rt
