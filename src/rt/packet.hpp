// Typed pack/unpack message buffers, after PVM's pvm_pk*/pvm_upk* model.
//
// Senders pack fields in order; receivers unpack in the same order.  The
// buffer knows its byte size, which is what the network model charges for.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/crc32.hpp"

namespace nscc::rt {

class Packet {
 public:
  Packet() = default;

  // ---- packing -----------------------------------------------------------
  Packet& pack_u8(std::uint8_t v) { return append(&v, sizeof v); }
  Packet& pack_i32(std::int32_t v) { return append(&v, sizeof v); }
  Packet& pack_u32(std::uint32_t v) { return append(&v, sizeof v); }
  Packet& pack_i64(std::int64_t v) { return append(&v, sizeof v); }
  Packet& pack_u64(std::uint64_t v) { return append(&v, sizeof v); }
  Packet& pack_double(double v) { return append(&v, sizeof v); }

  Packet& pack_bytes(const void* data, std::size_t n) {
    pack_u64(n);
    return append(data, n);
  }

  Packet& pack_string(const std::string& s) {
    return pack_bytes(s.data(), s.size());
  }

  Packet& pack_u64_vec(const std::vector<std::uint64_t>& v) {
    pack_u64(v.size());
    return append(v.data(), v.size() * sizeof(std::uint64_t));
  }

  Packet& pack_double_vec(const std::vector<double>& v) {
    pack_u64(v.size());
    return append(v.data(), v.size() * sizeof(double));
  }

  /// Embed another packet (its bytes travel nested; unpack with
  /// unpack_packet).  Used by DSM updates that carry opaque app payloads.
  Packet& pack_packet(const Packet& p) {
    pack_u64(p.buf_.size());
    return append(p.buf_.data(), p.buf_.size());
  }

  // ---- unpacking (in packing order) ---------------------------------------
  std::uint8_t unpack_u8() { return take<std::uint8_t>(); }
  std::int32_t unpack_i32() { return take<std::int32_t>(); }
  std::uint32_t unpack_u32() { return take<std::uint32_t>(); }
  std::int64_t unpack_i64() { return take<std::int64_t>(); }
  std::uint64_t unpack_u64() { return take<std::uint64_t>(); }
  double unpack_double() { return take<double>(); }

  std::string unpack_string() {
    const std::uint64_t n = unpack_u64();
    check(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + rpos_),
                  static_cast<std::size_t>(n));
    rpos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::vector<std::uint64_t> unpack_u64_vec() { return take_vec<std::uint64_t>(); }
  std::vector<double> unpack_double_vec() { return take_vec<double>(); }

  /// Copy the double vector packed at the read cursor into the front of
  /// `out` and return its length, leaving the cursor where it was: a
  /// reader of a stored value fills its own buffer with one memcpy, with
  /// no packet copy and no temporary vector.  Throws std::out_of_range,
  /// writing nothing, when the length prefix exceeds `out` or the buffer.
  std::size_t unpack_double_vec_into(std::span<double> out) const {
    check(sizeof(std::uint64_t));
    std::uint64_t n = 0;
    std::memcpy(&n, buf_.data() + rpos_, sizeof n);
    const std::size_t body = rpos_ + sizeof n;
    // Divide instead of multiplying, as in take_vec.
    if (n > out.size() || n > (buf_.size() - body) / sizeof(double)) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    if (n > 0) {
      std::memcpy(out.data(), buf_.data() + body,
                  static_cast<std::size_t>(n) * sizeof(double));
    }
    return static_cast<std::size_t>(n);
  }

  /// Unpack an embedded packet into `into` (rewound), reusing its buffer's
  /// capacity: a caller that keeps one scratch packet unpacks without
  /// allocating once the scratch has grown to the payload size.
  void unpack_packet(Packet& into) {
    const std::uint64_t n = unpack_u64();
    check(n);
    into.buf_.assign(buf_.begin() + static_cast<std::ptrdiff_t>(rpos_),
                     buf_.begin() + static_cast<std::ptrdiff_t>(rpos_ + n));
    into.rpos_ = 0;
    rpos_ += static_cast<std::size_t>(n);
  }

  /// Step the read cursor over an embedded packet without copying it.
  /// Throws std::out_of_range, as unpack_packet does, for a cut frame.
  void skip_packet() {
    const std::uint64_t n = unpack_u64();
    check(n);
    rpos_ += static_cast<std::size_t>(n);
  }

  /// Reserve room for `bytes` of packed data, so a sender that knows its
  /// frame size packs it with one allocation.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  /// Drop the contents and rewind, keeping the buffer's capacity.
  void clear() noexcept {
    buf_.clear();
    rpos_ = 0;
  }

  // ---- inspection ----------------------------------------------------------
  /// Total serialized payload size in bytes (what the wire model charges).
  [[nodiscard]] std::uint32_t byte_size() const noexcept {
    return static_cast<std::uint32_t>(buf_.size());
  }
  /// Bytes the buffer holds without growing.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_.capacity();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - rpos_;
  }
  [[nodiscard]] bool fully_consumed() const noexcept { return remaining() == 0; }

  /// Reset the read cursor (e.g. to re-read a stored message).
  void rewind() noexcept { rpos_ = 0; }

  /// Copy of this packet cut down to its first `n` bytes (cursor rewound).
  /// Models a truncated frame for robustness tests.
  [[nodiscard]] Packet truncated(std::size_t n) const {
    Packet q;
    q.buf_.assign(buf_.begin(),
                  buf_.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(n, buf_.size())));
    return q;
  }

  /// CRC32 of the full serialized payload, independent of the read cursor.
  /// This is the checksum the transport stamps on frames and the one the
  /// DSM shadow log records per write.
  [[nodiscard]] std::uint32_t crc32() const noexcept {
    return util::crc32(buf_.data(), buf_.size());
  }

  // ---- in-place damage (fault injection only) ------------------------------
  /// Flip one bit; `bit` indexes the payload bit-stream and wraps, so any
  /// corruption seed maps onto a valid position.
  void flip_bit(std::size_t bit) noexcept {
    if (buf_.empty()) return;
    bit %= buf_.size() * 8;
    buf_[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
  }

  /// Drop every byte past the first `n` (models a frame cut short on the
  /// wire).  The read cursor is clamped into the surviving prefix.
  void truncate_to(std::size_t n) {
    if (n >= buf_.size()) return;
    buf_.resize(n);
    rpos_ = std::min(rpos_, n);
  }

 private:
  Packet& append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
    return *this;
  }

  void check(std::uint64_t n) const {
    // rpos_ <= buf_.size() always holds, so the subtraction is safe; the
    // naive `rpos_ + n > size` form would wrap for hostile length prefixes
    // near 2^64 and read out of bounds.
    if (n > buf_.size() - rpos_) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
  }

  template <typename T>
  T take() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + rpos_, sizeof(T));
    rpos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> take_vec() {
    const std::uint64_t n = unpack_u64();
    // Divide instead of multiplying: `n * sizeof(T)` overflows for a
    // corrupt length prefix, which would pass check() and then OOB-read.
    if (n > (buf_.size() - rpos_) / sizeof(T)) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    std::memcpy(v.data(), buf_.data() + rpos_, v.size() * sizeof(T));
    rpos_ += v.size() * sizeof(T);
    return v;
  }

  std::vector<std::byte> buf_;
  std::size_t rpos_ = 0;
};

/// A free list of packet buffers.  A path that packs, sends and consumes
/// packets at a steady rate draws each packet here and returns it when
/// its life ends, so the bytes are reused instead of allocated per
/// message (one rt::VirtualMachine owns one; see DESIGN.md §12.4).  Not
/// thread-safe: only the thread that runs the machine's events and
/// processes may touch it, never a sim::HostPool job.  It keeps at most
/// kMaxBuffers buffers of at most kMaxCapacity bytes each, so a burst of
/// frames cannot pin memory for the rest of the run.
class PacketPool {
 public:
  static constexpr std::size_t kMaxBuffers = 128;
  static constexpr std::size_t kMaxCapacity = 64 * 1024;

  PacketPool() { free_.reserve(kMaxBuffers); }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// An empty packet, on the most recently returned buffer when one is
  /// kept.
  [[nodiscard]] Packet acquire() noexcept {
    if (free_.empty()) return Packet{};
    Packet p = std::move(free_.back());
    free_.pop_back();
    return p;
  }

  /// Take `p`'s buffer back, emptied.  A buffer with no capacity, one
  /// above kMaxCapacity, or one beyond kMaxBuffers is freed instead.
  void release(Packet p) noexcept {
    if (p.capacity() == 0 || p.capacity() > kMaxCapacity ||
        free_.size() == kMaxBuffers) {
      return;
    }
    p.clear();
    free_.push_back(std::move(p));
  }

  /// Buffers currently kept.
  [[nodiscard]] std::size_t kept() const noexcept { return free_.size(); }

 private:
  std::vector<Packet> free_;
};

}  // namespace nscc::rt
