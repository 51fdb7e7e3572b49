// Typed pack/unpack message buffers, after PVM's pvm_pk*/pvm_upk* model.
//
// Senders pack fields in order; receivers unpack in the same order.  The
// buffer knows its byte size, which is what the network model charges for.
//
// A packet is a window onto a reference-counted, copy-on-write byte
// buffer.  Copying a packet shares the buffer, as PVM hands one packed
// buffer to many tasks (pvm_mcast): a DSM update frame is packed once and
// every reader, every resend and every stored copy holds a share of it.
// A write to a shared buffer (pack_*, reserve, flip_bit) first gives the
// writer a private copy of its window; clear() on a shared buffer just
// lets go of it.  Views (narrow_to_embedded, unpack_packet, truncated,
// truncate_to) change only the window, never the bytes, so they copy
// nothing.  The count is a plain integer, not an atomic: a packet and
// every copy of it belong to the thread that runs the machine's events
// (never a sim::HostPool job).
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
  Packet(const Packet& other) noexcept
      : buf_(other.buf_),
        begin_(other.begin_),
        end_(other.end_),
        rpos_(other.rpos_) {
    if (buf_ != nullptr) ++buf_->refs;
  }
  Packet(Packet&& other) noexcept
      : buf_(other.buf_),
        begin_(other.begin_),
        end_(other.end_),
        rpos_(other.rpos_) {
    other.buf_ = nullptr;
    other.begin_ = other.end_ = other.rpos_ = 0;
  }
  Packet& operator=(const Packet& other) noexcept {
    if (other.buf_ != nullptr) ++other.buf_->refs;
    unref(buf_);
    buf_ = other.buf_;
    begin_ = other.begin_;
    end_ = other.end_;
    rpos_ = other.rpos_;
    return *this;
  }
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      unref(buf_);
      buf_ = other.buf_;
      begin_ = other.begin_;
      end_ = other.end_;
      rpos_ = other.rpos_;
      other.buf_ = nullptr;
      other.begin_ = other.end_ = other.rpos_ = 0;
    }
    return *this;
  }
  ~Packet() { unref(buf_); }

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

  /// Embed another packet's window (its bytes travel nested; unpack with
  /// unpack_packet or narrow_to_embedded).  Used by DSM updates that carry
  /// opaque app payloads.
  Packet& pack_packet(const Packet& p) {
    pack_u64(p.byte_size());
    return append(p.at(p.begin_), p.byte_size());
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
    std::string s(reinterpret_cast<const char*>(at(rpos_)),
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
    const std::size_t n = double_vec_length();
    if (n > out.size()) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    copy_doubles(0, out.first(n));
    return n;
  }

  /// Copy elements [first, first + out.size()) of the double vector packed
  /// at the read cursor into `out`, leaving the cursor where it was: a
  /// reader that uses only part of a stored vector copies only that part.
  /// Throws std::out_of_range, writing nothing, when the range passes the
  /// vector's end or the length prefix passes the buffer's.
  void unpack_double_range_into(std::size_t first,
                                std::span<double> out) const {
    const std::size_t n = double_vec_length();
    if (first > n || out.size() > n - first) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    copy_doubles(first, out);
  }

  /// Unpack an embedded packet into `into`, which becomes a share of this
  /// packet's buffer whose window is the embedded bytes, rewound: no byte
  /// is copied.  Throws std::out_of_range, as every unpack does, for a cut
  /// frame or a length prefix past the buffer.
  void unpack_packet(Packet& into) {
    const std::uint64_t n = unpack_u64();
    check(n);
    into = *this;
    into.begin_ = into.rpos_ = rpos_;
    into.end_ = rpos_ + static_cast<std::size_t>(n);
    rpos_ += static_cast<std::size_t>(n);
  }

  /// Turn this packet, in place, into the packet embedded at its read
  /// cursor: the window shrinks to the embedded bytes and the cursor
  /// rewinds to their front, so the result reads, sizes and checksums as
  /// unpack_packet's would, with no copy and no second packet.  Throws
  /// std::out_of_range, changing nothing, for a cut frame or a hostile
  /// length prefix.
  void narrow_to_embedded() {
    check(sizeof(std::uint64_t));
    std::uint64_t n = 0;
    std::memcpy(&n, at(rpos_), sizeof n);
    const std::size_t body = rpos_ + sizeof n;
    if (n > end_ - body) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    begin_ = rpos_ = body;
    end_ = body + static_cast<std::size_t>(n);
  }

  /// Step the read cursor over an embedded packet without copying it.
  /// Throws std::out_of_range, as unpack_packet does, for a cut frame.
  void skip_packet() {
    const std::uint64_t n = unpack_u64();
    check(n);
    rpos_ += static_cast<std::size_t>(n);
  }

  /// Reserve room for `bytes` of packed data, so a sender that knows its
  /// frame size packs it with one allocation.  A shared buffer is copied
  /// first, onto a private one of that size.
  void reserve(std::size_t bytes) {
    if (!is_shared() && bytes <= capacity()) return;
    unref(reallocate(std::max(bytes, end_ - begin_)));
  }

  /// Drop the contents and rewind.  A buffer this packet holds alone keeps
  /// its capacity; a shared one is left to its other holders.
  void clear() noexcept {
    if (is_shared()) {
      unref(buf_);
      buf_ = nullptr;
    }
    begin_ = end_ = rpos_ = 0;
  }

  // ---- inspection ----------------------------------------------------------
  /// Total serialized payload size in bytes (what the wire model charges).
  [[nodiscard]] std::uint32_t byte_size() const noexcept {
    return static_cast<std::uint32_t>(end_ - begin_);
  }
  /// Bytes the window can hold without growing.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_ == nullptr ? 0 : buf_->capacity - begin_;
  }
  [[nodiscard]] std::size_t remaining() const noexcept { return end_ - rpos_; }
  [[nodiscard]] bool fully_consumed() const noexcept { return remaining() == 0; }
  /// True when another packet holds a share of this packet's buffer.
  [[nodiscard]] bool is_shared() const noexcept {
    return buf_ != nullptr && buf_->refs > 1;
  }
  /// True when this packet and `other` are windows onto one buffer.
  [[nodiscard]] bool shares_buffer_with(const Packet& other) const noexcept {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  /// Reset the read cursor (e.g. to re-read a stored message).
  void rewind() noexcept { rpos_ = begin_; }

  /// This packet cut down to its first `n` bytes (cursor rewound), sharing
  /// its buffer.  Models a truncated frame for robustness tests.
  [[nodiscard]] Packet truncated(std::size_t n) const {
    Packet q = *this;
    q.truncate_to(n);
    q.rewind();
    return q;
  }

  /// CRC32 of the full serialized payload, independent of the read cursor.
  /// This is the checksum the transport stamps on frames and the one the
  /// DSM shadow log records per write.
  [[nodiscard]] std::uint32_t crc32() const noexcept {
    return util::crc32(at(begin_), end_ - begin_);
  }

  // ---- in-place damage (fault injection only) ------------------------------
  /// Flip one bit; `bit` indexes the payload bit-stream and wraps, so any
  /// corruption seed maps onto a valid position.  A shared buffer is
  /// copied first, so no other holder sees the flip.
  void flip_bit(std::size_t bit) {
    if (end_ == begin_) return;
    if (is_shared()) unref(reallocate(end_ - begin_));
    bit %= (end_ - begin_) * 8;
    buf_->bytes()[begin_ + bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
  }

  /// Drop every byte past the first `n` (models a frame cut short on the
  /// wire).  The read cursor is clamped into the surviving prefix.  Only
  /// the window shrinks, so other holders of the buffer are unaffected.
  void truncate_to(std::size_t n) noexcept {
    if (n >= end_ - begin_) return;
    end_ = begin_ + n;
    rpos_ = std::min(rpos_, end_);
  }

 private:
  /// A buffer's header; its `capacity` bytes follow it in one allocation.
  struct Buffer {
    std::size_t refs = 1;
    std::size_t capacity = 0;
    std::byte* bytes() noexcept {
      return reinterpret_cast<std::byte*>(this) + sizeof(Buffer);
    }
  };
  static void unref(Buffer* b) noexcept {
    if (b != nullptr && --b->refs == 0) free_buffer(b);
  }
  /// Out of line, with reallocate(): the heap calls stay off the inlined
  /// hot path.
  static void free_buffer(Buffer* b) noexcept;

  /// Address of buffer offset `pos` (null for a packet with no buffer,
  /// whose offsets are all 0).
  [[nodiscard]] const std::byte* at(std::size_t pos) const noexcept {
    return buf_ == nullptr ? nullptr : buf_->bytes() + pos;
  }

  /// Move the window to the front of a new buffer of `capacity` bytes
  /// that this packet holds alone.  Returns the old buffer, still counted,
  /// for the caller to unref once it has stopped reading from it.
  [[nodiscard]] Buffer* reallocate(std::size_t capacity);

  Packet& append(const void* data, std::size_t n) {
    if (n == 0) return *this;
    Buffer* old = nullptr;
    if (is_shared() || end_ - begin_ + n > capacity()) {
      // Grow as std::vector's range insert does: to size + max(size, n).
      const std::size_t size = end_ - begin_;
      old = reallocate(size + std::max(size, n));
    }
    std::memcpy(buf_->bytes() + end_, data, n);
    end_ += n;
    unref(old);  // Only now: `data` may point into the old buffer.
    return *this;
  }

  void check(std::uint64_t n) const {
    // rpos_ <= end_ always holds, so the subtraction is safe; the naive
    // `rpos_ + n > end_` form would wrap for hostile length prefixes near
    // 2^64 and read out of bounds.
    if (n > end_ - rpos_) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
  }

  /// Length of the double vector packed at the read cursor, checked
  /// against the window; the cursor does not move.
  [[nodiscard]] std::size_t double_vec_length() const {
    check(sizeof(std::uint64_t));
    std::uint64_t n = 0;
    std::memcpy(&n, at(rpos_), sizeof n);
    // Divide instead of multiplying, as in take_vec.
    if (n > (end_ - rpos_ - sizeof n) / sizeof(double)) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    return static_cast<std::size_t>(n);
  }

  /// Copy out.size() doubles from element `first` of the (checked) vector
  /// at the read cursor.
  void copy_doubles(std::size_t first, std::span<double> out) const {
    if (out.empty()) return;
    std::memcpy(out.data(),
                at(rpos_ + sizeof(std::uint64_t) + first * sizeof(double)),
                out.size() * sizeof(double));
  }

  template <typename T>
  T take() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, at(rpos_), sizeof(T));
    rpos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> take_vec() {
    const std::uint64_t n = unpack_u64();
    // Divide instead of multiplying: `n * sizeof(T)` overflows for a
    // corrupt length prefix, which would pass check() and then OOB-read.
    if (n > (end_ - rpos_) / sizeof(T)) {
      throw std::out_of_range("Packet: unpack past end of buffer");
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    if (!v.empty()) std::memcpy(v.data(), at(rpos_), v.size() * sizeof(T));
    rpos_ += v.size() * sizeof(T);
    return v;
  }

  /// The shared buffer (null until the first write), and this packet's
  /// window [begin_, end_) and read cursor, all offsets into it.
  Buffer* buf_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
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

  /// Let go of `p`'s share of its buffer, and take the buffer back,
  /// emptied, when that share was the last.  A buffer with no capacity,
  /// one above kMaxCapacity, or one beyond kMaxBuffers is freed instead.
  void release(Packet p) noexcept {
    if (p.is_shared()) return;  // Its other holders keep it.
    p.clear();
    if (p.capacity() == 0 || p.capacity() > kMaxCapacity ||
        free_.size() == kMaxBuffers) {
      return;
    }
    free_.push_back(std::move(p));
  }

  /// Buffers currently kept.
  [[nodiscard]] std::size_t kept() const noexcept { return free_.size(); }

 private:
  std::vector<Packet> free_;
};

}  // namespace nscc::rt
