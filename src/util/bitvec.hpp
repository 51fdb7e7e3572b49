// Compact bit vector used for GA chromosomes.
//
// Supports the operations the GA needs: random fill, point mutation,
// one-point crossover splicing, hashing (for the sequential GA's software
// fitness cache [19]), and sliced decoding to and from integers.  Bits are
// stored LSB-first in 64-bit words; crossover, extract and deposit work on
// whole words.  Bits beyond size() are always zero, because == and hash()
// compare whole words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace nscc::util {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
  [[nodiscard]] bool empty() const noexcept { return nbits_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool v) noexcept {
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) noexcept { words_[i >> 6] ^= 1ULL << (i & 63); }

  [[nodiscard]] std::size_t popcount() const noexcept {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  void randomize(Xoshiro256& rng) noexcept {
    for (auto& w : words_) w = rng();
    mask_tail();
  }

  /// Extract `count` bits starting at `offset` as an unsigned integer
  /// (bit `offset` is the least significant).  count <= 64 and
  /// offset + count <= size().
  [[nodiscard]] std::uint64_t extract(std::size_t offset,
                                      std::size_t count) const noexcept {
    if (count == 0) return 0;
    const std::size_t w = offset >> 6;
    const std::size_t shift = offset & 63;
    std::uint64_t v = words_[w] >> shift;
    // Spilling into the next word needs shift >= 1, so 64 - shift < 64.
    if (shift + count > 64) v |= words_[w + 1] << (64 - shift);
    return v & low_bits(count);
  }

  /// Inverse of extract: overwrite bits [offset, offset + count) with the
  /// low `count` bits of `bits` (higher bits of `bits` are ignored).
  /// count <= 64 and offset + count <= size(), so the tail stays zero.
  void deposit(std::size_t offset, std::size_t count,
               std::uint64_t bits) noexcept {
    if (count == 0) return;
    const std::uint64_t mask = low_bits(count);
    bits &= mask;
    const std::size_t w = offset >> 6;
    const std::size_t shift = offset & 63;
    words_[w] = (words_[w] & ~(mask << shift)) | (bits << shift);
    if (shift + count > 64) {
      const std::size_t done = 64 - shift;  // 1..63 bits went to word w.
      words_[w + 1] = (words_[w + 1] & ~(mask >> done)) | (bits >> done);
    }
  }

  /// One-point crossover in place: `a` and `b` (of equal size) swap their
  /// bits [point, size()), keeping [0, point).
  static void crossover(BitVec& a, BitVec& b, std::size_t point) noexcept {
    const std::size_t first = point >> 6;
    for (std::size_t w = first; w < a.words_.size(); ++w) {
      const std::uint64_t swapped = w == first ? ~0ULL << (point & 63) : ~0ULL;
      const std::uint64_t diff = (a.words_[w] ^ b.words_[w]) & swapped;
      a.words_[w] ^= diff;
      b.words_[w] ^= diff;
    }
  }

  [[nodiscard]] std::uint64_t hash() const noexcept {
    // FNV-1a over the words.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w : words_) {
      h ^= w;
      h *= 0x100000001b3ULL;
    }
    h ^= nbits_;
    h *= 0x100000001b3ULL;
    return h;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
    return a.nbits_ == b.nbits_ && a.words_ == b.words_;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  /// Rebuild from raw words; bits beyond `nbits` are cleared.
  static BitVec from_words(std::size_t nbits, std::vector<std::uint64_t> words) {
    BitVec v;
    v.nbits_ = nbits;
    v.words_ = std::move(words);
    v.words_.resize((nbits + 63) / 64, 0);
    v.mask_tail();
    return v;
  }

 private:
  /// The low `count` bits set, for 1 <= count <= 64.
  static std::uint64_t low_bits(std::size_t count) noexcept {
    return ~0ULL >> (64 - count);
  }

  void mask_tail() noexcept {
    const std::size_t rem = nbits_ & 63;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (1ULL << rem) - 1;
    }
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace nscc::util
