// Software fitness cache (the paper's sequential-GA optimisation [19]).
//
// With generation gap G = 1, elitism, crossover rate 0.6 and a very low
// mutation rate, many offspring are bit-identical to previously evaluated
// individuals; caching their fitness avoids recomputation.  The cache is
// exact: entries are verified by full genome comparison, not just hash.
//
// Layout: a flat open-addressing table (linear probing, at most half full)
// of (hash, entry) slots over one entry array and one arena holding every
// cached genome's words back to back, so a lookup touches no per-entry
// heap node and an insert allocates only when an array grows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace nscc::ga {

class FitnessCache {
 public:
  explicit FitnessCache(std::size_t max_entries = 1 << 18)
      : max_entries_(max_entries) {}

  /// Returns true and fills `fitness` on a hit.
  bool lookup(const util::BitVec& genome, double& fitness) {
    if (!slots_.empty()) {
      const Slot& s = slots_[probe(genome, genome.hash())];
      if (s.entry != kEmpty) {
        fitness = entries_[s.entry].fitness;
        ++hits_;
        return true;
      }
    }
    ++misses_;
    return false;
  }

  void insert(const util::BitVec& genome, double fitness) {
    if (entries_.size() >= max_entries_) return;  // Bounded memory; stop filling.
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const std::uint64_t h = genome.hash();
    Slot& s = slots_[probe(genome, h)];
    if (s.entry != kEmpty) return;
    s = Slot{h, entries_.size()};
    entries_.push_back(Entry{arena_.size(), genome.size(), fitness});
    arena_.insert(arena_.end(), genome.words().begin(), genome.words().end());
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }

  void clear() {
    slots_.clear();
    entries_.clear();
    arena_.clear();
  }

 private:
  static constexpr std::size_t kEmpty = ~std::size_t{0};

  struct Slot {
    std::uint64_t hash = 0;
    std::size_t entry = kEmpty;  ///< Index into entries_.
  };
  struct Entry {
    std::size_t offset;  ///< First word in arena_.
    std::size_t nbits;
    double fitness;
  };

  /// Home slot of a hash.  BitVec::hash() is FNV-1a over whole words, whose
  /// low bits depend only on the words' low bits; the Fibonacci multiply
  /// folds every bit into the top ones, which pick the slot.
  [[nodiscard]] std::size_t home(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The slot holding `genome`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const util::BitVec& genome,
                                  std::uint64_t h) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(h);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.entry == kEmpty) return i;
      if (s.hash == h && matches(entries_[s.entry], genome)) return i;
    }
  }

  [[nodiscard]] bool matches(const Entry& e,
                             const util::BitVec& genome) const noexcept {
    const std::vector<std::uint64_t>& words = genome.words();
    return e.nbits == genome.size() &&
           std::equal(words.begin(), words.end(),
                      arena_.begin() + static_cast<std::ptrdiff_t>(e.offset));
  }

  /// Double the table (64 slots at first) and re-place every entry by its
  /// stored hash; entries are distinct, so no genome is compared.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 64 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    const std::size_t mask = capacity - 1;
    for (const Slot& s : old) {
      if (s.entry == kEmpty) continue;
      std::size_t i = home(s.hash);
      while (slots_[i].entry != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;          ///< Power-of-two size, at most half full.
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> arena_;  ///< Every entry's genome words.
  unsigned shift_ = 64;               ///< 64 - log2(slots_.size()).
  std::size_t max_entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nscc::ga
