// Deterministic pseudo-random number generation for the NSCC simulator.
//
// Every stochastic component in the repository (GA operators, belief-network
// sampling, network load generators, experiment repetitions) draws from an
// explicitly seeded Xoshiro256** stream so that a run is a pure function of
// its seed, as required for reproducible discrete-event simulation.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace nscc::util {

/// SplitMix64: used only to expand a single 64-bit seed into the 256-bit
/// Xoshiro state (the construction recommended by the xoshiro authors).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Integer form of Xoshiro256::bernoulli(p): `(rng() >> 11) < T` with
/// T = bernoulli_threshold(p) draws the same outcome from the same word as
/// `uniform01() < p`.  uniform01() is k·2^-53 for the integer k = x >> 11,
/// and scaling p by 2^53 is exact, so k·2^-53 < p iff k < p·2^53 iff
/// k < ceil(p·2^53).  p <= 0 and NaN never hit (T = 0); p >= 1 always
/// does (T = 2^53).  Compute T once per rate; the per-draw test is one
/// shift and one compare, with no int-to-double conversion.
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) noexcept {
  constexpr double kScale = 0x1.0p53;
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return static_cast<std::uint64_t>(kScale);
  return static_cast<std::uint64_t>(std::ceil(p * kScale));
}

/// Xoshiro256**: fast, high-quality 64-bit PRNG.  Satisfies
/// UniformRandomBitGenerator so it can also feed <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
    have_spare_normal_ = false;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    // 128-bit multiply-shift rejection sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// bernoulli(p) for a precomputed threshold = bernoulli_threshold(p):
  /// the same outcome from the same draw.
  bool bernoulli_below(std::uint64_t threshold) noexcept {
    return ((*this)() >> 11) < threshold;
  }

  /// Standard normal via Marsaglia's polar method (caches the spare value).
  double normal() noexcept {
    if (have_spare_normal_) {
      have_spare_normal_ = false;
      return spare_normal_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_normal_ = v * factor;
    have_spare_normal_ = true;
    return u * factor;
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate) noexcept {
    return -std::log1p(-uniform01()) / rate;
  }

  /// Derive an independent child stream (for per-task / per-rep seeding).
  Xoshiro256 split(std::uint64_t salt) noexcept {
    SplitMix64 sm(s_[0] ^ (salt * 0x9E3779B97F4A7C15ULL + 0x7F4A7C15ULL));
    return Xoshiro256(sm.next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool have_spare_normal_ = false;
};

}  // namespace nscc::util
