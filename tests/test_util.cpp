// Tests for the util substrate: RNG statistical sanity and determinism,
// streaming statistics, confidence intervals, bit vectors, tables, flags,
// and CRC32 checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/bitvec.hpp"
#include "util/crc32.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using nscc::util::BitVec;
using nscc::util::Flags;
using nscc::util::RunningStats;
using nscc::util::Table;
using nscc::util::Xoshiro256;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRangeAndRoughlyUniform) {
  Xoshiro256 rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Xoshiro256 rng(11);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Xoshiro256 rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256 rng(17);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(19);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.005);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 parent(23);
  Xoshiro256 child = parent.split(1);
  Xoshiro256 child2 = parent.split(2);
  EXPECT_NE(child(), child2());
  // Splitting must not perturb the parent.
  Xoshiro256 parent2(23);
  (void)parent2.split(1);
  (void)parent2.split(2);
  EXPECT_EQ(parent(), parent2());
}

// The integer threshold test must be bernoulli(p) draw for draw, including
// rates outside [0, 1] and NaN (which never hits).
TEST(Rng, BernoulliThresholdMatchesBernoulliDrawForDraw) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double p : {0.0, 1e-300, 1e-3, 0.01, 0.5, std::nextafter(1.0, 0.0),
                         1.0, -0.25, -inf, 1.5, inf, nan}) {
    const std::uint64_t threshold = nscc::util::bernoulli_threshold(p);
    Xoshiro256 a(41);
    Xoshiro256 b(41);
    std::uint64_t hits = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const bool expected = a.bernoulli(p);
      ASSERT_EQ(b.bernoulli_below(threshold), expected) << p << " draw " << i;
      hits += expected ? 1 : 0;
    }
    if (!(p > 0.0)) EXPECT_EQ(hits, 0u) << p;
    if (p >= 1.0) EXPECT_EQ(hits, 1'000'000u) << p;
    // Random draws seldom land on the cut, so check it directly: the
    // largest hitting k = x >> 11 is threshold - 1, and threshold misses.
    const auto as_draw = [](std::uint64_t k) {
      return static_cast<double>(k) * 0x1.0p-53;
    };
    if (threshold > 0) EXPECT_LT(as_draw(threshold - 1), p) << p;
    if (threshold < (std::uint64_t{1} << 53)) {
      EXPECT_FALSE(as_draw(threshold) < p) << p;
    }
  }
  EXPECT_EQ(nscc::util::bernoulli_threshold(0.5), std::uint64_t{1} << 52);
  EXPECT_EQ(nscc::util::bernoulli_threshold(1e-300), 1u);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, SumIsExactNotReconstructedFromMean) {
  // Regression: sum() used to return mean() * n, which drifts once the mean
  // itself carries rounding error.  Accumulate values whose running mean is
  // not representable and check the sum stays exact (integers summed in
  // doubles are exact well past this range).
  RunningStats s;
  double exact = 0.0;
  for (int i = 1; i <= 10007; ++i) {
    const double x = static_cast<double>(i % 97) + 1.0 / 3.0;
    s.add(x);
    exact += x;
  }
  EXPECT_DOUBLE_EQ(s.sum(), exact);
  // mean * n is only close; sum() must be the accumulated value itself.
  EXPECT_NEAR(s.sum(), s.mean() * static_cast<double>(s.count()), 1e-6);
}

TEST(Stats, MergePreservesSum) {
  RunningStats a;
  RunningStats b;
  for (double x : {1.5, 2.5, 3.0}) a.add(x);
  for (double x : {10.0, 20.0}) b.add(x);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.sum(), 37.0);
  RunningStats empty;
  empty.merge(a);  // Merge into a default-constructed accumulator.
  EXPECT_DOUBLE_EQ(empty.sum(), 37.0);
}

TEST(Stats, MergeMatchesCombinedStream) {
  nscc::util::Xoshiro256 rng(31);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    if (i % 3 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, NormalQuantileKnownValues) {
  EXPECT_NEAR(nscc::util::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(nscc::util::normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(nscc::util::normal_quantile(0.95), 1.644854, 1e-5);
  EXPECT_NEAR(nscc::util::normal_quantile(0.05), -1.644854, 1e-5);
}

TEST(Stats, ZForConfidence) {
  EXPECT_NEAR(nscc::util::z_for_confidence(0.90), 1.6449, 1e-3);
  EXPECT_NEAR(nscc::util::z_for_confidence(0.95), 1.9600, 1e-3);
}

TEST(Stats, ProportionCiShrinksWithSamples) {
  const auto wide = nscc::util::proportion_ci(50, 100, 0.90);
  const auto narrow = nscc::util::proportion_ci(5000, 10000, 0.90);
  EXPECT_LT(narrow.half_width(), wide.half_width());
  EXPECT_TRUE(wide.contains(0.5));
}

TEST(Stats, SamplesForProportionMatchesPaperScale) {
  // The paper's +/-0.01 at 90% confidence: worst case ~6764 samples.
  const auto n = nscc::util::samples_for_proportion(0.01, 0.90);
  EXPECT_GE(n, 6500u);
  EXPECT_LE(n, 7000u);
}

TEST(BitVec, SetGetFlipPopcount) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(0);
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, ExtractLittleEndianBits) {
  BitVec v(16);
  // Write value 0b1011 at offset 4.
  v.set(4, true);
  v.set(5, true);
  v.set(7, true);
  EXPECT_EQ(v.extract(4, 4), 0b1011u);
  EXPECT_EQ(v.extract(0, 4), 0u);
}

TEST(BitVec, CrossoverSplitsAtPoint) {
  BitVec a(10);
  BitVec b(10);
  for (std::size_t i = 0; i < 10; ++i) b.set(i, true);
  BitVec::crossover(a, b, 4);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.get(i), i >= 4);
    EXPECT_EQ(b.get(i), i < 4);
  }
}

// Bit-by-bit reference versions of the word-level operations.
std::uint64_t ref_extract(const BitVec& v, std::size_t offset,
                          std::size_t count) {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < count; ++i) {
    x |= static_cast<std::uint64_t>(v.get(offset + i)) << i;
  }
  return x;
}

void ref_deposit(BitVec& v, std::size_t offset, std::size_t count,
                 std::uint64_t bits) {
  for (std::size_t i = 0; i < count; ++i) {
    v.set(offset + i, ((bits >> i) & 1) != 0);
  }
}

void ref_crossover(BitVec& a, BitVec& b, std::size_t point) {
  for (std::size_t i = point; i < a.size(); ++i) {
    const bool bit = a.get(i);
    a.set(i, b.get(i));
    b.set(i, bit);
  }
}

// == and hash() compare whole words, so bits beyond size() must stay 0.
bool tail_is_zero(const BitVec& v) {
  const std::size_t rem = v.size() & 63;
  return rem == 0 || (v.words().back() >> rem) == 0;
}

// Sizes on both sides of each word boundary, up to four words.
constexpr std::size_t kBoundarySizes[] = {1, 63, 64, 65, 100, 128, 200, 240};

TEST(BitVec, ExtractMatchesBitwiseReferenceAtEveryOffsetAndCount) {
  nscc::util::Xoshiro256 rng(53);
  for (std::size_t n : kBoundarySizes) {
    BitVec v(n);
    v.randomize(rng);
    for (std::size_t offset = 0; offset <= n; ++offset) {
      const std::size_t max_count = std::min<std::size_t>(64, n - offset);
      for (std::size_t count = 0; count <= max_count; ++count) {
        ASSERT_EQ(v.extract(offset, count), ref_extract(v, offset, count))
            << "size " << n << " offset " << offset << " count " << count;
      }
    }
  }
}

TEST(BitVec, DepositMatchesBitwiseReferenceAndKeepsTailZero) {
  nscc::util::Xoshiro256 rng(59);
  for (std::size_t n : kBoundarySizes) {
    BitVec v(n);
    v.randomize(rng);
    for (std::size_t offset = 0; offset <= n; ++offset) {
      const std::size_t max_count = std::min<std::size_t>(64, n - offset);
      for (std::size_t count = 0; count <= max_count; ++count) {
        // All 64 bits random: those above `count` must be ignored.
        const std::uint64_t bits = rng();
        BitVec got = v;
        BitVec want = v;
        got.deposit(offset, count, bits);
        ref_deposit(want, offset, count, bits);
        ASSERT_EQ(got, want)
            << "size " << n << " offset " << offset << " count " << count;
        ASSERT_TRUE(tail_is_zero(got));
        ASSERT_EQ(got.extract(offset, count), ref_extract(want, offset, count));
      }
    }
  }
}

TEST(BitVec, CrossoverMatchesBitwiseReferenceAtEveryPoint) {
  nscc::util::Xoshiro256 rng(61);
  for (std::size_t n : kBoundarySizes) {
    BitVec a(n);
    BitVec b(n);
    a.randomize(rng);
    b.randomize(rng);
    for (std::size_t point = 0; point <= n; ++point) {
      BitVec got_a = a;
      BitVec got_b = b;
      BitVec want_a = a;
      BitVec want_b = b;
      BitVec::crossover(got_a, got_b, point);
      ref_crossover(want_a, want_b, point);
      ASSERT_EQ(got_a, want_a) << "size " << n << " point " << point;
      ASSERT_EQ(got_b, want_b) << "size " << n << " point " << point;
      ASSERT_TRUE(tail_is_zero(got_a));
      ASSERT_TRUE(tail_is_zero(got_b));
    }
  }
}

TEST(BitVec, HashDiscriminatesAndEqualityHolds) {
  nscc::util::Xoshiro256 rng(41);
  BitVec a(100);
  a.randomize(rng);
  BitVec b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.flip(57);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, RandomizeMasksTailBits) {
  nscc::util::Xoshiro256 rng(43);
  BitVec v(70);
  v.randomize(rng);
  // Tail bits beyond 70 must be zero so hashing/equality are well defined.
  EXPECT_EQ(v.words().back() >> 6, 0u);
}

TEST(BitVec, RoundTripFromWords) {
  nscc::util::Xoshiro256 rng(47);
  BitVec v(90);
  v.randomize(rng);
  BitVec w = BitVec::from_words(90, v.words());
  EXPECT_EQ(v, w);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t("demo");
  t.columns({"name", "value"});
  t.row().cell("alpha").cell(1.5, 2);
  t.row().cell("b").cell(std::int64_t{42});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("b,42"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table t;
  t.columns({"c"});
  t.row().cell("has,comma");
  EXPECT_NE(t.to_csv().find("\"has,comma\""), std::string::npos);
}

TEST(Flags, ParsesAllKindsAndDefaults) {
  Flags f;
  f.add_int("gens", 100, "generations")
      .add_double("rate", 0.5, "rate")
      .add_bool("verbose", false, "chatty")
      .add_string("mode", "sync", "mode");
  const char* argv[] = {"prog", "--gens=250", "--rate", "0.75", "--verbose"};
  ASSERT_TRUE(f.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("gens"), 250);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 0.75);
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get_string("mode"), "sync");
}

TEST(Flags, RejectsUnknownFlag) {
  Flags f;
  f.add_int("x", 1, "x");
  const char* argv[] = {"prog", "--nope=3"};
  EXPECT_FALSE(f.parse(2, const_cast<char**>(argv)));
}

TEST(Flags, EnvOverrideApplies) {
  ::setenv("NSCC_SCALE_FACTOR", "9", 1);
  Flags f;
  f.add_int("scale-factor", 1, "scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("scale-factor"), 9);
  ::unsetenv("NSCC_SCALE_FACTOR");
}

TEST(Flags, CommandLineBeatsEnv) {
  ::setenv("NSCC_REPS", "3", 1);
  Flags f;
  f.add_int("reps", 1, "reps");
  const char* argv[] = {"prog", "--reps=5"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("reps"), 5);
  ::unsetenv("NSCC_REPS");
}

TEST(Flags, RejectsIllFormedNumbers) {
  Flags f;
  f.add_int("n", 1, "n").add_double("r", 0.5, "r");
  const char* bad_int[] = {"prog", "--n=12abc"};
  EXPECT_FALSE(f.parse(2, const_cast<char**>(bad_int)));
  Flags g;
  g.add_double("r", 0.5, "r");
  const char* bad_double[] = {"prog", "--r=fast"};
  EXPECT_FALSE(g.parse(2, const_cast<char**>(bad_double)));
}

TEST(Flags, RangeAndIntListRejectBadTokens) {
  auto make = [] {
    Flags f;
    f.add_int("functions", 8, "fns").range("functions", 1, 8);
    f.add_int_list("procs", "2,4", "procs").range("procs", 1);
    return f;
  };
  Flags f = make();
  const char* ok[] = {"prog", "--functions=3", "--procs=8,16,1"};
  ASSERT_TRUE(f.parse(3, const_cast<char**>(ok)));
  EXPECT_EQ(f.get_int("functions"), 3);
  EXPECT_EQ(f.get_int_list("procs"), (std::vector<std::int64_t>{8, 16, 1}));
  EXPECT_EQ(make().get_int_list("procs"), (std::vector<std::int64_t>{2, 4}));
  for (const char* bad : {"--functions=0", "--functions=9", "--procs=4,x",
                          "--procs=0", "--procs=", "--procs=4,"}) {
    Flags g = make();
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(g.parse(2, const_cast<char**>(argv))) << bad;
  }
}

TEST(Flags, EnumAcceptsAllowedValueOnly) {
  Flags f;
  f.add_enum("network", "ethernet", {"ethernet", "sp2"}, "net");
  const char* ok[] = {"prog", "--network=sp2"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(ok)));
  EXPECT_EQ(f.get_string("network"), "sp2");

  Flags g;
  g.add_enum("network", "ethernet", {"ethernet", "sp2"}, "net");
  const char* bad[] = {"prog", "--network=token-ring"};
  EXPECT_FALSE(g.parse(2, const_cast<char**>(bad)));
}

TEST(Flags, EnumListAcceptsSubsetRejectsJunk) {
  const std::vector<std::string> allowed = {"sync", "async", "partial"};
  Flags f;
  f.add_enum_list("variants", "sync,async,partial", allowed, "variants");
  const char* ok[] = {"prog", "--variants=partial,sync"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(ok)));
  EXPECT_EQ(f.get_list("variants"),
            (std::vector<std::string>{"partial", "sync"}));

  for (const char* value :
       {"--variants=", "--variants=sync,nope", "--variants=sync,sync"}) {
    Flags g;
    g.add_enum_list("variants", "sync", allowed, "variants");
    const char* bad[] = {"prog", value};
    EXPECT_FALSE(g.parse(2, const_cast<char**>(bad))) << value;
  }
}

TEST(Flags, SetDefaultValidatesAndStaysOverridable) {
  Flags f;
  f.add_int("demes", 8, "demes").add_enum("network", "ethernet",
                                          {"ethernet", "sp2"}, "net");
  EXPECT_TRUE(f.set_default("demes", "4"));
  EXPECT_TRUE(f.set_default("network", "sp2"));
  EXPECT_FALSE(f.set_default("nope", "1"));        // unknown flag
  EXPECT_FALSE(f.set_default("network", "ring"));  // outside the enum
  const char* argv[] = {"prog", "--demes=2"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("demes"), 2);  // command line beats the new default
  EXPECT_EQ(f.get_string("network"), "sp2");
}

TEST(Flags, InvalidEnvOverrideIsIgnoredNotFatal) {
  ::setenv("NSCC_NETWORK", "token-ring", 1);
  Flags f;
  f.add_enum("network", "ethernet", {"ethernet", "sp2"}, "net");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_string("network"), "ethernet");
  ::unsetenv("NSCC_NETWORK");
}

TEST(SplitCsv, SplitsAndPreservesEmptyTokens) {
  using nscc::util::split_csv;
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv(""), (std::vector<std::string>{""}));
  EXPECT_EQ(split_csv("a,,b"), (std::vector<std::string>{"a", "", "b"}));
}

/// The plain bytewise CRC32 (reflected IEEE polynomial, one bit at a time):
/// the reference the table-driven util::crc32 must agree with.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1U) != 0 ? 0xEDB88320U ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(nscc::util::crc32("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(nscc::util::crc32("", 0), 0U);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // 12,828 bytes is one packed 1,600-double Jacobi block plus its headers.
  constexpr std::size_t kBlock = 12828;
  Xoshiro256 rng(31);
  std::vector<unsigned char> buf(kBlock + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 17; ++len) lengths.push_back(len);
  lengths.push_back(kBlock);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t len : lengths) {
      const unsigned char* p = buf.data() + offset;
      EXPECT_EQ(nscc::util::crc32(p, len), bitwise_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Chunked updates at odd boundaries agree with the one-shot form.
  std::uint32_t crc = nscc::util::crc32_init();
  std::size_t done = 0;
  for (const std::size_t chunk : {3U, 13U, 8U, 1U, 5000U}) {
    crc = nscc::util::crc32_update(crc, buf.data() + done, chunk);
    done += chunk;
  }
  crc = nscc::util::crc32_update(crc, buf.data() + done, kBlock - done);
  EXPECT_EQ(nscc::util::crc32_final(crc), bitwise_crc32(buf.data(), kBlock));
}

}  // namespace
