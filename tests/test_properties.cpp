// Parameterized property tests: invariants swept across the whole parameter
// space — every test function, every consistency mode, a range of ages,
// seeds, and network configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "bayes/generators.hpp"
#include "bayes/parallel_sampling.hpp"
#include "bayes/partitioner.hpp"
#include "dsm/shared_space.hpp"
#include "ga/chromosome.hpp"
#include "ga/deme.hpp"
#include "ga/island.hpp"
#include "net/shared_bus.hpp"

namespace {

using nscc::dsm::Mode;

// ---- per-test-function properties -------------------------------------------

class EveryFunction : public ::testing::TestWithParam<int> {};

TEST_P(EveryFunction, DecodeStaysWithinLimits) {
  const auto& fn = nscc::ga::test_function(GetParam());
  nscc::util::Xoshiro256 rng(11 + GetParam());
  for (int rep = 0; rep < 50; ++rep) {
    nscc::util::BitVec genome(static_cast<std::size_t>(fn.genome_bits()));
    genome.randomize(rng);
    const auto x = nscc::ga::decode(genome, fn);
    ASSERT_EQ(static_cast<int>(x.size()), fn.nvars);
    for (double v : x) {
      EXPECT_GE(v, fn.lo);
      EXPECT_LE(v, fn.hi);
    }
  }
}

TEST_P(EveryFunction, EvaluationIsFiniteAndAboveMinimum) {
  const auto& fn = nscc::ga::test_function(GetParam());
  nscc::util::Xoshiro256 rng(23 + GetParam());
  for (int rep = 0; rep < 200; ++rep) {
    nscc::util::BitVec genome(static_cast<std::size_t>(fn.genome_bits()));
    genome.randomize(rng);
    const double f = fn.eval(nscc::ga::decode(genome, fn), rng);
    ASSERT_TRUE(std::isfinite(f));
    if (!fn.noisy) {
      EXPECT_GE(f, fn.global_min - 1e-6);
    }
  }
}

TEST_P(EveryFunction, MigrantSerializationRoundTrips) {
  const auto& fn = nscc::ga::test_function(GetParam());
  nscc::util::Xoshiro256 rng(31 + GetParam());
  for (int rep = 0; rep < 20; ++rep) {
    nscc::ga::Individual ind;
    ind.genome = nscc::util::BitVec(static_cast<std::size_t>(fn.genome_bits()));
    ind.genome.randomize(rng);
    ind.fitness = rng.normal(0, 1000);
    nscc::rt::Packet p;
    nscc::ga::pack_individual(p, ind, fn);
    EXPECT_EQ(p.byte_size(), nscc::ga::migrant_bytes(fn));
    nscc::ga::Individual back;
    nscc::ga::unpack_individual(p, fn, back);
    EXPECT_EQ(back.genome, ind.genome);
    EXPECT_DOUBLE_EQ(back.fitness, ind.fitness);
  }
}

TEST_P(EveryFunction, ElitistDemeNeverRegresses) {
  const auto& fn = nscc::ga::test_function(GetParam());
  if (fn.noisy) GTEST_SKIP() << "elitism under noisy fitness is not monotone";
  nscc::ga::Deme deme(fn, {}, nscc::util::Xoshiro256(41 + GetParam()));
  deme.initialize();
  double best = deme.best().fitness;
  for (int g = 0; g < 25; ++g) {
    deme.step();
    ASSERT_LE(deme.best().fitness, best + 1e-12);
    best = deme.best().fitness;
  }
  EXPECT_GE(best, fn.global_min - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllEight, EveryFunction, ::testing::Range(1, 9));

// ---- staleness bound across ages ---------------------------------------------

class EveryAge : public ::testing::TestWithParam<long> {};

TEST_P(EveryAge, ObservedStalenessNeverExceedsBound) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 1;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = GetParam();
  cfg.ndemes = 4;
  cfg.generations = 30;
  cfg.seed = 51;
  cfg.compute.node_speed_spread = 0.35;
  const auto r = nscc::ga::run_island_ga(cfg, {});
  EXPECT_FALSE(r.deadlocked);
  // Satisfied Global_Reads can only return values at least as fresh as the
  // bound requires.
  EXPECT_LE(r.mean_staleness, static_cast<double>(GetParam()) + 1e-9);
}

TEST_P(EveryAge, BayesRunAheadIsBounded) {
  const auto net = nscc::bayes::make_hailfinder_like();
  const auto queries = nscc::bayes::default_queries(net, 2, 7);
  nscc::bayes::ParallelInferenceConfig cfg;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = GetParam();
  cfg.iterations = 1200;
  cfg.seed = 7;
  cfg.node_speed_spread = 0.35;
  const auto r =
      nscc::bayes::run_parallel_logic_sampling(net, {}, queries, cfg, {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GT(r.validated_samples, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Ages, EveryAge, ::testing::Values(0L, 1L, 5L, 20L));

// ---- mode invariants -----------------------------------------------------------

class EveryMode : public ::testing::TestWithParam<Mode> {};

TEST_P(EveryMode, IslandGaCompletesWithoutDeadlock) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 7;
  cfg.mode = GetParam();
  cfg.age = 10;
  cfg.ndemes = 6;
  cfg.generations = 25;
  cfg.seed = 61;
  cfg.propagation.coalesce = GetParam() == Mode::kPartialAsync;
  const auto r = nscc::ga::run_island_ga(cfg, {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GT(r.messages_sent, 0u);
  EXPECT_TRUE(std::isfinite(r.best_fitness));
}

TEST_P(EveryMode, BayesEstimatesIdenticalAcrossModes) {
  // The validated sample stream is mode-independent (counter randomness):
  // compare every mode against a synchronous reference run.
  const auto net = nscc::bayes::make_network_c();
  const auto queries = nscc::bayes::default_queries(net, 2, 9);
  nscc::bayes::ParallelInferenceConfig cfg;
  cfg.age = 8;
  cfg.iterations = 1500;
  cfg.seed = 9;

  cfg.mode = Mode::kSynchronous;
  const auto ref =
      nscc::bayes::run_parallel_logic_sampling(net, {}, queries, cfg, {});
  ASSERT_FALSE(ref.deadlocked);
  ASSERT_FALSE(ref.estimates.empty());

  cfg.mode = GetParam();
  const auto r =
      nscc::bayes::run_parallel_logic_sampling(net, {}, queries, cfg, {});
  ASSERT_FALSE(r.deadlocked);
  ASSERT_EQ(r.estimates.size(), ref.estimates.size());
  for (std::size_t q = 0; q < r.estimates.size(); ++q) {
    EXPECT_NEAR(r.estimates[q].probability, ref.estimates[q].probability,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, EveryMode,
                         ::testing::Values(Mode::kSynchronous,
                                           Mode::kAsynchronous,
                                           Mode::kPartialAsync));

// ---- determinism across seeds ----------------------------------------------------

class EverySeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EverySeed, IslandGaIsAPureFunctionOfSeed) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 8;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 5;
  cfg.ndemes = 3;
  cfg.generations = 15;
  cfg.seed = GetParam();
  const auto a = nscc::ga::run_island_ga(cfg, {});
  const auto b = nscc::ga::run_island_ga(cfg, {});
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

TEST_P(EverySeed, DifferentSeedsGiveDifferentRuns) {
  nscc::ga::IslandConfig cfg;
  cfg.function_id = 8;
  cfg.mode = Mode::kAsynchronous;
  cfg.ndemes = 3;
  cfg.generations = 15;
  cfg.seed = GetParam();
  const auto a = nscc::ga::run_island_ga(cfg, {});
  cfg.seed = GetParam() + 1;
  const auto b = nscc::ga::run_island_ga(cfg, {});
  EXPECT_NE(a.completion_time, b.completion_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EverySeed,
                         ::testing::Values(1ULL, 42ULL, 1234567ULL));

// ---- bus properties ---------------------------------------------------------------

class EveryBandwidth : public ::testing::TestWithParam<double> {};

TEST_P(EveryBandwidth, TransmissionTimeMatchesRate) {
  nscc::sim::Engine eng;
  nscc::net::BusConfig cfg;
  cfg.bandwidth_bps = GetParam();
  cfg.frame_overhead_bytes = 0;
  nscc::net::SharedBus bus(eng, cfg);
  const auto t = bus.transmission_time(1000);
  const double expected_s = 8000.0 / GetParam();
  EXPECT_NEAR(nscc::sim::to_seconds(t), expected_s, expected_s * 0.001 + 1e-9);
  // Monotone in size.
  EXPECT_GT(bus.transmission_time(2000), t);
}

INSTANTIATE_TEST_SUITE_P(Rates, EveryBandwidth,
                         ::testing::Values(1e6, 10e6, 100e6));

// ---- partitioner properties -------------------------------------------------------

class EveryPartCount : public ::testing::TestWithParam<int> {};

TEST_P(EveryPartCount, PartitionIsCompleteAndBalanced) {
  const auto net = nscc::bayes::make_network_aa();
  nscc::bayes::PartitionConfig cfg;
  cfg.parts = GetParam();
  const auto part = nscc::bayes::partition_network(net, cfg);
  ASSERT_EQ(part.assignment.size(), static_cast<std::size_t>(net.size()));
  const auto sizes = part.part_sizes();
  ASSERT_EQ(static_cast<int>(sizes.size()), GetParam());
  int total = 0;
  const int ideal = net.size() / GetParam();
  for (int s : sizes) {
    total += s;
    EXPECT_GE(s, ideal / 2);  // No starved part.
  }
  EXPECT_EQ(total, net.size());
  EXPECT_GE(nscc::bayes::edge_cut(net, part), 1);
}

INSTANTIATE_TEST_SUITE_P(Parts, EveryPartCount, ::testing::Values(2, 3, 4, 6));

}  // namespace
