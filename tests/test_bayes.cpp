// Tests for the Bayesian-network substrate: network/CPT mechanics, the
// Table 2 generators' structural statistics, the METIS-substitute
// partitioner, sequential logic sampling against exact hand-computed
// posteriors, and the parallel rollback sampler in all three modes —
// including the key invariant that every mode converges to the same
// validated sample stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "bayes/generators.hpp"
#include "bayes/logic_sampling.hpp"
#include "bayes/network.hpp"
#include "bayes/parallel_sampling.hpp"
#include "bayes/partitioner.hpp"

namespace {

using nscc::bayes::BeliefNetwork;
using nscc::bayes::Evidence;
using nscc::bayes::InferenceConfig;
using nscc::bayes::ParallelInferenceConfig;
using nscc::bayes::Partition;
using nscc::bayes::PartitionConfig;
using nscc::bayes::Query;
using nscc::dsm::Mode;

/// The paper's Figure 1 network (medical diagnosis example, 5 binary
/// nodes): A -> B, A -> C, (B,C) -> D, C -> E.
BeliefNetwork figure1_network() {
  BeliefNetwork net;
  const auto a = net.add_node("A", 2);
  const auto b = net.add_node("B", 2);
  const auto c = net.add_node("C", 2);
  const auto d = net.add_node("D", 2);
  const auto e = net.add_node("E", 2);
  net.set_parents(b, {a});
  net.set_parents(c, {a});
  net.set_parents(d, {b, c});
  net.set_parents(e, {c});
  // Value 0 = false, value 1 = true; p(A=true) = 0.20.
  net.set_cpt(a, {0.80, 0.20});
  net.set_cpt(b, {0.80, 0.20,    // A=false
                  0.20, 0.80});  // A=true
  net.set_cpt(c, {0.95, 0.05,    // A=false
                  0.20, 0.80});  // A=true
  net.set_cpt(d, {0.95, 0.05,    // B=f, C=f
                  0.40, 0.60,    // B=f, C=t
                  0.30, 0.70,    // B=t, C=f
                  0.20, 0.80});  // B=t, C=t
  net.set_cpt(e, {0.90, 0.10,    // C=false
                  0.30, 0.70});  // C=true
  net.validate();
  return net;
}

/// Exact P(B = true) for figure1_network by enumeration over A.
constexpr double kExactBTrue = 0.80 * 0.20 + 0.20 * 0.80;  // 0.32

TEST(Network, BuildValidateAndStats) {
  const auto net = figure1_network();
  EXPECT_EQ(net.size(), 5);
  EXPECT_EQ(net.edge_count(), 5);
  EXPECT_NEAR(net.edges_per_node(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(net.average_cardinality(), 2.0);
}

TEST(Network, CptRowIndexing) {
  const auto net = figure1_network();
  // D's parents are (B, C); row = B*2 + C.
  EXPECT_EQ(net.cpt_row(3, {0, 0}), 0u);
  EXPECT_EQ(net.cpt_row(3, {0, 1}), 1u);
  EXPECT_EQ(net.cpt_row(3, {1, 0}), 2u);
  EXPECT_EQ(net.cpt_row(3, {1, 1}), 3u);
  EXPECT_DOUBLE_EQ(net.conditional(3, 1, {1, 1}), 0.80);
}

TEST(Network, TopologicalOrderRespectsEdges) {
  const auto net = figure1_network();
  const auto order = net.topological_order();
  std::vector<int> pos(static_cast<std::size_t>(net.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (int v = 0; v < net.size(); ++v) {
    for (int p : net.node(v).parents) {
      EXPECT_LT(pos[static_cast<std::size_t>(p)], pos[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Network, CycleDetected) {
  BeliefNetwork net;
  const auto x = net.add_node("x", 2);
  const auto y = net.add_node("y", 2);
  net.set_parents(x, {y});
  net.set_parents(y, {x});
  EXPECT_THROW(net.topological_order(), std::logic_error);
}

TEST(Network, BadCptRejected) {
  BeliefNetwork net;
  const auto x = net.add_node("x", 2);
  EXPECT_THROW(net.set_cpt(x, {0.5}), std::invalid_argument);
  net.set_cpt(x, {0.7, 0.2});  // Does not sum to 1.
  EXPECT_THROW(net.validate(), std::logic_error);
}

TEST(Network, SampleNodeFollowsCpt) {
  const auto net = figure1_network();
  nscc::util::Xoshiro256 rng(3);
  std::vector<int> assignment(5, 0);
  int trues = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) trues += net.sample_node(0, assignment, rng);
  EXPECT_NEAR(static_cast<double>(trues) / n, 0.20, 0.01);
}

TEST(Network, DefaultValuesFollowArgmaxSweep) {
  const auto net = figure1_network();
  const auto defaults = net.default_values();
  // A defaults to false; then B, C, D, E all default to false given false
  // parents (all their false-row argmax is false).
  EXPECT_EQ(defaults, (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(Generators, RandomNetworkMatchesRequestedShape) {
  nscc::bayes::RandomNetworkConfig cfg;
  cfg.nodes = 54;
  cfg.edges = 119;
  cfg.seed = 7;
  const auto net = nscc::bayes::make_random_network(cfg);
  EXPECT_EQ(net.size(), 54);
  EXPECT_EQ(net.edge_count(), 119);
  for (int v = 0; v < net.size(); ++v) {
    EXPECT_LE(static_cast<int>(net.node(v).parents.size()), cfg.max_parents);
  }
  net.validate();
}

TEST(Generators, Table2NetworksMatchPublishedStats) {
  const auto a = nscc::bayes::make_network_a();
  EXPECT_EQ(a.size(), 54);
  EXPECT_NEAR(a.edges_per_node(), 2.2, 0.05);
  const auto aa = nscc::bayes::make_network_aa();
  EXPECT_NEAR(aa.edges_per_node(), 2.4, 0.05);
  const auto c = nscc::bayes::make_network_c();
  EXPECT_NEAR(c.edges_per_node(), 2.0, 0.05);
  const auto h = nscc::bayes::make_hailfinder_like();
  EXPECT_EQ(h.size(), 56);
  EXPECT_NEAR(h.edges_per_node(), 1.2, 0.05);
  EXPECT_DOUBLE_EQ(h.average_cardinality(), 4.0);
}

TEST(Generators, HailfinderLikeIsSkewedTowardDefaults) {
  const auto h = nscc::bayes::make_hailfinder_like();
  // Sample marginals; default values should dominate strongly.
  nscc::util::Xoshiro256 rng(5);
  const auto order = h.topological_order();
  const auto defaults = h.default_values();
  std::vector<int> assignment(static_cast<std::size_t>(h.size()), 0);
  int matches = 0;
  int total = 0;
  for (int s = 0; s < 2000; ++s) {
    for (auto id : order) {
      assignment[static_cast<std::size_t>(id)] = h.sample_node(id, assignment, rng);
    }
    for (int v = 0; v < h.size(); ++v) {
      matches += assignment[static_cast<std::size_t>(v)] ==
                 defaults[static_cast<std::size_t>(v)];
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(matches) / total, 0.85);
}

TEST(Partitioner, BalancedTwoWaySplit) {
  const auto net = nscc::bayes::make_network_a();
  const auto part = nscc::bayes::partition_network(net, {});
  const auto sizes = part.part_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 54);
  EXPECT_GE(sizes[0], 24);
  EXPECT_GE(sizes[1], 24);
}

TEST(Partitioner, RefinementBeatsNaiveSplit) {
  const auto net = nscc::bayes::make_network_a();
  const auto part = nscc::bayes::partition_network(net, {});
  // Naive split: first half vs second half of node ids.
  Partition naive;
  naive.parts = 2;
  naive.assignment.assign(54, 0);
  for (int v = 27; v < 54; ++v) naive.assignment[static_cast<std::size_t>(v)] = 1;
  EXPECT_LE(nscc::bayes::edge_cut(net, part), nscc::bayes::edge_cut(net, naive));
}

TEST(Partitioner, HailfinderLikeHasTinyCut) {
  const auto net = nscc::bayes::make_hailfinder_like();
  const auto part = nscc::bayes::partition_network(net, {});
  // Table 2 reports 4 for the real Hailfinder; the synthetic module
  // structure must land in the same regime.
  EXPECT_LE(nscc::bayes::edge_cut(net, part), 8);
}

TEST(Partitioner, FourWaySplitCoversAllNodes) {
  const auto net = nscc::bayes::make_network_aa();
  PartitionConfig cfg;
  cfg.parts = 4;
  const auto part = nscc::bayes::partition_network(net, cfg);
  const auto sizes = part.part_sizes();
  ASSERT_EQ(sizes.size(), 4u);
  for (int s : sizes) EXPECT_GE(s, 9);
}

TEST(LogicSampling, MatchesExactPosteriorOnFigure1) {
  const auto net = figure1_network();
  InferenceConfig cfg;
  cfg.seed = 17;
  cfg.precision = 0.01;
  const auto result = nscc::bayes::run_logic_sampling(
      net, {}, {{1, 1}}, cfg);  // P(B = true), no evidence.
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.estimates[0].probability, kExactBTrue, 0.015);
  EXPECT_EQ(result.samples_drawn, result.samples_used);  // No rejection.
}

TEST(LogicSampling, EvidenceConditioningWorks) {
  const auto net = figure1_network();
  InferenceConfig cfg;
  cfg.seed = 19;
  // P(B=true | A=true) = 0.80 exactly.
  const auto result =
      nscc::bayes::run_logic_sampling(net, {{0, 1}}, {{1, 1}}, cfg);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.estimates[0].probability, 0.80, 0.02);
  EXPECT_LT(result.samples_used, result.samples_drawn);  // ~80% rejected.
}

TEST(LogicSampling, StopsWhenPrecisionReached) {
  const auto net = figure1_network();
  InferenceConfig cfg;
  cfg.seed = 23;
  cfg.precision = 0.05;  // Loose: needs ~270 samples at p=0.32.
  const auto loose = nscc::bayes::run_logic_sampling(net, {}, {{1, 1}}, cfg);
  cfg.precision = 0.01;
  const auto tight = nscc::bayes::run_logic_sampling(net, {}, {{1, 1}}, cfg);
  EXPECT_LT(loose.samples_drawn, tight.samples_drawn);
  EXPECT_LT(loose.completion_time, tight.completion_time);
  for (const auto& est : tight.estimates) {
    EXPECT_LE(est.ci.half_width(), 0.01);
  }
}

TEST(LogicSampling, VirtualTimeScalesWithWork) {
  const auto net = figure1_network();
  InferenceConfig cfg;
  cfg.seed = 29;
  cfg.precision = 0.02;
  const auto r = nscc::bayes::run_logic_sampling(net, {}, {{1, 1}}, cfg);
  const auto min_expected = static_cast<nscc::sim::Time>(r.samples_drawn) *
                            net.size() * cfg.cost_per_node_sample;
  EXPECT_GE(r.completion_time, min_expected);
}

TEST(LogicSampling, DefaultQueryAndEvidenceHelpers) {
  const auto net = nscc::bayes::make_network_a();
  const auto queries = nscc::bayes::default_queries(net, 4, 7);
  EXPECT_EQ(queries.size(), 4u);
  const auto evidence = nscc::bayes::default_evidence(net, 3, 7);
  EXPECT_EQ(evidence.size(), 3u);
  for (const auto& q : queries) {
    EXPECT_GE(q.node, 0);
    EXPECT_LT(q.node, net.size());
    EXPECT_LT(q.value, net.node(q.node).cardinality);
  }
}

ParallelInferenceConfig small_parallel(Mode mode, nscc::dsm::Iteration age) {
  ParallelInferenceConfig cfg;
  cfg.mode = mode;
  cfg.age = age;
  cfg.iterations = 2500;
  cfg.seed = 31;
  return cfg;
}

TEST(ParallelSampling, SyncRunsWithoutRollbacks) {
  const auto net = figure1_network();
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {}, {{1, 1}}, small_parallel(Mode::kSynchronous, 0), {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.rollbacks, 0u);
  EXPECT_NEAR(r.estimates[0].probability, kExactBTrue, 0.03);
}

TEST(ParallelSampling, AllModesAgreeOnValidatedEstimates) {
  // Counter-based randomness means the validated sample stream is the same
  // joint distribution regardless of mode/timing; estimates must agree to
  // within the CI.
  const auto net = nscc::bayes::make_network_a();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  std::vector<double> probs;
  for (auto [mode, age] :
       {std::pair{Mode::kSynchronous, nscc::dsm::Iteration{0}},
        {Mode::kAsynchronous, nscc::dsm::Iteration{0}},
        {Mode::kPartialAsync, nscc::dsm::Iteration{10}}}) {
    const auto r = nscc::bayes::run_parallel_logic_sampling(
        net, {}, queries, small_parallel(mode, age), {});
    EXPECT_FALSE(r.deadlocked);
    ASSERT_EQ(r.estimates.size(), queries.size());
    probs.push_back(r.estimates[0].probability);
  }
  EXPECT_NEAR(probs[0], probs[1], 1e-9);
  EXPECT_NEAR(probs[0], probs[2], 1e-9);
}

TEST(ParallelSampling, AsynchronousRollsBackAndStillConverges) {
  const auto net = nscc::bayes::make_network_a();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {}, queries, small_parallel(Mode::kAsynchronous, 0), {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GT(r.rollbacks, 0u);
  EXPECT_GT(r.validated_samples, 2000u);
}

TEST(ParallelSampling, GlobalReadAgeBoundsReduceRollbackWork) {
  // On a skewed (speculation-friendly) network, bounding the run-ahead with
  // Global_Read reduces the amount of invalidated, recomputed work.
  const auto net = nscc::bayes::make_hailfinder_like();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  auto tight_cfg = small_parallel(Mode::kPartialAsync, 2);
  tight_cfg.batch = 1;  // Same message pattern; isolate the age effect.
  auto async_cfg = small_parallel(Mode::kAsynchronous, 0);
  // Widen the speed gap so the async run genuinely strays ahead.
  tight_cfg.node_speed_spread = 0.4;
  async_cfg.node_speed_spread = 0.4;
  const auto tight = nscc::bayes::run_parallel_logic_sampling(
      net, {}, queries, tight_cfg, {});
  const auto async_r = nscc::bayes::run_parallel_logic_sampling(
      net, {}, queries, async_cfg, {});
  EXPECT_LT(tight.nodes_resampled, async_r.nodes_resampled);
  EXPECT_GT(tight.global_read_blocks, 0u);
  EXPECT_EQ(async_r.global_read_blocks, 0u);
}

TEST(ParallelSampling, PartialAsyncBeatsSyncOnTime) {
  const auto net = nscc::bayes::make_hailfinder_like();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  const auto sync = nscc::bayes::run_parallel_logic_sampling(
      net, {}, queries, small_parallel(Mode::kSynchronous, 0), {});
  const auto part = nscc::bayes::run_parallel_logic_sampling(
      net, {}, queries, small_parallel(Mode::kPartialAsync, 20), {});
  EXPECT_LT(part.full_run_time, sync.full_run_time);
}

TEST(ParallelSampling, DeterministicForSeed) {
  const auto net = figure1_network();
  const auto cfg = small_parallel(Mode::kPartialAsync, 5);
  const auto a =
      nscc::bayes::run_parallel_logic_sampling(net, {}, {{1, 1}}, cfg, {});
  const auto b =
      nscc::bayes::run_parallel_logic_sampling(net, {}, {{1, 1}}, cfg, {});
  EXPECT_EQ(a.full_run_time, b.full_run_time);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_DOUBLE_EQ(a.estimates[0].probability, b.estimates[0].probability);
}

TEST(ParallelSampling, EvidenceSupportedAcrossPartitions) {
  const auto net = figure1_network();
  auto cfg = small_parallel(Mode::kPartialAsync, 5);
  cfg.iterations = 20000;  // Rejection sampling needs more runs.
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {{0, 1}}, {{1, 1}}, cfg, {});  // P(B=true | A=true) = 0.80.
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NEAR(r.estimates[0].probability, 0.80, 0.03);
}

TEST(ParallelSampling, ReportsEdgeCutAndTraffic) {
  const auto net = nscc::bayes::make_network_a();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {}, queries, small_parallel(Mode::kSynchronous, 0), {});
  EXPECT_GT(r.edge_cut, 0);
  EXPECT_GT(r.messages_sent, 2 * r.iterations);  // Blocks + barrier traffic.
  EXPECT_GT(r.bytes_sent, 0u);
}

TEST(ParallelSampling, BackgroundLoadSlowsCompletion) {
  const auto net = nscc::bayes::make_hailfinder_like();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  auto cfg = small_parallel(Mode::kSynchronous, 0);
  const auto unloaded =
      nscc::bayes::run_parallel_logic_sampling(net, {}, queries, cfg, {});
  cfg.loader_offered_bps = 5e6;
  const auto loaded =
      nscc::bayes::run_parallel_logic_sampling(net, {}, queries, cfg, {});
  EXPECT_GT(loaded.full_run_time, unloaded.full_run_time);
}

TEST(ParallelSampling, CrashBeforeTheFirstPeriodicCheckpointResumesAtZero) {
  // The only snapshot is the one taken before iteration 0, so the restored
  // incarnation must compute iteration 0 too: skipping it once left an
  // unpublished iteration inside a flushed range, and the peer's decoder
  // threw on the short block.
  const auto net = figure1_network();
  auto cfg = small_parallel(Mode::kPartialAsync, 10);
  cfg.iterations = 1500;
  cfg.recovery.policy = nscc::recovery::Policy::kRejoin;
  nscc::rt::MachineConfig machine;
  machine.fault.crashes[1].push_back(nscc::fault::Window{
      nscc::sim::kSecond / 10, nscc::sim::kSecond * 15 / 100});
  machine.transport.enabled = true;
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {{0, 1}}, {{1, 1}}, cfg, machine);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.restores, 1U);
  EXPECT_EQ(r.rejoins, 1U);
}

// ---------------------------------------------------------------------------
// Pinned runs.  Every RunStats field, the estimate bits and the sampler's
// own counters were captured before the sampling task's publication
// history became one flat buffer per phase and its validated tally became
// incremental.  Both changes only restructure host-side bookkeeping, so
// every run must stay bit-identical: sync, partial at age 10, async under
// frame loss (whose corrections rewrite already-tallied iterations) and a
// stateful crash whose restore unpacks the publication history.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Every RunStats field: names and value bits (times in seconds).
std::uint64_t hash_stats(const nscc::bayes::ParallelInferenceResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : r.to_fields()) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, &value, sizeof value);
  }
  return h;
}

/// Every estimate's query, probability and interval bits, in order.
std::uint64_t hash_estimates(const nscc::bayes::ParallelInferenceResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& est : r.estimates) {
    h = fnv1a(h, &est.query.node, sizeof est.query.node);
    h = fnv1a(h, &est.query.value, sizeof est.query.value);
    h = fnv1a(h, &est.probability, sizeof est.probability);
    h = fnv1a(h, &est.ci.lo, sizeof est.ci.lo);
    h = fnv1a(h, &est.ci.hi, sizeof est.ci.hi);
  }
  return h;
}

struct SamplingPin {
  std::int64_t completion_time;
  std::int64_t full_run_time;
  std::uint64_t validated_samples;
  std::uint64_t rollbacks;
  std::uint64_t nodes_resampled;
  std::uint64_t estimates_hash;
  std::uint64_t stats_hash;
};

void expect_pinned(const nscc::bayes::ParallelInferenceResult& r,
                   const SamplingPin& want) {
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.completion_time, want.completion_time);
  EXPECT_EQ(r.full_run_time, want.full_run_time);
  EXPECT_EQ(r.validated_samples, want.validated_samples);
  EXPECT_EQ(r.rollbacks, want.rollbacks);
  EXPECT_EQ(r.nodes_resampled, want.nodes_resampled);
  EXPECT_EQ(hash_estimates(r), want.estimates_hash)
      << std::hex << hash_estimates(r);
  EXPECT_EQ(hash_stats(r), want.stats_hash) << std::hex << hash_stats(r);
}

TEST(ParallelSamplingPinned, SyncMatchesCapturedRun) {
  const auto net = nscc::bayes::make_network_a();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  const auto evidence = nscc::bayes::default_evidence(net, 1, 7);
  auto cfg = small_parallel(Mode::kSynchronous, 0);
  cfg.iterations = 1500;
  expect_pinned(nscc::bayes::run_parallel_logic_sampling(net, evidence,
                                                         queries, cfg, {}),
                {10454264799, 10454264799, 1093, 0, 0, 0x5e7b970411fa8888ULL,
                 0x9645903a96db5d60ULL});
}

TEST(ParallelSamplingPinned, PartialAge10MatchesCapturedRun) {
  const auto net = nscc::bayes::make_network_a();
  const auto queries = nscc::bayes::default_queries(net, 3, 11);
  const auto evidence = nscc::bayes::default_evidence(net, 1, 7);
  auto cfg = small_parallel(Mode::kPartialAsync, 10);
  cfg.iterations = 1500;
  expect_pinned(nscc::bayes::run_parallel_logic_sampling(net, evidence,
                                                         queries, cfg, {}),
                {4097722050, 4097722050, 1093, 6851, 48792,
                 0x5e7b970411fa8888ULL, 0xdf2d76e5344a5382ULL});
}

TEST(ParallelSamplingPinned, AsyncMatchesCapturedRun) {
  // The evidence node D has a parent on each part, so a peer's correction
  // can rewrite the evidence bit of an iteration a CI checkpoint already
  // tallied; the tally must take that iteration back out.
  const auto net = figure1_network();
  auto cfg = small_parallel(Mode::kAsynchronous, 0);
  cfg.iterations = 1500;
  expect_pinned(nscc::bayes::run_parallel_logic_sampling(
                    net, {{3, 1}}, {{0, 1}, {1, 1}, {2, 1}, {4, 1}}, cfg, {}),
                {3309670383, 3309670383, 480, 1558, 2082, 0xde253d7448f988aaULL,
                 0x9d5f1bbd197a86bbULL});
}

TEST(ParallelSamplingPinned, AsyncUnderLossMatchesCapturedRun) {
  // Interface blocks are best-effort, so a lost marker block stops the
  // validated frontier for good; late and lost blocks still roll back.
  const auto net = figure1_network();
  auto cfg = small_parallel(Mode::kAsynchronous, 0);
  cfg.iterations = 1500;
  nscc::rt::MachineConfig machine;
  machine.fault.link.loss_prob = 0.02;
  machine.fault.seed = 31 ^ 0xFA17ULL;
  machine.transport.enabled = true;
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {{0, 1}}, {{1, 1}, {3, 1}, {4, 1}}, cfg, machine);
  EXPECT_GT(r.frames_lost, 0U);
  EXPECT_GT(r.rollbacks, 0U);
  expect_pinned(r, {620699457, 3159045039, 1, 1436, 1814, 0xd539cadaf49570e7ULL,
                    0xe25f97b75fc907a6ULL});
}

TEST(ParallelSamplingPinned, StatefulCrashRejoinMatchesCapturedRun) {
  // Part 1's process is killed mid-run, restored from a checkpoint that
  // carries its publication history, and rejoins.
  const auto net = figure1_network();
  auto cfg = small_parallel(Mode::kPartialAsync, 10);
  cfg.iterations = 1500;
  cfg.recovery.policy = nscc::recovery::Policy::kRejoin;
  cfg.recovery.checkpoint_interval = nscc::sim::kSecond / 20;
  nscc::rt::MachineConfig machine;
  machine.fault.crashes[1].push_back(nscc::fault::Window{
      nscc::sim::kSecond / 10, nscc::sim::kSecond * 15 / 100});
  machine.transport.enabled = true;
  const auto r = nscc::bayes::run_parallel_logic_sampling(
      net, {{0, 1}}, {{1, 1}, {3, 1}, {4, 1}}, cfg, machine);
  EXPECT_EQ(r.crashes, 1U);
  EXPECT_EQ(r.restores, 1U);
  EXPECT_EQ(r.rejoins, 1U);
  expect_pinned(r, {1386645667, 1386645667, 8, 1885, 2339,
                    0x3b4e712ffb23e5baULL, 0xe38ebdc30808bd3cULL});
}

}  // namespace
