// Tests for the iterative-solver application: CSR mechanics, system
// generators, sequential Jacobi convergence, and the parallel solver's
// convergence guarantee under every consistency mode (the Bertsekas &
// Tsitsiklis bounded-staleness result the paper builds on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "solver/jacobi.hpp"
#include "solver/linear_system.hpp"
#include "util/rng.hpp"

namespace {

using nscc::dsm::Mode;
using nscc::solver::ParallelJacobiResult;
using nscc::solver::CsrMatrix;
using nscc::solver::JacobiConfig;
using nscc::solver::LinearSystem;
using nscc::solver::ParallelJacobiConfig;

TEST(CsrMatrixTest, MultiplyAndResidual) {
  // [2 1; 0 3] * [1, 2] = [4, 6].
  const auto m = CsrMatrix::from_rows(
      2, {{{0, 2.0}, {1, 1.0}}, {{1, 3.0}}});
  std::vector<double> y;
  m.multiply({1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(m.residual_inf({1.0, 2.0}, {4.0, 6.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.residual_inf({1.0, 2.0}, {4.0, 8.0}), 2.0);
}

TEST(CsrMatrixTest, DiagonalAccessAndDominance) {
  const auto dom = CsrMatrix::from_rows(
      2, {{{0, 3.0}, {1, 1.0}}, {{0, -1.0}, {1, 2.5}}});
  // With x = 0 the Jacobi update is b_r / a_rr.
  const std::vector<double> b = {6.0, 5.0};
  const std::vector<double> zero = {0.0, 0.0};
  std::vector<double> out(2);
  dom.jacobi_rows(0, 2, b, zero, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_TRUE(dom.strictly_diagonally_dominant());
  const auto weak = CsrMatrix::from_rows(
      2, {{{0, 1.0}, {1, 1.0}}, {{1, 2.0}}});
  EXPECT_FALSE(weak.strictly_diagonally_dominant());
}

TEST(CsrMatrixTest, RowDotExcludesDiagonal) {
  const auto m = CsrMatrix::from_rows(
      2, {{{0, 5.0}, {1, 2.0}}, {{0, 1.0}, {1, 4.0}}});
  // Off-diagonal dots with x = (10, 3) are 6 and 10.
  const std::vector<double> b = {16.0, 30.0};
  const std::vector<double> x = {10.0, 3.0};
  std::vector<double> out(2);
  m.jacobi_rows(0, 2, b, x, out);
  EXPECT_DOUBLE_EQ(out[0], (16.0 - 6.0) / 5.0);
  EXPECT_DOUBLE_EQ(out[1], (30.0 - 10.0) / 4.0);
  // A sub-range writes from the front of out.
  std::vector<double> one(1);
  m.jacobi_rows(1, 2, b, x, one);
  EXPECT_DOUBLE_EQ(one[0], out[1]);
}

/// The update as computed before the one-kernel form: a row dot that skips
/// every diagonal entry, then a second scan for the first a_rr.
double two_call_update(const LinearSystem& sys, const std::vector<double>& x,
                       int r) {
  int count = 0;
  const auto [cols, vals] = sys.a.row(r, count);
  double dot = 0.0;
  for (int i = 0; i < count; ++i) {
    if (cols[i] != r) dot += vals[i] * x[static_cast<std::size_t>(cols[i])];
  }
  double diag = 0.0;
  for (int i = 0; i < count; ++i) {
    if (cols[i] == r) {
      diag = vals[i];
      break;
    }
  }
  return (sys.b[static_cast<std::size_t>(r)] - dot) / diag;
}

void expect_kernel_matches_two_calls(const LinearSystem& sys) {
  const int n = sys.size();
  nscc::util::Xoshiro256 rng(29);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-3.0, 3.0);
  std::vector<double> out(static_cast<std::size_t>(n));
  sys.a.jacobi_rows(0, n, sys.b, x, out);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(out[static_cast<std::size_t>(r)], two_call_update(sys, x, r))
        << "row " << r;
  }
  // An interior block, as one parallel task sweeps it.
  const int lo = n / 3;
  const int hi = 2 * n / 3;
  std::vector<double> block(static_cast<std::size_t>(hi - lo));
  sys.a.jacobi_rows(lo, hi, sys.b, x, block);
  for (int r = lo; r < hi; ++r) {
    EXPECT_EQ(block[static_cast<std::size_t>(r - lo)],
              two_call_update(sys, x, r))
        << "row " << r;
  }
}

TEST(CsrMatrixTest, JacobiRowsMatchTwoCallFormulaBitForBit) {
  // Poisson puts the diagonal first in each row; the random generator puts
  // it last, after the off-diagonals.
  expect_kernel_matches_two_calls(nscc::solver::make_poisson_2d(12, 3));
  expect_kernel_matches_two_calls(
      nscc::solver::make_dominant_random(300, 5, 1.4, 9));
  // A band with the diagonal mid-row, so both runs carry entries and their
  // order shows in the rounding.
  const int n = 200;
  nscc::util::Xoshiro256 rng(41);
  std::vector<std::vector<std::pair<int, double>>> rows(n);
  for (int r = 0; r < n; ++r) {
    for (int c = std::max(0, r - 3); c <= std::min(n - 1, r + 3); ++c) {
      rows[static_cast<std::size_t>(r)].emplace_back(
          c, c == r ? 10.0 + rng.uniform01() : rng.uniform(-1.0, 1.0));
    }
  }
  LinearSystem band;
  band.a = CsrMatrix::from_rows(n, rows);
  band.b.resize(n);
  for (double& v : band.b) v = rng.uniform(-5.0, 5.0);
  expect_kernel_matches_two_calls(band);
}

TEST(CsrMatrixTest, MissingDiagonalThrowsAtItsRow) {
  const auto m = CsrMatrix::from_rows(
      2, {{{0, 2.0}, {1, 1.0}}, {{0, 1.0}}});
  const std::vector<double> b = {4.0, 1.0};
  const std::vector<double> zero = {0.0, 0.0};
  std::vector<double> out(2, -1.0);
  EXPECT_THROW(m.jacobi_rows(0, 2, b, zero, out), std::logic_error);
  EXPECT_DOUBLE_EQ(out[0], 2.0);  // Rows before the bad one are done.
  EXPECT_DOUBLE_EQ(out[1], -1.0);
  EXPECT_NO_THROW(m.jacobi_rows(0, 1, b, zero, out));  // Row 0 alone.
}

TEST(CsrMatrixTest, TwoDiagonalEntriesInOneRowAreRejected) {
  try {
    (void)CsrMatrix::from_rows(
        2, {{{0, 2.0}}, {{1, 2.0}, {0, 1.0}, {1, 3.0}}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }
}

TEST(CsrMatrixTest, RangeResidualCoversItsRowsOnly) {
  const auto sys = nscc::solver::make_dominant_random(60, 4, 1.5, 5);
  std::vector<double> x(60, 0.25);
  const double full = sys.a.residual_inf(x, sys.b);
  const double low = sys.a.residual_inf(x, sys.b, 0, 25);
  const double high = sys.a.residual_inf(x, sys.b, 25, 60);
  EXPECT_EQ(std::max(low, high), full);
  EXPECT_EQ(sys.a.residual_inf(x, sys.b, 10, 10), 0.0);
}

TEST(Generators, Poisson2dIsDominantWithConsistentRhs) {
  const auto sys = nscc::solver::make_poisson_2d(8, 5);
  EXPECT_EQ(sys.size(), 64);
  EXPECT_TRUE(sys.a.strictly_diagonally_dominant());
  // b was generated as A * x_true.
  EXPECT_NEAR(sys.a.residual_inf(sys.x_true, sys.b), 0.0, 1e-12);
}

TEST(Generators, DominantRandomRespectsParameters) {
  const auto sys = nscc::solver::make_dominant_random(100, 4, 1.5, 7);
  EXPECT_EQ(sys.size(), 100);
  EXPECT_TRUE(sys.a.strictly_diagonally_dominant());
  EXPECT_THROW(nscc::solver::make_dominant_random(10, 2, 0.9, 1),
               std::invalid_argument);
}

TEST(SequentialJacobi, ConvergesToTrueSolution) {
  const auto sys = nscc::solver::make_poisson_2d(10, 11);
  JacobiConfig cfg;
  cfg.tolerance = 1e-9;
  const auto r = nscc::solver::run_sequential_jacobi(sys, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.residual, 1e-9);
  EXPECT_LE(r.error_inf, 1e-7);
  EXPECT_GT(r.completion_time, 0);
  EXPECT_GT(r.sweeps, 10);
}

TEST(SequentialJacobi, TighterToleranceCostsMoreSweeps) {
  const auto sys = nscc::solver::make_dominant_random(200, 5, 1.3, 13);
  JacobiConfig loose;
  loose.tolerance = 1e-4;
  JacobiConfig tight;
  tight.tolerance = 1e-10;
  const auto a = nscc::solver::run_sequential_jacobi(sys, loose);
  const auto b = nscc::solver::run_sequential_jacobi(sys, tight);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_LT(a.sweeps, b.sweeps);
  EXPECT_LT(a.completion_time, b.completion_time);
}

class JacobiEveryMode : public ::testing::TestWithParam<Mode> {};

TEST_P(JacobiEveryMode, ParallelConvergesUnderAnyConsistency) {
  // The asynchronous-convergence theorem in action: any bounded staleness
  // still reaches the fixed point of a contraction.
  const auto sys = nscc::solver::make_poisson_2d(12, 17);
  ParallelJacobiConfig cfg;
  cfg.mode = GetParam();
  cfg.age = 8;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;
  cfg.propagation.coalesce = GetParam() == Mode::kPartialAsync;
  cfg.node_speed_spread = 0.3;
  const auto r = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.error_inf, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Modes, JacobiEveryMode,
                         ::testing::Values(Mode::kSynchronous,
                                           Mode::kAsynchronous,
                                           Mode::kPartialAsync));

TEST(ParallelJacobi, AsynchronyCostsIterationsButSavesTime) {
  const auto sys = nscc::solver::make_poisson_2d(16, 19);
  ParallelJacobiConfig cfg;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;
  cfg.node_speed_spread = 0.3;

  cfg.mode = Mode::kSynchronous;
  const auto sync = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 10;
  cfg.propagation.coalesce = true;
  const auto partial = nscc::solver::run_parallel_jacobi(sys, cfg, {});

  ASSERT_TRUE(sync.converged);
  ASSERT_TRUE(partial.converged);
  // Stale reads slow per-sweep contraction: at least as many sweeps...
  EXPECT_GE(partial.sweeps, sync.sweeps);
  // ...but each sweep is cheaper (no barrier, no fresh-data wait).
  EXPECT_LT(partial.completion_time, sync.completion_time);
}

TEST(ParallelJacobi, StalenessBoundIsRespected) {
  const auto sys = nscc::solver::make_poisson_2d(12, 23);
  ParallelJacobiConfig cfg;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 4;
  cfg.processors = 4;
  cfg.tolerance = 1e-6;
  cfg.check_interval = 25;
  cfg.node_speed_spread = 0.4;
  const auto r = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.mean_staleness, 4.0 + 1e-9);
}

TEST(ParallelJacobi, DeterministicForSeed) {
  const auto sys = nscc::solver::make_poisson_2d(10, 29);
  ParallelJacobiConfig cfg;
  cfg.mode = Mode::kAsynchronous;
  cfg.processors = 3;
  cfg.tolerance = 1e-6;
  cfg.seed = 31;
  const auto a = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  const auto b = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

TEST(ParallelJacobi, BackgroundLoadHurtsSyncMoreThanPartial) {
  const auto sys = nscc::solver::make_poisson_2d(16, 37);
  ParallelJacobiConfig cfg;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;

  auto run = [&](double loader_offered_bps) {
    cfg.loader_offered_bps = loader_offered_bps;
    return nscc::solver::run_parallel_jacobi(sys, cfg, {});
  };
  cfg.mode = Mode::kSynchronous;
  const auto sync0 = run(0.0);
  const auto sync6 = run(6e6);
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 10;
  cfg.propagation.coalesce = true;
  const auto part0 = run(0.0);
  const auto part6 = run(6e6);

  // Load hurts everyone; the bounded-staleness program stays ahead of the
  // synchronous one at every load level (it trades extra sweeps for never
  // waiting on fresh data).
  EXPECT_GT(sync6.completion_time, sync0.completion_time);
  EXPECT_GT(part6.completion_time, part0.completion_time);
  EXPECT_LT(part0.completion_time, sync0.completion_time);
  EXPECT_LT(part6.completion_time, sync6.completion_time);
}

// ---------------------------------------------------------------------------
// Pinned numerics.  Each case's final x and every RunStats field were
// captured before the sweep kernels moved onto host worker threads; the
// offload must leave them bit-identical (it only changes which host thread
// runs a pure kernel, never what it computes or when, in virtual time).
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

std::uint64_t hash_x(const ParallelJacobiResult& r) {
  return fnv1a(kFnvBasis, r.x.data(), r.x.size() * sizeof(double));
}

/// Every RunStats field (names and value bits, times in seconds) plus the
/// solver's own sweep count and residual.
std::uint64_t hash_stats(const ParallelJacobiResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : r.to_fields()) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, &value, sizeof value);
  }
  h = fnv1a(h, &r.sweeps, sizeof r.sweeps);
  return fnv1a(h, &r.residual, sizeof r.residual);
}

struct Pinned {
  std::int64_t completion_time;
  int sweeps;
  std::uint64_t x_hash;
  std::uint64_t stats_hash;
};

void expect_pinned(const ParallelJacobiResult& r, const Pinned& want) {
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.completion_time, want.completion_time);
  EXPECT_EQ(r.sweeps, want.sweeps);
  EXPECT_EQ(hash_x(r), want.x_hash) << std::hex << hash_x(r);
  EXPECT_EQ(hash_stats(r), want.stats_hash) << std::hex << hash_stats(r);
}

ParallelJacobiConfig pinned_config(Mode mode) {
  ParallelJacobiConfig cfg;
  cfg.mode = mode;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;
  cfg.node_speed_spread = 0.3;
  cfg.seed = 43;
  if (mode == Mode::kPartialAsync) {
    cfg.age = 4;
    cfg.propagation.coalesce = true;
  }
  return cfg;
}

TEST(ParallelJacobiPinned, SyncMatchesCapturedRun) {
  const auto sys = nscc::solver::make_poisson_2d(12, 17);
  expect_pinned(nscc::solver::run_parallel_jacobi(
                    sys, pinned_config(Mode::kSynchronous), {}),
                {2262630599, 375, 0xcd8d1c9508dbd3d1ULL,
                 0xda9fcbeec8caf45dULL});
}

TEST(ParallelJacobiPinned, PartialAge4MatchesCapturedRun) {
  const auto sys = nscc::solver::make_poisson_2d(12, 17);
  expect_pinned(nscc::solver::run_parallel_jacobi(
                    sys, pinned_config(Mode::kPartialAsync), {}),
                {772945551, 300, 0x972338c1b905676cULL,
                 0x5434bbb9b605bcebULL});
}

TEST(ParallelJacobiPinned, AsyncMatchesCapturedRun) {
  const auto sys = nscc::solver::make_poisson_2d(12, 17);
  expect_pinned(nscc::solver::run_parallel_jacobi(
                    sys, pinned_config(Mode::kAsynchronous), {}),
                {843300922, 325, 0x5ab71a850b97b6daULL,
                 0xb94a6d3b7c65262aULL});
}

TEST(ParallelJacobiPinned, LossySp2SyncMatchesCapturedRun) {
  // The benchmark's lossy-switch shape at a small size: reliable transport
  // over a 2%-lossy SP2 switch with a Global_Read watchdog.
  const auto sys = nscc::solver::make_poisson_2d(16, 19);
  ParallelJacobiConfig cfg = pinned_config(Mode::kSynchronous);
  cfg.propagation.read_timeout = 50 * nscc::sim::kMillisecond;
  nscc::rt::MachineConfig machine;
  machine.network = nscc::rt::Network::kSp2Switch;
  machine.fault.link.loss_prob = 0.02;
  machine.fault.seed = 43 ^ 0xFA17ULL;
  machine.transport.enabled = true;
  expect_pinned(nscc::solver::run_parallel_jacobi(sys, cfg, machine),
                {7507787047, 450, 0xf9d05b86b06f4d1bULL,
                 0xf0dd53f7ec16e893ULL});
}

TEST(ParallelJacobiPinned, StatefulCrashRejoinMatchesCapturedRun) {
  // Node 1's process is killed mid-run (its fiber unwinds, whatever it was
  // computing is abandoned), restored from a checkpoint and rejoins.
  const auto sys = nscc::solver::make_poisson_2d(24, 5);
  ParallelJacobiConfig cfg = pinned_config(Mode::kPartialAsync);
  cfg.age = 10;
  cfg.recovery.policy = nscc::recovery::Policy::kRejoin;
  cfg.recovery.checkpoint_interval = nscc::sim::kSecond / 10;
  nscc::rt::MachineConfig machine;
  machine.fault.link.loss_prob = 0.01;
  machine.fault.crashes[1].push_back(
      nscc::fault::Window{nscc::sim::kSecond, nscc::sim::kSecond * 11 / 10});
  machine.transport.enabled = true;
  const auto r = nscc::solver::run_parallel_jacobi(sys, cfg, machine);
  EXPECT_EQ(r.crashes, 1U);
  EXPECT_EQ(r.rejoins, 1U);
  expect_pinned(r, {3443745964, 850, 0x9426a1748be0c7daULL,
                 0x5e26c32998f12a31ULL});
}

}  // namespace
