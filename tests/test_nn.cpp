// Tests for the neural-network application: MLP mechanics (forward,
// analytic gradient vs finite differences, pinned bits of every kernel
// result), the two-spirals dataset, the sequential trainer, and the
// parallel bounded-staleness trainer in all three modes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/train.hpp"

namespace {

using nscc::dsm::Mode;
using nscc::nn::Dataset;
using nscc::nn::make_two_spirals;
using nscc::nn::Mlp;
using nscc::nn::TrainConfig;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the bit patterns of `values`.
std::uint64_t bits_hash(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    h ^= bits(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(MlpTest, ShapesAndParameterCount) {
  Mlp net({2, 4, 1}, 3);
  // (2*4 + 4) + (4*1 + 1) = 17.
  EXPECT_EQ(net.parameter_count(), 17u);
  const auto out = net.forward({0.5, -0.5});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0], 0.0);
  EXPECT_LT(out[0], 1.0);  // Sigmoid output.
}

TEST(MlpTest, SetParametersRoundTripsAndValidates) {
  Mlp net({2, 3, 1}, 5);
  auto p = net.parameters();
  p[0] = 42.0;
  net.set_parameters(p);
  EXPECT_DOUBLE_EQ(net.parameters()[0], 42.0);
  EXPECT_THROW(net.set_parameters({1.0, 2.0}), std::invalid_argument);
}

TEST(MlpTest, GradientMatchesFiniteDifferences) {
  Mlp net({2, 5, 1}, 7);
  Dataset data = make_two_spirals(10, 0.0, 11);
  std::vector<double> grad;
  net.gradient(data.inputs, data.targets, 0, data.size(), grad);
  ASSERT_EQ(grad.size(), net.parameter_count());

  const double eps = 1e-6;
  auto params = net.parameters();
  for (std::size_t i = 0; i < params.size(); i += 7) {  // Spot-check.
    auto plus = params;
    plus[i] += eps;
    Mlp net_plus = net;
    net_plus.set_parameters(plus);
    auto minus = params;
    minus[i] -= eps;
    Mlp net_minus = net;
    net_minus.set_parameters(minus);
    const double numeric = (net_plus.loss(data.inputs, data.targets) -
                            net_minus.loss(data.inputs, data.targets)) /
                           (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-5) << "param " << i;
  }
}

TEST(MlpTest, ApplyGradientRejectsAWrongSize) {
  Mlp net({2, 3, 1}, 5);
  const auto before = net.parameters();
  EXPECT_THROW(net.apply_gradient(std::vector<double>(before.size() - 1), 0.1),
               std::invalid_argument);
  EXPECT_THROW(net.apply_gradient(std::vector<double>(before.size() + 1), 0.1),
               std::invalid_argument);
  EXPECT_EQ(net.parameters(), before);
}

TEST(MlpTest, ApplyGradientDescendsLoss) {
  Mlp net({2, 6, 1}, 9);
  Dataset data = make_two_spirals(20, 0.0, 13);
  const double before = net.loss(data.inputs, data.targets);
  std::vector<double> grad;
  for (int i = 0; i < 50; ++i) {
    net.gradient(data.inputs, data.targets, 0, data.size(), grad);
    net.apply_gradient(grad, 0.3);
  }
  EXPECT_LT(net.loss(data.inputs, data.targets), before);
}

// The constants below were captured before the kernel was rewritten for
// speed: every loss and gradient must keep its exact bits, so any change
// here is a change of numerics, not of speed.
TEST(MlpTest, GradientBitsMatchParent) {
  {
    SCOPED_TRACE("2-16-16-1 on the spirals");
    Mlp net({2, 16, 16, 1}, 7);
    const Dataset data = make_two_spirals(60, 0.02, 7);
    std::vector<double> grad;
    const double loss = net.gradient(data.inputs, data.targets, 16, 16, grad);
    ASSERT_EQ(grad.size(), net.parameter_count());
    EXPECT_EQ(bits(loss), 4598357387446164610ULL);
    EXPECT_EQ(bits_hash(grad), 1301699768341450025ULL);
    net.apply_gradient(grad, 0.25);
    EXPECT_EQ(bits(net.loss(data.inputs, data.targets)),
              4598097032932916913ULL);
    EXPECT_EQ(bits(net.accuracy(data.inputs, data.targets)),
              4602528699185067895ULL);
  }
  {
    // in != out and two outputs; the batch runs off the end of the data,
    // so it is cut to the last five examples.
    SCOPED_TRACE("3-7-5-2 on synthetic inputs");
    Mlp net({3, 7, 5, 2}, 19);
    nscc::util::Xoshiro256 rng(23);
    std::vector<std::vector<double>> inputs(24);
    std::vector<std::vector<double>> targets(24);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      inputs[n] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                   rng.uniform(-1.0, 1.0)};
      targets[n] = {rng.bernoulli(0.5) ? 1.0 : 0.0,
                    rng.bernoulli(0.3) ? 1.0 : 0.0};
    }
    std::vector<double> grad;
    const double loss = net.gradient(inputs, targets, 4, 12, grad);
    EXPECT_EQ(bits(loss), 4602945388029396231ULL);
    EXPECT_EQ(bits_hash(grad), 12236327052544404178ULL);
    const double tail = net.gradient(inputs, targets, 19, 16, grad);
    EXPECT_EQ(bits(tail), 4601856056529179990ULL);
    EXPECT_EQ(bits_hash(grad), 12435326799168310031ULL);
    EXPECT_EQ(bits_hash(net.forward(inputs[3])), 8693894075958807641ULL);
    EXPECT_EQ(bits(net.loss(inputs, targets)), 4602772288624403516ULL);
  }
}

TEST(TwoSpirals, BalancedLabelsAndBoundedInputs) {
  const auto data = make_two_spirals(50, 0.05, 17);
  EXPECT_EQ(data.size(), 100u);
  int positives = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_LE(std::fabs(data.inputs[i][0]), 2.0);
    EXPECT_LE(std::fabs(data.inputs[i][1]), 2.0);
    positives += data.targets[i][0] >= 0.5 ? 1 : 0;
  }
  EXPECT_EQ(positives, 50);
}

TEST(SequentialTrain, LearnsTheSpirals) {
  const auto data = make_two_spirals(50, 0.02, 7);
  TrainConfig cfg;
  cfg.steps = 600;
  cfg.workers = 4;
  cfg.seed = 7;
  const auto r = nscc::nn::train_sequential(data, cfg);
  EXPECT_LT(r.final_loss, 0.22);
  EXPECT_GT(r.final_accuracy, 0.65);
  EXPECT_GT(r.completion_time, 0);
  EXPECT_FALSE(r.loss_trajectory.empty());
  // Loss trajectory timestamps are monotone.
  for (std::size_t i = 1; i < r.loss_trajectory.size(); ++i) {
    EXPECT_GT(r.loss_trajectory[i].first, r.loss_trajectory[i - 1].first);
  }
}

TEST(ParallelTrain, SynchronousMatchesSerialQuality) {
  const auto data = make_two_spirals(50, 0.02, 23);
  TrainConfig cfg;
  cfg.steps = 300;
  cfg.workers = 4;
  cfg.seed = 23;
  const auto serial = nscc::nn::train_sequential(data, cfg);
  cfg.mode = Mode::kSynchronous;
  nscc::rt::MachineConfig machine;
  machine.network = nscc::rt::Network::kSp2Switch;
  const auto sync = nscc::nn::train_parallel(data, cfg, machine);
  EXPECT_FALSE(sync.deadlocked);
  EXPECT_NEAR(sync.final_loss, serial.final_loss, 0.08);
  EXPECT_EQ(sync.mean_staleness, 0.0);
}

TEST(ParallelTrain, BoundedStalenessIsRespectedAndCheaperThanSync) {
  const auto data = make_two_spirals(50, 0.02, 29);
  TrainConfig cfg;
  cfg.steps = 300;
  cfg.workers = 4;
  cfg.seed = 29;
  nscc::rt::MachineConfig machine;
  machine.network = nscc::rt::Network::kSp2Switch;
  cfg.mode = Mode::kSynchronous;
  const auto sync = nscc::nn::train_parallel(data, cfg, machine);
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 2;
  const auto partial = nscc::nn::train_parallel(data, cfg, machine);
  EXPECT_FALSE(partial.deadlocked);
  EXPECT_LE(partial.mean_staleness, 2.0 + 1e-9);
  EXPECT_LT(partial.completion_time, sync.completion_time);
}

TEST(ParallelTrain, UncontrolledAsynchronyDegradesQuality) {
  const auto data = make_two_spirals(50, 0.02, 31);
  TrainConfig cfg;
  cfg.steps = 400;
  cfg.workers = 4;
  cfg.seed = 31;
  cfg.node_speed_spread = 0.3;  // A slow worker lets others run far ahead.
  nscc::rt::MachineConfig machine;
  machine.network = nscc::rt::Network::kSp2Switch;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 2;
  const auto partial = nscc::nn::train_parallel(data, cfg, machine);
  cfg.mode = Mode::kAsynchronous;
  const auto async_r = nscc::nn::train_parallel(data, cfg, machine);
  EXPECT_GT(async_r.mean_staleness, 10.0);   // Unbounded run-ahead...
  EXPECT_GT(async_r.final_loss, partial.final_loss);  // ...hurts the model.
}

TEST(ParallelTrain, DeterministicForSeed) {
  const auto data = make_two_spirals(30, 0.02, 37);
  TrainConfig cfg;
  cfg.steps = 100;
  cfg.workers = 3;
  cfg.seed = 37;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 3;
  const auto a = nscc::nn::train_parallel(data, cfg, {});
  const auto b = nscc::nn::train_parallel(data, cfg, {});
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

// The server unpacks gradients, and each worker the parameters, through
// unpack_vector into a reused buffer; a packed length other than the net's
// parameter count must throw, not read or write past a buffer.
TEST(TrainParallel, UnpackVectorRejectsALengthMismatch) {
  const std::vector<double> packed = {1.0, 2.0, 3.0};
  nscc::rt::Packet p;
  p.pack_i32(7).pack_double_vec(packed);
  EXPECT_EQ(p.unpack_i32(), 7);
  std::vector<double> out(8, -1.0);  // A reused buffer of another size.
  nscc::nn::unpack_vector(p, packed.size(), out);
  EXPECT_EQ(out, packed);
  EXPECT_THROW(nscc::nn::unpack_vector(p, packed.size() + 1, out),
               std::out_of_range);
  EXPECT_THROW(nscc::nn::unpack_vector(p, packed.size() - 1, out),
               std::out_of_range);
  // The cursor stays put, so a good read still follows a rejected one.
  nscc::nn::unpack_vector(p, packed.size(), out);
  EXPECT_EQ(out, packed);
}

TEST(TrainParallel, BackgroundLoadSlowsTraining) {
  const auto data = make_two_spirals(30, 0.02, 41);
  TrainConfig cfg;
  cfg.steps = 100;
  cfg.workers = 3;
  cfg.seed = 41;
  cfg.mode = Mode::kSynchronous;
  const auto unloaded = nscc::nn::train_parallel(data, cfg, {});
  cfg.loader_offered_bps = 5e6;  // 5 Mbps of the 10 Mbps Ethernet.
  const auto loaded = nscc::nn::train_parallel(data, cfg, {});
  EXPECT_FALSE(loaded.deadlocked);
  EXPECT_GT(loaded.completion_time, unloaded.completion_time);
  EXPECT_GT(loaded.bus_utilization, unloaded.bus_utilization);
}

// Pinned before the kernel rewrite, as GradientBitsMatchParent: the final
// loss and every evaluated loss of the serial baseline and of each
// parallel mode keep their exact bits.
TEST(ParallelTrain, NumericsMatchParent) {
  const auto data = make_two_spirals(30, 0.02, 43);
  TrainConfig cfg;
  cfg.steps = 60;
  cfg.workers = 3;
  cfg.seed = 43;
  cfg.eval_every = 8;
  auto trajectory_hash = [](const nscc::nn::TrainResult& r) {
    std::vector<double> losses;
    for (const auto& [t, loss] : r.loss_trajectory) losses.push_back(loss);
    return bits_hash(losses);
  };
  struct Pin {
    const char* name;
    bool parallel;
    Mode mode;
    int age;
    std::uint64_t final_loss;
    std::uint64_t trajectory;
    std::size_t evaluations;
  };
  const Pin pins[] = {
      {"sequential", false, Mode::kSynchronous, 0, 4597656714750515689ULL,
       1173667007955707204ULL, 22},
      {"sync", true, Mode::kSynchronous, 0, 4597649549020129932ULL,
       17035942719455304331ULL, 7},
      {"partial", true, Mode::kPartialAsync, 2, 4597651491774567353ULL,
       10934461158651745407ULL, 22},
      {"async", true, Mode::kAsynchronous, 0, 4599489091625553422ULL,
       15484205870095163257ULL, 22},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    cfg.mode = pin.mode;
    cfg.age = pin.age;
    const auto r = pin.parallel ? nscc::nn::train_parallel(data, cfg, {})
                                : nscc::nn::train_sequential(data, cfg);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(bits(r.final_loss), pin.final_loss);
    EXPECT_EQ(trajectory_hash(r), pin.trajectory);
    EXPECT_EQ(r.loss_trajectory.size(), pin.evaluations);
  }
}

}  // namespace
