// Tests for the neural-network application: MLP mechanics (forward,
// analytic gradient vs finite differences), the two-spirals dataset, the
// sequential trainer, and the parallel bounded-staleness trainer in all
// three modes.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/mlp.hpp"
#include "nn/train.hpp"

namespace {

using nscc::dsm::Mode;
using nscc::nn::Dataset;
using nscc::nn::make_two_spirals;
using nscc::nn::Mlp;
using nscc::nn::TrainConfig;

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

}  // namespace
