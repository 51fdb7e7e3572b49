#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nscc::nn {

namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

std::size_t width(int units) { return static_cast<std::size_t>(units); }

}  // namespace

Mlp::Mlp(std::vector<int> layers, std::uint64_t seed)
    : layers_(std::move(layers)) {
  if (layers_.size() < 2) {
    throw std::invalid_argument("Mlp needs at least input and output layers");
  }
  std::size_t total = 0;
  std::size_t units = 0;
  std::size_t widest = 0;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    Slice s;
    s.weights = total;
    total += width(layers_[l]) * width(layers_[l + 1]);
    s.biases = total;
    total += width(layers_[l + 1]);
    s.outputs = units;
    units += width(layers_[l + 1]);
    widest = std::max(widest, width(layers_[l]));
    slices_.push_back(s);
  }
  params_.resize(total);
  acts_.resize(units);
  deltas_.resize(units);
  slopes_.resize(widest);
  util::Xoshiro256 rng(seed);
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    // Xavier-style initialisation.
    const double scale = std::sqrt(2.0 / (layers_[l] + layers_[l + 1]));
    const Slice& s = slices_[l];
    for (std::size_t i = s.weights; i < s.biases; ++i) {
      params_[i] = rng.normal(0.0, scale);
    }
    for (int j = 0; j < layers_[l + 1]; ++j) {
      params_[s.biases + static_cast<std::size_t>(j)] = 0.0;
    }
  }
}

void Mlp::set_parameters(const std::vector<double>& p) {
  if (p.size() != params_.size()) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  params_ = p;
}

// Every accumulator below takes its additions in a fixed order and every
// product a fixed operand grouping (DESIGN.md §12.6); tests pin the exact
// bits, so a change may reorder only independent accumulators.
const double* Mlp::forward_pass(const std::vector<double>& input) const {
  const double* act = input.data();
  for (std::size_t l = 0; l < slices_.size(); ++l) {
    const Slice& s = slices_[l];
    const std::size_t in = width(layers_[l]);
    const std::size_t out = width(layers_[l + 1]);
    const double* w = params_.data() + s.weights;
    double* z = acts_.data() + s.outputs;
    // z[j] starts at its bias and adds W[i,j] * act[i] for i = 0..in-1.
    std::copy_n(params_.data() + s.biases, out, z);
    for (std::size_t i = 0; i < in; ++i) {
      const double a = act[i];
      const double* row = w + i * out;
      for (std::size_t j = 0; j < out; ++j) z[j] += row[j] * a;
    }
    if (l + 1 == slices_.size()) {
      for (std::size_t j = 0; j < out; ++j) z[j] = sigmoid(z[j]);
    } else {
      for (std::size_t j = 0; j < out; ++j) z[j] = std::tanh(z[j]);
    }
    act = z;
  }
  return act;
}

std::vector<double> Mlp::forward(const std::vector<double>& input) const {
  const double* out = forward_pass(input);
  return {out, out + layers_.back()};
}

double Mlp::loss(const std::vector<std::vector<double>>& inputs,
                 const std::vector<std::vector<double>>& targets) const {
  const std::size_t outs = width(layers_.back());
  double sum = 0.0;
  for (std::size_t n = 0; n < inputs.size(); ++n) {
    const double* out = forward_pass(inputs[n]);
    for (std::size_t j = 0; j < outs; ++j) {
      const double d = out[j] - targets[n][j];
      sum += d * d;
    }
  }
  return inputs.empty() ? 0.0 : sum / static_cast<double>(inputs.size());
}

double Mlp::accuracy(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets) const {
  if (inputs.empty()) return 0.0;
  const std::size_t outs = width(layers_.back());
  std::size_t correct = 0;
  for (std::size_t n = 0; n < inputs.size(); ++n) {
    const double* out = forward_pass(inputs[n]);
    bool all = true;
    for (std::size_t j = 0; j < outs; ++j) {
      all = all && ((out[j] >= 0.5) == (targets[n][j] >= 0.5));
    }
    correct += all ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

double Mlp::gradient(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets,
                     std::size_t begin, std::size_t count,
                     std::vector<double>& grad) const {
  grad.assign(params_.size(), 0.0);
  double batch_loss = 0.0;
  const std::size_t outs = width(layers_.back());
  for (std::size_t n = begin; n < begin + count && n < inputs.size(); ++n) {
    const double* y = forward_pass(inputs[n]);
    double* dy = deltas_.data() + slices_.back().outputs;
    for (std::size_t j = 0; j < outs; ++j) {
      const double err = y[j] - targets[n][j];
      batch_loss += err * err;
      // d/dz sigmoid = y(1-y); loss derivative 2*err.
      dy[j] = 2.0 * err * y[j] * (1.0 - y[j]);
    }

    for (std::size_t l = slices_.size(); l-- > 0;) {
      const Slice& s = slices_[l];
      const std::size_t in = width(layers_[l]);
      const std::size_t out = width(layers_[l + 1]);
      const double* d = deltas_.data() + s.outputs;
      const double* a =
          l == 0 ? inputs[n].data() : acts_.data() + slices_[l - 1].outputs;
      double* gb = grad.data() + s.biases;
      for (std::size_t j = 0; j < out; ++j) gb[j] += d[j];
      for (std::size_t i = 0; i < in; ++i) {
        const double ai = a[i];
        double* row = grad.data() + s.weights + i * out;
        for (std::size_t j = 0; j < out; ++j) row[j] += d[j] * ai;
      }
      if (l == 0) break;
      // deltas[i] starts at 0 and adds (d[j] * W[i,j]) * (1 - a_i^2) for
      // j = 0..out-1; j outer lets the `in` sums run side by side.
      const double* w = params_.data() + s.weights;
      double* prev = deltas_.data() + slices_[l - 1].outputs;
      for (std::size_t i = 0; i < in; ++i) {
        slopes_[i] = 1.0 - a[i] * a[i];  // d/dz tanh = 1 - y^2.
        prev[i] = 0.0;
      }
      for (std::size_t j = 0; j < out; ++j) {
        const double dj = d[j];
        for (std::size_t i = 0; i < in; ++i) {
          prev[i] += dj * w[i * out + j] * slopes_[i];
        }
      }
    }
  }
  const auto batch = static_cast<double>(std::min(count, inputs.size() - begin));
  if (batch > 0) {
    for (double& g : grad) g /= batch;
    batch_loss /= batch;
  }
  return batch_loss;
}

void Mlp::apply_gradient(const std::vector<double>& grad, double lr) {
  if (grad.size() != params_.size()) {
    throw std::invalid_argument("Mlp::apply_gradient: size mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i] -= lr * grad[i];
  }
}

Dataset make_two_spirals(int per_class, double noise, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Dataset data;
  for (int cls = 0; cls < 2; ++cls) {
    for (int i = 0; i < per_class; ++i) {
      const double t =
          1.0 + 3.5 * static_cast<double>(i) / static_cast<double>(per_class);
      const double angle =
          t * 1.8 + (cls == 0 ? 0.0 : std::numbers::pi);
      const double r = t / 5.0;
      data.inputs.push_back({r * std::cos(angle) + rng.normal(0.0, noise),
                             r * std::sin(angle) + rng.normal(0.0, noise)});
      data.targets.push_back({static_cast<double>(cls)});
    }
  }
  // Shuffle for well-mixed mini-batches.
  for (std::size_t i = data.size(); i > 1; --i) {
    const auto j = rng.below(i);
    std::swap(data.inputs[i - 1], data.inputs[j]);
    std::swap(data.targets[i - 1], data.targets[j]);
  }
  return data;
}

}  // namespace nscc::nn
