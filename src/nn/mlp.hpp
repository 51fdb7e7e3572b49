// Small dense neural networks for the asynchronous-training application.
//
// The paper's Section 6 names "other emerging applications such as
// neural-network based approaches" as future work for non-strict coherence.
// Data-parallel gradient descent is the canonical data-race tolerant
// training scheme: workers can apply gradients computed against *stale*
// parameters and still converge, with the convergence rate degrading in the
// staleness — precisely the tradeoff Global_Read makes programmable.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace nscc::nn {

/// Fully connected network with tanh hidden activations and a sigmoid
/// output, trained with squared loss.  Parameters are stored flat so they
/// can travel through the DSM as one vector.
///
/// forward, loss, accuracy and gradient run one shared forward pass into
/// scratch the net owns, sized by the constructor, so none of them
/// allocates beyond its return value.  The scratch is mutable: the const
/// kernels write it, so a const Mlp must not be shared across threads.
class Mlp {
 public:
  /// layers = {inputs, hidden..., outputs}.
  Mlp(std::vector<int> layers, std::uint64_t seed);

  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return params_.size();
  }
  [[nodiscard]] const std::vector<double>& parameters() const noexcept {
    return params_;
  }
  /// Throws std::invalid_argument unless p has parameter_count() entries.
  void set_parameters(const std::vector<double>& p);

  /// Forward pass for a single example.
  [[nodiscard]] std::vector<double> forward(
      const std::vector<double>& input) const;

  /// Mean squared loss over a set of examples.
  [[nodiscard]] double loss(const std::vector<std::vector<double>>& inputs,
                            const std::vector<std::vector<double>>& targets)
      const;

  /// Classification accuracy (output thresholded at 0.5 per dimension).
  [[nodiscard]] double accuracy(const std::vector<std::vector<double>>& inputs,
                                const std::vector<std::vector<double>>& targets)
      const;

  /// Accumulate the squared-loss gradient over a mini-batch into `grad`
  /// (resized and zeroed first).  Returns the batch loss.
  double gradient(const std::vector<std::vector<double>>& inputs,
                  const std::vector<std::vector<double>>& targets,
                  std::size_t begin, std::size_t count,
                  std::vector<double>& grad) const;

  /// params -= lr * grad.  Throws std::invalid_argument unless grad has
  /// parameter_count() entries.
  void apply_gradient(const std::vector<double>& grad, double lr);

  [[nodiscard]] const std::vector<int>& layers() const noexcept {
    return layers_;
  }

 private:
  struct Slice {
    std::size_t weights = 0;  ///< Offset of the weight matrix, row i = input i.
    std::size_t biases = 0;   ///< Offset of the bias vector.
    std::size_t outputs = 0;  ///< Offset of its outputs in acts_ and deltas_.
  };

  /// Run `input` through the net into acts_; returns the output layer's
  /// activations (inside acts_).
  const double* forward_pass(const std::vector<double>& input) const;

  std::vector<int> layers_;
  std::vector<Slice> slices_;  ///< Per connection (layers-1 of them).
  std::vector<double> params_;
  // Per-call scratch: the activations and deltas of layers 1..L-1, laid
  // out alike, and the tanh slopes of the widest layer.
  mutable std::vector<double> acts_;
  mutable std::vector<double> deltas_;
  mutable std::vector<double> slopes_;
};

/// Synthetic binary-classification task: two interleaved spirals, the
/// classic small-net benchmark with a genuinely non-linear boundary.
struct Dataset {
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> targets;

  [[nodiscard]] std::size_t size() const noexcept { return inputs.size(); }
};

Dataset make_two_spirals(int per_class, double noise, std::uint64_t seed);

}  // namespace nscc::nn
