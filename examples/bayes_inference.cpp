// Example: parallel probabilistic inference with rollback.
//
// Builds the paper's Figure 1 belief network (the medical-diagnosis
// example), runs sequential logic sampling for reference, then distributes
// the network over two simulated nodes and runs the speculative
// (default-value + rollback) sampler under a Global_Read staleness bound.
// All modes converge to the same posteriors; the table shows what each one
// pays to get there.  A row that did not converge, or converged elsewhere,
// is named after the table instead.
//
//   $ ./examples/bayes_inference [--age=10] [--iterations=6000]
//                                [--variants=sync,async,partial]
#include <string>
#include <vector>

#include "harness/driver.hpp"

namespace {

using nscc::harness::Row;

/// A row's posterior estimates: the first query's (the quality column)
/// and every other query's extra, named "P(...)".
std::vector<double> estimates(const Row& row) {
  std::vector<double> out = {row.stats.quality};
  for (const auto& [name, value] : row.stats.extra) {
    if (name.starts_with("P(")) out.push_back(value);
  }
  return out;
}

/// Empty when every row converged to one set of estimates; otherwise the
/// sentence that names the rows that did not.
std::string convergence_failures(const std::vector<Row>& rows) {
  const Row* agreed = nullptr;
  std::string failures;
  for (const Row& row : rows) {
    std::string why;
    if (row.stats.extra_value("converged") == 0.0) {
      why = "did not converge";
    } else if (agreed == nullptr) {
      agreed = &row;
    } else if (estimates(row) != estimates(*agreed)) {
      why = "converged to a different estimate than '" + agreed->label() + "'";
    }
    if (!why.empty()) {
      failures += "\n  '" + row.label() + "' " + why;
    }
  }
  return failures.empty()
             ? ""
             : "Not every parallel variant converged to the same validated "
               "posteriors:" + failures;
}

}  // namespace

int main(int argc, char** argv) {
  nscc::harness::DriveOptions options;
  options.workload = "bayes.sampling";
  options.flag_defaults = {{"seed", "11"}};
  options.epilogue =
      "All parallel variants converge to identical validated posteriors\n"
      "(counter-based randomness); they differ only in time, messages, and\n"
      "rollback work.";
  options.epilogue_check = convergence_failures;
  return nscc::harness::drive(argc, argv, options);
}
