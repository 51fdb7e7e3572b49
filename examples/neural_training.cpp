// Example: bounded-staleness neural-network training (the paper's named
// future-work application).  Four workers and a parameter server train a
// small MLP on the two-spirals task over an SP2 switch; Global_Read bounds
// how stale the parameters any worker computes gradients against can be.
//
//   $ ./examples/neural_training [--age=2] [--steps=500] [--workers=4]
//                                [--variants=sync,async,partial]
#include "harness/driver.hpp"

int main(int argc, char** argv) {
  nscc::harness::DriveOptions options;
  options.workload = "nn.train";
  options.flag_defaults = {{"age", "2"}, {"network", "sp2"}, {"seed", "7"}};
  options.epilogue =
      "Stale-gradient SGD tolerates *bounded* staleness; the uncontrolled\n"
      "run's parameters drift hundreds of rounds stale on a skewed cluster\n"
      "and the model pays for it.";
  return nscc::harness::drive(argc, argv, options);
}
