// Example: non-strict coherence under network load.
//
// Reproduces the paper's loaded-network scenario in miniature: an island GA
// on four simulated nodes shares the 10 Mbps Ethernet with a background
// load generator.  As the offered load rises, watch the synchronous
// variant's completion time climb while the Global_Read variant holds.
//
//   $ ./examples/loaded_network [--generations=120] [--variants=sync,partial]
#include "harness/driver.hpp"

int main(int argc, char** argv) {
  using namespace nscc;
  harness::DriveOptions options;
  options.workload = "ga.island";
  options.title = "Island GA (f1) vs background Ethernet load";
  options.flag_defaults = {{"age", "20"},
                           {"function", "1"},
                           {"demes", "4"},
                           {"generations", "120"},
                           {"seed", "3"}};
  harness::Section loads;
  loads.scenario_column = "load Mbps";
  loads.scenarios = [](const util::Flags&, const std::vector<harness::Row>&) {
    return harness::load_scenarios({0.0, 2.0, 4.0, 6.0});
  };
  options.sections = {loads};
  options.epilogue =
      "The receiver-driven flow control of Global_Read prevents the\n"
      "initial onset of congestion instead of reacting to it (the paper's\n"
      "closing argument against Warp-style control).";
  return harness::drive(argc, argv, options);
}
