// Extension experiment: the asynchronous iterative solver (the application
// class the paper's Section 1 opens with).  Sweeps the Global_Read age and
// the background load for a distributed Jacobi solve, exposing the paper's
// central tradeoff in its cleanest setting: larger ages admit staler
// operands (more sweeps to contract) but wait less and coalesce more.
// Sweeps and convergence per row are the "sweeps" and "converged" stats of
// --json-out; a row's speedup is the serial record's completion_s over its
// own.
#include "harness/driver.hpp"

int main(int argc, char** argv) {
  using namespace nscc;
  harness::DriveOptions options;
  options.workload = "solver.jacobi";
  options.title = "Extension - parallel Jacobi, age x load sweep";
  options.flag_defaults = {{"variants", "sync,partial,async"},
                           {"age", "0,2,5,10,20,40"},
                           {"grid", "20"},
                           {"processors", "8"},
                           {"seed", "5"}};
  harness::Section loads;
  loads.scenario_column = "load Mbps";
  loads.scenarios = [](const util::Flags&, const std::vector<harness::Row>&) {
    return harness::load_scenarios({0.0, 4.0});
  };
  options.sections = {loads};
  return harness::drive(argc, argv, options);
}
