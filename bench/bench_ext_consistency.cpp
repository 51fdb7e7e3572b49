// Extension: the consistency-model matrix (model x age x network).
//
// The paper picks one point in the consistency design space — per-read
// bounded staleness (non-strict coherence) — and shows it beats lockstep
// synchronisation on emerging applications.  With the model layer pluggable
// (dsm::ConsistencyModel), that design point becomes one row of a matrix:
// this bench runs the distributed Jacobi solver (the application class the
// paper's Section 1 opens with, and the workload whose operand freshness
// the models most visibly reshape) under every registered model, across
// sync and two staleness budgets, on both interconnects, and reports what
// each model's semantics cost at the read gate and in solution quality.
//
// The expected shape:
//
//   * nonstrict is the reference: bounded-staleness variants beat sync on
//     the shared medium (the paper's central claim) at a small residual
//     cost per extra sweep.
//   * regional admits a read only when EVERY operand block the task reads
//     satisfies the bound, so its blocking is at least nonstrict's; the
//     sync column (age 0 degenerates to the per-read rule) is identical.
//   * release-acquire matches nonstrict's admission but defers visibility
//     to acquire points; a blocked Global_Read is itself an acquire, so
//     completion stays close while the message/residual trajectory shifts
//     slightly (values publish in acquire-batches, not on arrival).
//   * eventual never blocks past first validity: gr blocks collapse to ~0
//     and the solver free-runs on stale operands — more sweeps, later
//     convergence, the failure mode the paper's bounded modes avoid.
//
// Each cell lands in the nscc-bench-v5 JSON (--json-out) tagged with its
// model, with the model-layer counters (updates_parked, updates_flushed,
// ooo_updates) and the solver's sweeps and convergence among its stats.
#include "harness/driver.hpp"

int main(int argc, char** argv) {
  using namespace nscc;
  harness::DriveOptions options;
  options.workload = "solver.jacobi";
  options.title =
      "Extension - consistency-model matrix (Jacobi, model x age x network)";
  options.flag_defaults = {
      {"variants", "sync,partial"},
      {"age", "5,20"},
      {"network", "ethernet,sp2"},
      {"consistency", "nonstrict,regional,release-acquire,eventual"},
      {"processors", "8"},
      {"seed", "5"}};
  return harness::drive(argc, argv, options);
}
