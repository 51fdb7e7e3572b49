// Example: non-strict coherence on a lossy network.
//
// The loaded-network example stresses the medium with traffic; this one
// corrupts it.  An island GA runs over a shared Ethernet whose frames are
// dropped at random with a seeded, reproducible fault plan.  The reliable
// transport retransmits the control traffic the program cannot lose
// (barriers, Global_Read demands), while DSM updates stay best-effort and
// lean on the Global_Read starvation watchdog: a reader whose update was
// lost escalates to an explicit demand instead of waiting forever.
//
// Watch the synchronous variant's completion time climb with the loss rate
// (every lost barrier or update stalls the whole lockstep machine until a
// retransmission lands) while the Global_Read variant stays nearly flat —
// bounded staleness means a lost update usually doesn't matter, and the
// watchdog recovers the rare read that would otherwise starve.
//
//   $ ./examples/lossy_network [--loss-rate=0.02] [--fault-seed=99]
//
// With --loss-rate > 0 the sweep is {0, that rate}; otherwise a default
// ladder of loss rates is swept.  --read-timeout-ms overrides the
// starvation watchdog budget (default here: 50 ms).
#include "fault/fault.hpp"
#include "harness/driver.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nscc;
  harness::DriveOptions options;
  options.workload = "ga.island";
  options.title = "Island GA (f1) vs frame loss";
  options.flag_defaults = {{"variants", "sync,partial"},
                           {"function", "1"},
                           {"demes", "4"},
                           {"generations", "120"},
                           {"seed", "3"},
                           {"read-timeout-ms", "50"}};
  harness::Section ladder;
  ladder.scenario_column = "loss";
  ladder.scenarios = [](const util::Flags& flags,
                        const std::vector<harness::Row>&) {
    std::vector<double> losses = {0.0, 0.001, 0.01, 0.05};
    if (flags.get_double("loss-rate") > 0.0) {
      losses = {0.0, flags.get_double("loss-rate")};
    }
    return harness::loss_scenarios(losses);
  };
  options.sections = {ladder};
  options.epilogue =
      "Lost frames cost the synchronous variant a retransmission\n"
      "round-trip on the critical path; the Global_Read variant absorbs\n"
      "most losses inside its staleness budget and the watchdog demands\n"
      "the few copies a reader truly needs.";
  return harness::drive(argc, argv, options);
}
