// Extension experiment (paper Section 6 future work): neural-network
// training as a data-race tolerant application.  Bounded-staleness SGD over
// the shared space: workers pull parameters with Global_Read and push
// mini-batch gradients.  Run on the SP2 switch (the app's communication-to-
// computation ratio is exactly the "higher communication requirements" case
// Section 4.1 sends to the faster interconnect), with the Ethernet shown
// for contrast.  Compares time-to-quality (the time_to_quality_s stat of
// --json-out: first reach of 1.15x the serial final loss) and final quality
// per mode: the age sweep exposes a much sharper quality cliff than the
// GA's — SGD tolerates only small staleness.
#include <cmath>
#include <iostream>

#include "harness/cell.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nscc;
  harness::NnTrainWorkload nn;
  util::Flags flags;
  nn.register_params(flags);
  flags.add_int("seed", 7, "random seed");
  harness::Sweep sweep("ext_neural");
  harness::Sweep::add_flags(flags);
  if (!flags.set_default("steps", "600") || !flags.parse(argc, argv)) return 1;
  nn.configure(flags);
  sweep.configure(flags);

  harness::CellConfig cfg;
  cfg.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.variants.clear();
  for (const dsm::Iteration age : {1, 2, 4, 8, 16}) {
    cfg.variants.push_back(harness::make_variant("partial", age));
  }
  cfg.variants.push_back(harness::make_variant("async", 0));

  bool first = true;
  for (auto [net_label, network] :
       {std::pair{"SP2 switch", rt::Network::kSp2Switch},
        {"10Mb Ethernet", rt::Network::kEthernet}}) {
    cfg.machine.network = network;
    const harness::CellResult cell = harness::run_cell(nn, cfg);
    harness::record_cell(
        sweep, nn.name(), cfg, cell,
        {{"sp2", network == rt::Network::kSp2Switch ? 1.0 : 0.0},
         {"workers", static_cast<double>(nn.workers)},
         {"steps", static_cast<double>(nn.steps)}});
    const harness::CellVariant& serial = cell.variant("serial");
    const double serial_s = serial.field("completion_s");
    if (first) {
      std::cout << "serial baseline: loss "
                << util::format_double(serial.field("final_loss"), 4)
                << ", accuracy "
                << util::format_double(serial.field("final_accuracy"), 2)
                << ", " << util::format_double(serial_s, 2)
                << " s virtual\n\n";
      first = false;
    }
    util::Table table(std::string("Bounded-staleness SGD on the ") +
                      net_label);
    table.columns({"variant", "final loss", "accuracy", "time s",
                   "time-to-quality s", "speedup", "staleness", "net util"});
    for (const auto& v : cell.variants) {
      if (v.spec.name == "serial") continue;
      const double ttq = v.field("time_to_quality_s");
      table.row()
          .cell(v.spec.tag())
          .cell(v.field("final_loss"), 4)
          .cell(v.field("final_accuracy"), 2)
          .cell(v.field("completion_s"), 2)
          .cell(std::isnan(ttq) ? "never" : util::format_double(ttq, 2))
          .cell(ttq > 0 ? util::format_double(serial_s / ttq, 2) : "-")
          .cell(v.field("mean_staleness"), 1)
          .cell(v.field("bus_utilization"), 2);
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return sweep.write() ? 0 : 1;
}
