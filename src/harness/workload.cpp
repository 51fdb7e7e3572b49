#include "harness/workload.hpp"

#include "harness/workloads.hpp"

namespace nscc::harness {

RunStats Workload::run_matched(const RunConfig& run,
                               const rt::MachineConfig& machine,
                               const RunStats&, const RunStats*) {
  return this->run(run, machine);
}

sanitize::ToleranceSpec Workload::tolerance_spec(const RunConfig&) const {
  return {};
}

bool Registry::add(std::unique_ptr<Workload> workload) {
  if (workload == nullptr) return false;
  if (find(workload->name()) != nullptr) return false;
  workloads_.push_back(std::move(workload));
  return true;
}

Workload* Registry::find(const std::string& name) const noexcept {
  for (const auto& w : workloads_) {
    if (w->name() == name) return w.get();
  }
  return nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(workloads_.size());
  for (const auto& w : workloads_) out.push_back(w->name());
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  static const bool registered = [] {
    register_builtin_workloads(registry);
    return true;
  }();
  (void)registered;
  return registry;
}

void register_builtin_workloads(Registry& registry) {
  registry.add(std::make_unique<GaIslandWorkload>());
  registry.add(std::make_unique<BayesSamplingWorkload>());
  registry.add(std::make_unique<JacobiWorkload>());
  registry.add(std::make_unique<NnTrainWorkload>());
}

}  // namespace nscc::harness
