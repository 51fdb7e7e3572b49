#include "harness/workload.hpp"

#include "harness/workloads.hpp"
#include "util/flags.hpp"

namespace nscc::harness {

void Workload::register_params(util::Flags& flags) const {
  for (const Param& p : params_) {
    if (const auto* above = std::get_if<Above>(&p.range)) {
      flags.add_double(p.name, p.def, p.help).above(p.name, above->lo);
    } else {
      const auto& ints = std::get<IntRange>(p.range);
      flags.add_int(p.name, static_cast<std::int64_t>(p.def), p.help)
          .range(p.name, ints.lo, ints.hi);
    }
  }
}

void Workload::configure(const util::Flags& flags) {
  for (const Param& p : params_) {
    std::visit(
        [&](auto member) {
          auto& value = this->*member;
          using T = std::remove_reference_t<decltype(value)>;
          if constexpr (std::is_floating_point_v<T>) {
            value = flags.get_double(p.name);
          } else {
            value = static_cast<T>(flags.get_int(p.name));
          }
        },
        p.member);
  }
}

std::vector<std::pair<std::string, double>> Workload::param_values() const {
  std::vector<std::pair<std::string, double>> values;
  values.reserve(params_.size());
  for (const Param& p : params_) {
    values.emplace_back(
        p.name,
        std::visit(
            [this](auto member) { return static_cast<double>(this->*member); },
            p.member));
  }
  return values;
}

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
