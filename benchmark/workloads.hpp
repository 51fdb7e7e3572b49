// The benchmark's four workloads.  Each names one registered harness
// workload plus the consistency variant, network, fault plan and problem
// size it runs at, and knows the few workload-specific facts the
// benchmark needs: its figure of merit and pass threshold, the size of one
// DSM update, and its application kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/policy.hpp"
#include "harness/run_config.hpp"
#include "harness/workload.hpp"
#include "rt/vm.hpp"
#include "spans.hpp"

namespace nscc::benchmark {

using Params = std::vector<std::pair<std::string, std::string>>;

class Bench {
 public:
  struct Config {
    std::string name;      ///< Benchmark workload name, e.g. "bayes-sync".
    std::string registry;  ///< harness::Registry name, e.g. "bayes.sampling".
    std::string variant;   ///< "sync" or "partial" (harness::make_variant).
    int age = 0;           ///< Staleness bound of the partial variant.
    rt::Network network = rt::Network::kEthernet;
    double loss_rate = 0.0;        ///< Per-frame loss on every link.
    double read_timeout_ms = 0.0;  ///< Global_Read watchdog (0 = off).
    /// How the application's tasks derive their DSM policy (mirrors the
    /// application's own harness::make_policy call).
    harness::PolicyOptions policy;
    std::string kernel;  ///< Application kernel the app probe times.
    Params params;        ///< Workload flags at full size.
    Params smoke_params;  ///< Workload flags under --smoke.
    /// Pass thresholds on quality_loss at full and smoke size.
    double max_loss = 0.0;
    double smoke_max_loss = 0.0;
  };

  explicit Bench(Config config) : config_(std::move(config)) {}
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The workload's figure of merit, oriented so lower is better.
  [[nodiscard]] virtual double quality_loss(
      const harness::RunStats& stats) const = 0;
  /// Empty when the run meets its quality threshold, else the reason.
  [[nodiscard]] virtual std::string quality_failure(
      const harness::Workload& workload, const harness::RunStats& stats,
      bool smoke) const;
  /// Bytes of one DSM update frame, derived from the problem instance.
  [[nodiscard]] virtual std::uint32_t update_bytes(
      const harness::Workload& workload,
      const harness::RunConfig& run) const = 0;
  /// How many kernel calls one run of the workload makes.
  [[nodiscard]] virtual double kernel_calls(
      const harness::Workload& workload,
      const harness::RunStats& stats) const = 0;
  /// Host ns of `samples` kernel calls on the problem instance, one span
  /// each under `parent`.
  [[nodiscard]] virtual std::vector<double> time_kernel(
      const harness::Workload& workload, const harness::RunConfig& run,
      int samples, SpanLog& log, int parent, int run_id) const = 0;
  /// Fitness-cache hits over lookups; only the GA has a cache.
  [[nodiscard]] virtual std::optional<double> cache_hit_ratio(
      const harness::RunStats&) const {
    return std::nullopt;
  }
  /// Simulated nodes of one run.
  [[nodiscard]] virtual int nodes(const harness::Workload& workload) const = 0;

 private:
  Config config_;
};

/// The four workloads, in benchmark order.
[[nodiscard]] const std::vector<std::unique_ptr<Bench>>& benches();
[[nodiscard]] const Bench* find_bench(const std::string& name);

/// Look up the registered workload and configure it at full or smoke
/// size.  Returns nullptr (after printing why) on an unknown workload or
/// flag.
harness::Workload* configure(const Bench& bench, bool smoke);

/// The run and machine the harness driver would build for this workload
/// (harness/driver.cpp), with every random stream seeded from `seed`.
[[nodiscard]] harness::RunConfig make_run(const Bench& bench,
                                          std::uint64_t seed);
[[nodiscard]] rt::MachineConfig make_machine(const Bench& bench,
                                             const harness::RunConfig& run);

}  // namespace nscc::benchmark
