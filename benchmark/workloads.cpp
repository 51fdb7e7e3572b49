#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bayes/partitioner.hpp"
#include "ga/chromosome.hpp"
#include "ga/deme.hpp"
#include "ga/functions.hpp"
#include "harness/workloads.hpp"
#include "nn/mlp.hpp"
#include "probes.hpp"
#include "solver/linear_system.hpp"
#include "util/flags.hpp"

namespace nscc::benchmark {

std::string Bench::quality_failure(const harness::Workload&,
                                   const harness::RunStats& stats,
                                   bool smoke) const {
  const double loss = quality_loss(stats);
  const double limit = smoke ? config_.smoke_max_loss : config_.max_loss;
  if (loss <= limit) return {};
  char why[128];
  std::snprintf(why, sizeof why, "quality_loss %.6g exceeds %.6g", loss,
                limit);
  return why;
}

namespace {

/// Named value of a RunStats extra field (0 when absent).
double extra(const harness::RunStats& stats, const std::string& name) {
  for (const auto& [key, value] : stats.extra) {
    if (key == name) return value;
  }
  return 0.0;
}

/// Times `samples` calls of `call`, `batch` calls per span (for kernels
/// too short to time one by one); returns host ns per call.
template <typename Call>
std::vector<double> time_calls(int samples, int batch, SpanLog& log,
                               int parent, int run_id, Call call) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const int span = log.begin("app.kernel", parent, run_id);
    for (int b = 0; b < batch; ++b) call();
    ns.push_back(static_cast<double>(log.end(span)) / batch);
  }
  return ns;
}

// ---- bayes-sync -------------------------------------------------------------

/// P(coma | metastatic cancer) on the paper's Figure 1 network, by exact
/// enumeration: sum over serum calcium and brain tumour of their CPT rows.
constexpr double kExactComaPosterior = 0.722;

class BayesSync final : public Bench {
 public:
  BayesSync()
      : Bench({.name = "bayes-sync",
               .registry = "bayes.sampling",
               .variant = "sync",
               .network = rt::Network::kEthernet,
               .policy = {},
               .kernel = "Figure 1 logic sampling pass",
               .params = {{"parts", "2"}, {"iterations", "20000"}},
               .smoke_params = {{"parts", "2"}, {"iterations", "4000"}},
               .max_loss = 0.04,
               .smoke_max_loss = 0.08}) {}

  double quality_loss(const harness::RunStats& s) const override {
    return std::fabs(s.quality - kExactComaPosterior);
  }

  // One iteration's interface block: range start and count (12 bytes), one
  // byte per boundary node of the sender's part, and the evidence marker.
  std::uint32_t update_bytes(const harness::Workload& w,
                             const harness::RunConfig& run) const override {
    const auto& bw = dynamic_cast<const harness::BayesSamplingWorkload&>(w);
    const auto cfg = bw.build(run);
    const auto net = harness::BayesSamplingWorkload::figure1();
    bayes::PartitionConfig pc = cfg.partition;
    pc.parts = cfg.parts;
    const bayes::Partition part = bayes::partition_network(net, pc);
    std::vector<bool> exported(static_cast<std::size_t>(net.size()), false);
    for (bayes::NodeId child = 0; child < net.size(); ++child) {
      for (bayes::NodeId p : net.node(child).parents) {
        if (part.part_of(p) != part.part_of(child)) {
          exported[static_cast<std::size_t>(p)] = true;
        }
      }
    }
    const auto boundary =
        static_cast<int>(std::count(exported.begin(), exported.end(), true));
    const auto per_part = static_cast<std::uint32_t>(
        std::ceil(static_cast<double>(boundary) / cfg.parts));
    return kDsmHeaderBytes + 12 + per_part + 1;
  }

  // Every iteration samples each node once across the parts; rollbacks
  // resample more (none under sync).
  double kernel_calls(const harness::Workload& w,
                      const harness::RunStats& s) const override {
    const auto& bw = dynamic_cast<const harness::BayesSamplingWorkload&>(w);
    const int nodes = harness::BayesSamplingWorkload::figure1().size();
    return static_cast<double>(bw.iterations) +
           extra(s, "nodes_resampled") / nodes;
  }

  std::vector<double> time_kernel(const harness::Workload&,
                                  const harness::RunConfig& run, int samples,
                                  SpanLog& log, int parent,
                                  int run_id) const override {
    const auto net = harness::BayesSamplingWorkload::figure1();
    const auto order = net.topological_order();
    std::vector<int> assignment(static_cast<std::size_t>(net.size()), 0);
    util::Xoshiro256 rng(run.seed);
    // One pass is about a hundred nanoseconds: 64 passes per span.
    return time_calls(samples, 64, log, parent, run_id, [&] {
      for (bayes::NodeId v : order) {
        assignment[static_cast<std::size_t>(v)] =
            net.sample_node(v, assignment, rng);
      }
    });
  }

  int nodes(const harness::Workload& w) const override {
    return dynamic_cast<const harness::BayesSamplingWorkload&>(w).parts;
  }
};

// ---- ga-partial -------------------------------------------------------------

class GaPartial final : public Bench {
 public:
  GaPartial()
      : Bench({.name = "ga-partial",
               .registry = "ga.island",
               .variant = "partial",
               .age = 10,
               .network = rt::Network::kEthernet,
               .policy = {.full = true, .sync_reliable_updates = true},
               .kernel = "ga::Deme::step",
               .params = {{"demes", "8"},
                          {"function", "6"},
                          {"generations", "400"}},
               .smoke_params = {{"demes", "4"},
                                {"function", "6"},
                                {"generations", "60"}},
               .max_loss = 60.0,
               .smoke_max_loss = 100.0}) {}

  // Rastrigin's global minimum is 0, so the best fitness is the loss.
  double quality_loss(const harness::RunStats& s) const override {
    return s.quality;
  }

  // Migrant buffer: count (4 bytes) plus packed genome and fitness per
  // migrant.
  std::uint32_t update_bytes(const harness::Workload& w,
                             const harness::RunConfig& run) const override {
    const auto cfg =
        dynamic_cast<const harness::GaIslandWorkload&>(w).build(run);
    return kDsmHeaderBytes + 4 +
           static_cast<std::uint32_t>(cfg.migrants) *
               ga::migrant_bytes(ga::test_function(cfg.function_id));
  }

  double kernel_calls(const harness::Workload& w,
                      const harness::RunStats&) const override {
    const auto& gw = dynamic_cast<const harness::GaIslandWorkload&>(w);
    return static_cast<double>(gw.demes) * gw.generations;
  }

  // One deme's whole life: its fitness cache warms as the run's do, so the
  // step-time distribution matches a deme in the workload.
  std::vector<double> time_kernel(const harness::Workload& w,
                                  const harness::RunConfig& run, int,
                                  SpanLog& log, int parent,
                                  int run_id) const override {
    const auto cfg =
        dynamic_cast<const harness::GaIslandWorkload&>(w).build(run);
    ga::FitnessCache cache;
    ga::GaParams params = cfg.params;
    params.pop_size = cfg.deme_size;
    ga::Deme deme(ga::test_function(cfg.function_id), params,
                  util::Xoshiro256(run.seed).split(0xdee),
                  cfg.use_fitness_cache ? &cache : nullptr);
    (void)deme.initialize();
    return time_calls(cfg.generations, 1, log, parent, run_id,
                      [&] { (void)deme.step(); });
  }

  std::optional<double> cache_hit_ratio(
      const harness::RunStats& s) const override {
    const double hits = extra(s, "cache_hits");
    const double lookups = hits + extra(s, "evaluations");
    return lookups > 0.0 ? hits / lookups : 0.0;
  }

  int nodes(const harness::Workload& w) const override {
    return dynamic_cast<const harness::GaIslandWorkload&>(w).demes;
  }
};

// ---- jacobi-lossy-sp2 -------------------------------------------------------

class JacobiLossySp2 final : public Bench {
 public:
  JacobiLossySp2()
      : Bench({.name = "jacobi-lossy-sp2",
               .registry = "solver.jacobi",
               .variant = "sync",
               .network = rt::Network::kSp2Switch,
               .loss_rate = 0.02,
               .read_timeout_ms = 50.0,
               .policy = {.coalesce = true},
               .kernel = "solver::CsrMatrix::multiply",
               .params = {{"grid", "160"},
                          {"processors", "16"},
                          {"tolerance", "1e-9"}},
               .smoke_params = {{"grid", "24"},
                                {"processors", "4"},
                                {"tolerance", "1e-9"}}}) {}

  double quality_loss(const harness::RunStats& s) const override {
    return s.quality;
  }

  // Converged, with the residual within the solver's own tolerance.
  std::string quality_failure(const harness::Workload& w,
                              const harness::RunStats& s,
                              bool) const override {
    const double tolerance =
        dynamic_cast<const harness::JacobiWorkload&>(w).tolerance;
    if (extra(s, "converged") != 1.0) return "solver did not converge";
    if (!(s.quality <= tolerance)) {
      char why[96];
      std::snprintf(why, sizeof why, "residual %.3g exceeds tolerance %.3g",
                    s.quality, tolerance);
      return why;
    }
    return {};
  }

  // A row block: length prefix plus one double per owned row.
  std::uint32_t update_bytes(const harness::Workload& w,
                             const harness::RunConfig&) const override {
    const auto& jw = dynamic_cast<const harness::JacobiWorkload&>(w);
    const int rows = (jw.grid * jw.grid + jw.processors - 1) / jw.processors;
    return kDsmHeaderBytes + 8 + 8 * static_cast<std::uint32_t>(rows);
  }

  // Each sweep updates every row once across the blocks: one multiply.
  double kernel_calls(const harness::Workload&,
                      const harness::RunStats& s) const override {
    return extra(s, "sweeps");
  }

  std::vector<double> time_kernel(const harness::Workload& w,
                                  const harness::RunConfig& run, int samples,
                                  SpanLog& log, int parent,
                                  int run_id) const override {
    const auto& jw = dynamic_cast<const harness::JacobiWorkload&>(w);
    const auto sys = solver::make_poisson_2d(jw.grid, run.seed);
    std::vector<double> x = sys.b;
    std::vector<double> y(x.size(), 0.0);
    return time_calls(samples, 1, log, parent, run_id,
                      [&] { sys.a.multiply(x, y); });
  }

  int nodes(const harness::Workload& w) const override {
    return dynamic_cast<const harness::JacobiWorkload&>(w).processors;
  }
};

// ---- nn-partial -------------------------------------------------------------

/// The two-spirals set harness::NnTrainWorkload trains on.
nn::Dataset spirals(std::uint64_t seed) {
  return nn::make_two_spirals(60, 0.02, seed);
}

class NnPartial final : public Bench {
 public:
  NnPartial()
      : Bench({.name = "nn-partial",
               .registry = "nn.train",
               .variant = "partial",
               .age = 2,
               .network = rt::Network::kEthernet,
               .policy = {},
               .kernel = "nn::Mlp::gradient",
               .params = {{"workers", "4"}, {"steps", "2500"}},
               .smoke_params = {{"workers", "4"}, {"steps", "400"}},
               .max_loss = 0.25,
               .smoke_max_loss = 0.30}) {}

  double quality_loss(const harness::RunStats& s) const override {
    return s.quality;
  }

  // The parameter vector: length prefix plus one double per parameter.
  std::uint32_t update_bytes(const harness::Workload& w,
                             const harness::RunConfig& run) const override {
    const auto cfg =
        dynamic_cast<const harness::NnTrainWorkload&>(w).build(run);
    const nn::Mlp net(cfg.layers, run.seed);
    return kDsmHeaderBytes + 8 +
           8 * static_cast<std::uint32_t>(net.parameter_count());
  }

  double kernel_calls(const harness::Workload& w,
                      const harness::RunStats&) const override {
    const auto& nw = dynamic_cast<const harness::NnTrainWorkload&>(w);
    return static_cast<double>(nw.workers) * nw.steps;
  }

  // One worker's mini-batch stride through the training set.
  std::vector<double> time_kernel(const harness::Workload& w,
                                  const harness::RunConfig& run, int samples,
                                  SpanLog& log, int parent,
                                  int run_id) const override {
    const auto cfg =
        dynamic_cast<const harness::NnTrainWorkload&>(w).build(run);
    const auto data = spirals(run.seed);
    const nn::Mlp net(cfg.layers, run.seed);
    const auto batch = static_cast<std::size_t>(cfg.batch_size);
    const std::size_t stride = batch * static_cast<std::size_t>(cfg.workers);
    std::size_t cursor = 0;
    std::vector<double> grad;
    return time_calls(samples, 1, log, parent, run_id, [&] {
      (void)net.gradient(data.inputs, data.targets, cursor, batch, grad);
      cursor = (cursor + stride) % data.size();
    });
  }

  int nodes(const harness::Workload& w) const override {
    return dynamic_cast<const harness::NnTrainWorkload&>(w).workers + 1;
  }
};

}  // namespace

const std::vector<std::unique_ptr<Bench>>& benches() {
  static const std::vector<std::unique_ptr<Bench>> all = [] {
    std::vector<std::unique_ptr<Bench>> v;
    v.push_back(std::make_unique<BayesSync>());
    v.push_back(std::make_unique<GaPartial>());
    v.push_back(std::make_unique<JacobiLossySp2>());
    v.push_back(std::make_unique<NnPartial>());
    return v;
  }();
  return all;
}

const Bench* find_bench(const std::string& name) {
  for (const auto& b : benches()) {
    if (b->config().name == name) return b.get();
  }
  return nullptr;
}

harness::Workload* configure(const Bench& bench, bool smoke) {
  const Bench::Config& c = bench.config();
  harness::Workload* workload = harness::Registry::global().find(c.registry);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown harness workload '%s'\n", c.registry.c_str());
    return nullptr;
  }
  util::Flags flags;
  workload->register_params(flags);
  for (const auto& [name, value] : smoke ? c.smoke_params : c.params) {
    if (!flags.set_default(name, value)) {
      std::fprintf(stderr, "%s: bad workload flag --%s=%s\n", c.name.c_str(),
                   name.c_str(), value.c_str());
      return nullptr;
    }
  }
  workload->configure(flags);
  return workload;
}

harness::RunConfig make_run(const Bench& bench, std::uint64_t seed) {
  const Bench::Config& c = bench.config();
  const harness::VariantSpec v = harness::make_variant(c.variant, c.age);
  harness::RunConfig run;
  run.seed = seed;
  run.mode = v.mode;
  run.age = v.age;
  run.propagation.read_timeout = static_cast<sim::Time>(
      c.read_timeout_ms * static_cast<double>(sim::kMillisecond));
  run.propagation.coalesce = v.mode == dsm::Mode::kPartialAsync;
  return run;
}

rt::MachineConfig make_machine(const Bench& bench,
                               const harness::RunConfig& run) {
  rt::MachineConfig machine;
  machine.network = bench.config().network;
  if (bench.config().loss_rate > 0.0) {
    machine.fault.link.loss_prob = bench.config().loss_rate;
    // The fault stream is seeded from --seed too: it is workload input.
    machine.fault.seed = run.seed ^ 0xFA17ULL;
  }
  machine.transport.enabled = !machine.fault.empty() || run.recovery.enabled();
  return machine;
}

}  // namespace nscc::benchmark
