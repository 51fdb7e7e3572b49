#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "harness/sweep.hpp"
#include "obs/profiler.hpp"
#include "probes.hpp"
#include "sanitize/sanitize.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace nscc::benchmark {
namespace {

/// Set-ups per process; setup_s is the fastest.  The first counts from
/// process start, so flag parsing and registry construction are set-up
/// work too.
constexpr std::int64_t kSetups = 9;

struct Measured {
  harness::RunStats stats;
  double wall_s = 0.0;
  double allocs = 0.0;
};

/// Last sampler row of the traced run.
struct SeriesTail {
  double events = 0.0;
  double staleness_mean = 0.0;
  double warp_mean = 0.0;
  double utilization = 0.0;
};

std::optional<SeriesTail> read_series_tail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = util::json::parse(text.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  const util::json::Value* columns = doc->find("columns");
  const util::json::Value* rows = doc->find("rows");
  if (columns == nullptr || rows == nullptr || rows->array.empty()) {
    return std::nullopt;
  }
  const auto& last = rows->array.back().array;
  SeriesTail tail;
  for (std::size_t i = 0; i < columns->array.size() && i < last.size(); ++i) {
    const std::string& name = columns->array[i].string;
    const double v = last[i].number;
    if (name == "events_executed") tail.events = v;
    if (name == "staleness_mean") tail.staleness_mean = v;
    if (name == "warp_mean") tail.warp_mean = v;
    if (name == "network_utilization") tail.utilization = v;
  }
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Interference from other tenants of the host comes in episodes of
/// seconds that slow every run inside them, so the fastest of many short
/// runs is the stable estimate of a run's own cost; the median shows what
/// the episodes cost.
double fastest(const std::vector<double>& seconds) {
  return *std::min_element(seconds.begin(), seconds.end());
}

void print_metrics(const std::string& title, const Metrics& metrics) {
  util::Table table(title);
  table.columns({"metric", "value", "unit"});
  for (const Metric& m : metrics) {
    char value[32];
    std::snprintf(value, sizeof value, "%.6g", m.value);
    table.row().cell(m.name).cell(value).cell(m.unit);
  }
  table.print(std::cout);
}

volatile std::uint64_t g_reference_sink = 0;

/// Host seconds of a fixed reference loop that shares no code with the
/// simulator and touches no memory beyond its stack: eight interleaved
/// timers on a binary heap (the engine's queue discipline) with a
/// pseudo-random step each.  Taken between the timed runs, its fastest
/// time tracks the host's speed over the same window as the runs', so
/// wall_rel = wall_s / reference_s holds still when the whole host slows
/// down for minutes, which no statistic over the runs alone can undo.
double reference_seconds() {
  using Timer = std::pair<std::uint64_t, std::uint32_t>;  // (due, chain)
  std::array<Timer, 8> heap{};
  for (std::uint32_t c = 0; c < heap.size(); ++c) heap[c] = {c + 1, c};
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 400000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.back().first += 1 + heap.back().second + (x & 7U);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const std::int64_t elapsed = now_ns() - start;
  g_reference_sink = heap.front().first;
  return static_cast<double>(elapsed) * 1e-9;
}

class WorkloadProcess {
 public:
  WorkloadProcess(const Bench& bench, const Options& opt)
      : bench_(bench), c_(bench.config()), opt_(opt) {}

  int run(std::int64_t process_start);

 private:
  std::optional<Measured> checked_run(const rt::MachineConfig& machine,
                                      const char* label, int parent);
  void fail(const std::string& why);
  /// One set-up: configure the workload, build its run and machine, and
  /// do one untimed run; its time counts from `start`.
  bool set_up(std::int64_t start);
  void timed_runs();
  void measure_layers();
  [[nodiscard]] Metrics end_to_end() const;
  [[nodiscard]] bool write_results(const Metrics& e2e) const;

  const Bench& bench_;
  const Bench::Config& c_;
  const Options& opt_;
  SpanLog log_;
  int next_run_id_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  harness::Workload* workload_ = nullptr;
  harness::RunConfig run_;
  rt::MachineConfig machine_;
  /// The first run's result: every later run must reproduce it exactly.
  std::optional<harness::RunStats> reference_;
  std::vector<double> setup_s_;
  std::vector<double> wall_s_;
  std::vector<double> reference_s_;
  std::vector<double> allocs_;
  double peak_rss_mb_ = 0.0;
  std::uint32_t update_bytes_ = 0;  ///< Update size the probes used.
  Metrics layers_;
};

void WorkloadProcess::fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "nscc_benchmark: %s: FAILED: %s\n", c_.name.c_str(),
               why.c_str());
}

std::optional<Measured> WorkloadProcess::checked_run(
    const rt::MachineConfig& machine, const char* label, int parent) {
  ++attempted_;
  const std::string what = std::string(label) + " run";
  const int span = log_.begin("harness.run", parent, next_run_id_++);
  const std::uint64_t allocs_before = obs::alloc_counts().count;
  Measured r;
  try {
    r.stats = workload_->run(run_, machine);
  } catch (const std::exception& e) {
    log_.end(span);
    fail(what + " threw: " + e.what());
    return std::nullopt;
  }
  r.wall_s = static_cast<double>(log_.end(span)) * 1e-9;
  r.allocs = static_cast<double>(obs::alloc_counts().count - allocs_before);
  if (!reference_) reference_ = r.stats;
  if (r.stats.deadlocked) fail(what + " deadlocked");
  if (const std::string why =
          bench_.quality_failure(*workload_, r.stats, opt_.smoke);
      !why.empty()) {
    fail(what + ": " + why);
  }
  if (r.stats.to_fields() != reference_->to_fields()) {
    fail(what + ": RunStats differ from the first run's");
  }
  return r;
}

bool WorkloadProcess::set_up(std::int64_t start) {
  const int span = log_.begin("harness.setup", SpanLog::kRoot, next_run_id_);
  workload_ = configure(bench_, opt_.smoke);
  if (workload_ == nullptr) return false;
  run_ = make_run(bench_, opt_.seed);
  machine_ = make_machine(bench_, run_);
  (void)checked_run(machine_, "set-up", span);
  log_.end(span);
  setup_s_.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  return true;
}

void WorkloadProcess::timed_runs() {
  const std::int64_t start = now_ns();
  const auto window = static_cast<std::int64_t>(opt_.seconds * 1e9);
  do {
    // The later set-ups are spread over the window, so that some fall
    // between the host's slow episodes.
    const auto done = static_cast<std::int64_t>(setup_s_.size());
    if (done < kSetups && now_ns() - start >= window * done / kSetups) {
      (void)set_up(now_ns());
    }
    if (const auto r = checked_run(machine_, "timed", SpanLog::kRoot)) {
      wall_s_.push_back(r->wall_s);
      allocs_.push_back(r->allocs);
    }
    reference_s_.push_back(reference_seconds());
  } while (!opt_.smoke && now_ns() < start + window);
}

void WorkloadProcess::measure_layers() {
  const harness::RunStats& ref = *reference_;
  const double wall = fastest(wall_s_);

  // The traced run: sampler series to a temporary file, staleness
  // sanitizer in track mode.  Integrity checking stays off: it changes the
  // wire format, so the virtual results could no longer be compared.
  const std::string series = opt_.json_out + "." + c_.name + ".series.json";
  rt::MachineConfig traced = machine_;
  traced.obs.metrics_path = series;
  traced.sanitize.level = sanitize::Level::kTrack;
  traced.sanitize.spec = workload_->tolerance_spec(run_);
  const auto t = checked_run(traced, "traced", SpanLog::kRoot);
  const auto tail = read_series_tail(series);
  std::remove(series.c_str());
  if (t && t->stats.sanitize_violations > 0) {
    fail("traced run: " + std::to_string(t->stats.sanitize_violations) +
         " sanitizer violation(s)");
  }
  if (!tail) fail("traced run wrote no sampler series");
  const SeriesTail s = tail.value_or(SeriesTail{});

  ProbeContext ctx;
  ctx.machine = machine_;
  ctx.run = run_;
  ctx.policy = c_.policy;
  ctx.nodes = bench_.nodes(*workload_);
  ctx.update_bytes = update_bytes_ = bench_.update_bytes(*workload_, run_);
  ctx.samples = opt_.smoke ? 100 : 2000;
  ctx.log = &log_;
  ctx.run_id = next_run_id_++;
  using Probe = void (*)(const ProbeContext&, Metrics&);
  const std::pair<const char*, Probe> probes[] = {{"probe.sim", probe_sim},
                                                  {"probe.net", probe_net},
                                                  {"probe.rt", probe_rt},
                                                  {"probe.dsm", probe_dsm}};
  for (const auto& [name, probe] : probes) {
    ++attempted_;
    ctx.parent = log_.begin(name, SpanLog::kRoot, ctx.run_id);
    try {
      probe(ctx, layers_);
    } catch (const std::exception& e) {
      fail(std::string(name) + ": " + e.what());
    }
    log_.end(ctx.parent);
  }
  ++attempted_;
  const int kernel_span = log_.begin("probe.app", SpanLog::kRoot, ctx.run_id);
  std::vector<double> kernel_ns;
  try {
    kernel_ns = bench_.time_kernel(*workload_, run_, ctx.samples, log_,
                                   kernel_span, ctx.run_id);
  } catch (const std::exception& e) {
    fail(std::string("probe.app: ") + e.what());
  }
  log_.end(kernel_span);
  const double calls = bench_.kernel_calls(*workload_, ref);

  layers_.insert(
      layers_.end(),
      {{"sim.events", s.events, "count"},
       {"net.utilization", s.utilization, "ratio"},
       {"rt.messages", static_cast<double>(ref.messages_sent), "count"},
       {"rt.warp_mean", s.warp_mean, "iterations"},
       {"dsm.read_blocks", static_cast<double>(ref.global_read_blocks),
        "count"},
       {"dsm.block_s", sim::to_seconds(ref.global_read_block_time), "s"},
       {"dsm.staleness_mean", s.staleness_mean, "iterations"},
       {"app.kernel_calls", calls, "count"}});
  add_percentiles(layers_, "app.kernel_ns", kernel_ns, "ns");
  // The most host time any sim/net/rt/dsm change can save is 1 - share.
  layers_.push_back(
      {"app.budget_share", calls * median(kernel_ns) * 1e-9 / wall, "ratio"});
  if (const auto ratio = bench_.cache_hit_ratio(ref)) {
    layers_.push_back({"app.cache_hit_ratio", *ratio, "ratio"});
  }
  if (t) {
    layers_.push_back(
        {"trace.overhead_share", t->wall_s / wall - 1.0, "ratio"});
  }
}

Metrics WorkloadProcess::end_to_end() const {
  Metrics e2e;
  if (!wall_s_.empty()) {
    const double wall = fastest(wall_s_);
    const double ref = fastest(reference_s_);
    e2e.push_back({"wall_s", wall, "s"});
    e2e.push_back({"wall_s.median", median(wall_s_), "s"});
    e2e.push_back({"wall_rel", wall / ref, "ratio"});
    e2e.push_back({"reference_s", ref, "s"});
  }
  e2e.push_back({"setup_s", fastest(setup_s_), "s"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb_, "MB"});
  if (!allocs_.empty()) {
    e2e.push_back({"allocs_per_run", median(allocs_), "count"});
  }
  if (reference_) {
    e2e.push_back({"virtual_completion_s",
                   sim::to_seconds(reference_->completion_time), "s"});
    e2e.push_back({"quality_loss", bench_.quality_loss(*reference_), "loss"});
  }
  e2e.push_back({"failed_share",
                 static_cast<double>(failed_) / static_cast<double>(attempted_),
                 "ratio"});
  return e2e;
}

bool WorkloadProcess::write_results(const Metrics& e2e) const {
  harness::SweepRecord rec;
  rec.workload = c_.name;
  rec.variant = c_.variant;
  rec.age = c_.age;
  rec.seed = opt_.seed;
  rec.repeat = -1;
  for (const auto& [name, value] : opt_.smoke ? c_.smoke_params : c_.params) {
    rec.params.emplace_back(name, std::stod(value));
  }
  for (const Metric& m : e2e) rec.stats.emplace_back(m.name, m.value);
  for (const Metric& m : layers_) rec.stats.emplace_back(m.name, m.value);
  rec.stats.emplace_back("runs", static_cast<double>(wall_s_.size()));
  rec.stats.emplace_back("attempted", static_cast<double>(attempted_));
  rec.stats.emplace_back("failed", static_cast<double>(failed_));
  harness::Sweep sweep("nscc_benchmark");
  sweep.set_output(opt_.json_out);
  sweep.add(std::move(rec));
  bool ok = sweep.write();
  if (!opt_.trace_out.empty()) {
    int pid = 1;  // One trace process per workload, in benchmark order.
    while (benches()[static_cast<std::size_t>(pid - 1)].get() != &bench_) ++pid;
    ok = log_.write_chrome(opt_.trace_out, pid, c_.name) && ok;
  }
  return ok;
}

int WorkloadProcess::run(std::int64_t process_start) {
  if (!set_up(process_start)) return 2;
  timed_runs();
  peak_rss_mb_ = peak_rss_mb();
  if (opt_.layers && reference_ && !wall_s_.empty()) measure_layers();
  const Metrics e2e = end_to_end();

  char title[256];
  std::snprintf(title, sizeof title,
                "%s: %s %s, seed %llu, %zu timed run(s), %llu attempted, "
                "%llu failed -- end to end",
                c_.name.c_str(), c_.registry.c_str(), c_.variant.c_str(),
                static_cast<unsigned long long>(opt_.seed), wall_s_.size(),
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  print_metrics(title, e2e);
  if (!layers_.empty()) {
    print_metrics(c_.name + " -- per layer (traced run and probes; " +
                      std::to_string(update_bytes_) + "-byte updates; kernel " +
                      c_.kernel + ")",
                  layers_);
  }
  std::cout << std::endl;
  const bool written = write_results(e2e);
  return failed_ == 0 && written ? 0 : 1;
}

}  // namespace

int measure_workload(const Bench& bench, const Options& opt,
                     std::int64_t process_start) {
  return WorkloadProcess(bench, opt).run(process_start);
}

}  // namespace nscc::benchmark
