// nscc_benchmark: the repository benchmark.
//
//   nscc_benchmark [--seed=7] [--workload=NAME] [--smoke] [--seconds=20]
//                  [--layers=true] [--json-out=nscc-benchmark.json]
//                  [--trace-out=nscc-benchmark-trace.json]
//
// Without --workload it runs every workload in a child process of its own
// (fresh heap, own peak RSS) and merges their results.  For one workload
// it does, closed loop on one host thread (measure.hpp):
//   * set-up: configure the registered workload, build the run and machine
//     as the harness driver does, one untimed run;
//   * timed runs for --seconds (one under --smoke), with eight more
//     set-ups spread over that window;
//   * with --layers, one traced run (virtual-time sampler series plus the
//     staleness sanitizer) and the layer probes.
// Every run is checked: no deadlock or exception, quality within its
// threshold, RunStats identical to the first run's, and the traced run
// identical to the untraced ones with no sanitizer violation.  Any failed
// check makes the exit code 1.
//
// Results go to stdout as tables, to --json-out as nscc-bench-v5 (one
// record per workload, repeat = -1, stats = every metric; diff two with
// nscc-bench-compare), and the benchmark's own spans to --trace-out as
// Chrome trace JSON.
#include <spawn.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "measure.hpp"
#include "spans.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace nscc::benchmark {
namespace {

/// Run `args` to completion; returns its exit status (-1 if it never ran
/// or did not exit normally).
int spawn_and_wait(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawnp(&pid, argv[0], nullptr, nullptr, argv.data(), environ) !=
      0) {
    std::perror("nscc_benchmark: posix_spawnp");
    return -1;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Add the records of a child's results file to `sweep`; false when the
/// file is missing or holds none.
bool merge_records(const std::string& path, harness::Sweep& sweep) {
  const auto doc = util::json::parse(slurp(path));
  const util::json::Value* results = doc ? doc->find("results") : nullptr;
  if (results == nullptr || results->array.empty()) return false;
  for (const util::json::Value& r : results->array) {
    harness::SweepRecord rec;
    rec.workload = r.string_or("workload", "");
    rec.variant = r.string_or("variant", "");
    rec.age = static_cast<long>(r.number_or("age", 0));
    rec.seed = static_cast<std::uint64_t>(r.number_or("seed", 0));
    rec.repeat = static_cast<int>(r.number_or("repeat", 0));
    const auto read_numbers = [&r](const char* key, auto& out) {
      if (const util::json::Value* obj = r.find(key)) {
        for (const auto& [name, v] : obj->object) {
          out.emplace_back(name, v.number);
        }
      }
    };
    read_numbers("params", rec.params);
    read_numbers("stats", rec.stats);
    sweep.add(std::move(rec));
  }
  return true;
}

/// Every workload, one child process each, results merged.
int run_all(const char* self, const Options& opt) {
  harness::Sweep sweep("nscc_benchmark");
  sweep.set_output(opt.json_out);
  // A child trace is one event per line between a header line and a footer
  // line (SpanLog::write_chrome); the bodies splice into one document.
  std::string events;
  int failures = 0;
  for (const auto& b : benches()) {
    const std::string& name = b->config().name;
    const std::string json_part = opt.json_out + "." + name + ".part";
    const std::string trace_part = opt.json_out + "." + name + ".trace.part";
    const int rc = spawn_and_wait(
        {self, "--workload=" + name, "--seed=" + std::to_string(opt.seed),
         std::string("--smoke=") + (opt.smoke ? "true" : "false"),
         "--seconds=" + std::to_string(opt.seconds),
         std::string("--layers=") + (opt.layers ? "true" : "false"),
         "--json-out=" + json_part, "--trace-out=" + trace_part});
    if (rc != 0) {
      std::fprintf(stderr, "nscc_benchmark: workload %s exited %d\n",
                   name.c_str(), rc);
      ++failures;
    }
    if (!merge_records(json_part, sweep)) {
      std::fprintf(stderr, "nscc_benchmark: no results from %s\n",
                   name.c_str());
      ++failures;
    }
    std::istringstream lines(slurp(trace_part));
    std::vector<std::string> body;
    for (std::string line; std::getline(lines, line);) body.push_back(line);
    std::string block;
    for (std::size_t i = 1; i + 1 < body.size(); ++i) {
      block += (i > 1 ? "\n" : "") + body[i];
    }
    if (!block.empty()) events += (events.empty() ? "" : ",\n") + block;
    std::remove(json_part.c_str());
    std::remove(trace_part.c_str());
  }
  bool ok = sweep.write();
  if (!opt.trace_out.empty()) {
    std::ofstream trace(opt.trace_out);
    trace << "{\"traceEvents\": [\n" << events << "\n]}\n";
    ok = static_cast<bool>(trace) && ok;
  }
  std::cout << "nscc_benchmark: " << benches().size() << " workloads, "
            << failures << " failed; results in " << opt.json_out;
  if (!opt.trace_out.empty()) std::cout << ", spans in " << opt.trace_out;
  std::cout << '\n';
  return failures == 0 && ok ? 0 : 1;
}

}  // namespace
}  // namespace nscc::benchmark

int main(int argc, char** argv) {
  namespace nb = nscc::benchmark;
  const std::int64_t process_start = nb::now_ns();

  std::string names;
  for (const auto& b : nb::benches()) {
    names += (names.empty() ? "" : ", ") + b->config().name;
  }
  nscc::util::Flags flags;
  flags.add_string("workload", "", "run only this workload (" + names + ")")
      .add_int("seed", 7,
               "workload seed, the only source of input randomness (7 is "
               "the default, 11 the held-out seed for confirming claims)")
      .add_bool("smoke", false, "tiny sizes, one timed run, few probe samples")
      .add_double("seconds", 20.0, "time budget for the timed runs")
      .add_bool("layers", true, "also do the traced run and layer probes")
      .add_string("json-out", "nscc-benchmark.json",
                  "nscc-bench-v5 results file")
      .add_string("trace-out", "nscc-benchmark-trace.json",
                  "Chrome trace of the benchmark's spans (empty disables)");
  if (!flags.parse(argc, argv)) return 2;

  nb::Options opt;
  opt.workload = flags.get_string("workload");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  opt.smoke = flags.get_bool("smoke");
  opt.seconds = flags.get_double("seconds");
  opt.layers = flags.get_bool("layers");
  opt.json_out = flags.get_string("json-out");
  opt.trace_out = flags.get_string("trace-out");
  if (opt.seconds < 0.0 || opt.json_out.empty()) {
    std::fprintf(stderr,
                 "nscc_benchmark: need --seconds >= 0 and a --json-out path\n");
    return 2;
  }
  if (opt.workload.empty()) return nb::run_all(argv[0], opt);
  const nb::Bench* bench = nb::find_bench(opt.workload);
  if (bench == nullptr) {
    std::fprintf(stderr, "nscc_benchmark: unknown workload '%s' (have %s)\n",
                 opt.workload.c_str(), names.c_str());
    return 2;
  }
  return nb::measure_workload(*bench, opt, process_start);
}
