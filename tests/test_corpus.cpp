// The scenario corpus: every command line the project checks, as one table
// of cells.  A cell is a built example or bench binary, its arguments, the
// exit code it must return and why it is in the corpus, plus optional
// invariants over what it wrote.  The runner spawns the binary in a fresh
// working directory and compares the exit code, stdout, stderr and the
// --json-out document with the goldens tests/corpus/<cell>.{stdout,stderr,
// json} byte for byte.  The document goes through
// harness::compare_bench_json in exact mode first, so a failure names the
// metric that moved.  Every run is a pure function of its command line, so
// a golden match is also the determinism check: the capture and today's
// run are two separate processes.
//
// Every harness::drive cell runs a second time with every observer on
// (--sanitize=track --profile --flow-trace --trace-out=...).  Its document
// must equal the golden in every field but sanitize_violations, which
// track exists to fill in.
//
// Binaries that print host timings (bench_engine, bench_micro_primitives)
// check only their exit code and their invariants.
//
// Adding a cell: append it to corpus() and run the suite; the new cell
// fails for want of goldens and writes what it printed to
// <build>/tests/corpus-actual/.  Re-capturing works the same way: read the
// diff, then copy the actual files over tests/corpus/.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <regex>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/bench_compare.hpp"
#include "util/json.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
namespace json = nscc::util::json;
using nscc::harness::CompareOptions;
using nscc::harness::compare_bench_json;
using nscc::harness::kComparePass;
using nscc::harness::kCompareRegression;

constexpr std::string_view kSchema = "nscc-bench-v5";
/// The exit code of a --sanitize=strict run that found violations.
constexpr int kStrictViolations = 4;

const fs::path kBuildDir = NSCC_BUILD_DIR;
const fs::path kSourceDir = NSCC_SOURCE_DIR;
const fs::path kGoldenDir = kSourceDir / "tests" / "corpus";
const fs::path kRunDir = fs::path(NSCC_CORPUS_WORK_DIR) / "corpus-runs";
const fs::path kActualDir = fs::path(NSCC_CORPUS_WORK_DIR) / "corpus-actual";

struct Binary {
  std::string_view path;  ///< Under the build tree.
  bool document;          ///< Takes --json-out: the runner asks for doc.json.
  bool drive;             ///< A harness::drive registration: observer pass.
  bool wall_clock;        ///< Prints host timings: no goldens.
};

constexpr Binary kBinaries[] = {
    {"examples/quickstart", false, false, false},
    {"examples/island_ga", true, true, false},
    {"examples/bayes_inference", true, true, false},
    {"examples/jacobi_solver", true, true, false},
    {"examples/neural_training", true, true, false},
    {"examples/loaded_network", true, true, false},
    {"examples/lossy_network", true, true, false},
    {"bench/bench_ext_consistency", true, true, false},
    {"bench/bench_ext_faults", true, true, false},
    {"bench/bench_ext_solver", true, true, false},
    {"bench/bench_fig2_ga_unloaded", true, false, false},
    {"bench/bench_fig3_bayes", true, false, false},
    {"bench/bench_ext_neural", true, false, false},
    {"bench/bench_ext_bayes_scaling", true, false, false},
    {"bench/bench_fig4_ga_loaded", false, false, false},
    {"bench/bench_warp", false, false, false},
    {"bench/bench_ext_switch", false, false, false},
    {"bench/bench_table1_functions", false, false, false},
    {"bench/bench_table2_networks", false, false, false},
    {"bench/bench_ablation_rollback", false, false, false},
    {"bench/bench_ablation_age", false, false, false},
    {"bench/bench_ablation_coalesce", false, false, false},
    {"bench/bench_ablation_request", false, false, false},
    {"bench/bench_ext_adaptive_age", false, false, false},
    {"bench/bench_engine", true, false, true},
    {"bench/bench_micro_primitives", false, false, true},
};

/// The binary whose file name is `name`.
const Binary& binary(std::string_view name) {
  for (const Binary& b : kBinaries) {
    if (fs::path(b.path).filename() == name) return b;
  }
  throw std::invalid_argument("no corpus binary named " + std::string(name));
}

/// What one process printed and wrote.
struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
  std::string doc;  ///< The --json-out document; empty when none was written.
  fs::path dir;     ///< The working directory it wrote its files into.
};

struct Cell {
  std::string name;
  std::string binary;  ///< A file name from kBinaries.
  std::vector<std::string> args;
  int exit_code = 0;
  std::string why;
  std::function<void(const Outcome&)> check = {};  ///< Invariants, or null.
};

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.binary;
  for (const std::string& a : cell.args) *os << ' ' << a;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// Spawns `bin` with `args` in a fresh directory `dir`, argv[0] set to the
/// binary's file name (usage text names the program by it), stdout and
/// stderr captured to files there.
Outcome spawn(const Binary& bin, const std::vector<std::string>& args,
          const fs::path& dir) {
  Outcome run;
  run.dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path exe = kBuildDir / bin.path;
  std::vector<std::string> words = {exe.filename().string()};
  words.insert(words.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addchdir_np(&actions, dir.c_str());
  posix_spawn_file_actions_addopen(&actions, 1, "stdout",
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, "stderr",
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    run.err = "posix_spawn " + exe.string() + ": " + std::strerror(rc);
    return run;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  run.exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  run.out = read_file(dir / "stdout").value_or("");
  run.err = read_file(dir / "stderr").value_or("");
  run.doc = read_file(dir / "doc.json").value_or("");
  return run;
}

/// The first line where `want` and `got` differ, both sides quoted.
std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "the final newline";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ":\n    golden: " +
             (more_a ? la : "<end>") + "\n    actual: " +
             (more_b ? lb : "<end>");
    }
  }
}

/// Empty when `actual` equals the golden file byte for byte; otherwise what
/// differs.  A missing golden is a difference.
std::string diff_text(const fs::path& golden, const std::string& actual) {
  const std::optional<std::string> want = read_file(golden);
  if (!want) return "missing golden " + golden.string();
  if (*want == actual) return {};
  return golden.filename().string() + " differs at " +
         first_difference(*want, actual);
}

/// `text` with the value of every `metric` in it replaced by a mark.
std::string mask_metric(const std::string& text, const std::string& metric) {
  const std::regex value("\"" + metric + "\": [^,}]+");
  return std::regex_replace(text, value, "\"" + metric + "\": *");
}

/// Empty when the document `actual` matches the golden file; otherwise what
/// differs.  harness::compare_bench_json runs first in exact mode, so a
/// moved metric is named; then the bytes must match.  The values of the
/// `ignored` metrics are left out of both comparisons.  A missing golden is
/// a difference.
std::string diff_document(const fs::path& golden, const std::string& actual,
                          const std::vector<std::string>& ignored = {}) {
  const std::optional<std::string> want = read_file(golden);
  if (!want) return "missing golden " + golden.string();
  CompareOptions options;
  for (const std::string& metric : ignored) {
    options.metric_tolerance[metric] = 1.0;  // |relative change| <= 1 always.
  }
  std::ostringstream log;
  if (compare_bench_json(*want, actual, options, log) != kComparePass) {
    return golden.filename().string() + " fails the exact comparison:\n" +
           log.str();
  }
  std::string a = *want;
  std::string b = actual;
  for (const std::string& metric : ignored) {
    a = mask_metric(a, metric);
    b = mask_metric(b, metric);
  }
  if (a == b) return {};
  return golden.filename().string() + " differs at " + first_difference(a, b);
}

json::Value parse(const std::string& text) {
  std::string error;
  std::optional<json::Value> doc = json::parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.value_or(json::Value{});
}

/// The document's records, the serial reference left out.
std::vector<json::Value> rows(const std::string& doc) {
  std::vector<json::Value> out;
  const json::Value parsed = parse(doc);
  if (const json::Value* results = parsed.find("results")) {
    for (const json::Value& r : results->array) {
      if (r.string_or("variant", "") != "serial") out.push_back(r);
    }
  }
  return out;
}

double stat(const json::Value& rec, const std::string& name) {
  const json::Value* stats = rec.find("stats");
  const json::Value* value = stats == nullptr ? nullptr : stats->find(name);
  EXPECT_NE(value, nullptr) << "no stat " << name;
  return value == nullptr ? 0.0 : value->number;
}

bool has_param(const json::Value& rec, const std::string& name) {
  const json::Value* params = rec.find("params");
  return params != nullptr && params->find(name) != nullptr;
}

double param(const json::Value& rec, const std::string& name) {
  const json::Value* params = rec.find("params");
  return params == nullptr ? 0.0 : params->number_or(name, 0.0);
}

/// `text` with every `"metric": value` multiplied by `factor`.
std::string scale_metric(const std::string& text, const std::string& metric,
                         double factor) {
  const std::regex value("\"" + metric + "\": ([^,}]+)");
  std::string out;
  auto last = text.cbegin();
  for (std::sregex_iterator it(text.begin(), text.end(), value), end;
       it != end; ++it) {
    out.append(last, (*it)[0].first);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::stod((*it)[1].str()) * factor);
    out += "\"" + metric + "\": " + buf;
    last = (*it)[0].second;
  }
  out.append(last, text.cend());
  return out;
}

// ---------------------------------------------------------------------------
// Invariants over what a cell wrote, beyond its goldens.

std::function<void(const Outcome&)> stderr_has(const std::string& pattern) {
  return [pattern](const Outcome& run) {
    EXPECT_TRUE(std::regex_search(run.err, std::regex(pattern)))
        << "stderr lacks /" << pattern << "/:\n"
        << run.err;
  };
}

/// A traced run: the trace loads as JSON and the metrics series is a CSV
/// with the documented header.
void traced_files(const Outcome& run) {
  parse(read_file(run.dir / "trace.json").value_or(""));
  const std::string csv = read_file(run.dir / "metrics.csv").value_or("");
  EXPECT_EQ(csv.rfind("time_ns,time_s,staleness_mean,blocked_readers,", 0),
            0u)
      << csv.substr(0, 200);
}

/// A flow-traced lossy run: the trace holds flow arrows, and the one row
/// carries its label, its problem instance and the integrity counters.
void flow_traced(const Outcome& run) {
  const json::Value trace =
      parse(read_file(run.dir / "flow-trace.json").value_or(""));
  std::set<std::string> phases;
  if (const json::Value* events = trace.find("traceEvents")) {
    for (const json::Value& e : events->array) {
      phases.insert(e.string_or("ph", ""));
    }
  }
  EXPECT_TRUE(phases.count("s") == 1 && phases.count("f") == 1);
  const std::vector<json::Value> recs = rows(run.doc);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].string_or("label", ""),
            "ethernet nonstrict Global_Read(10)");
  EXPECT_EQ(param(recs[0], "generations"), 20);
  stat(recs[0], "completion_s");
  EXPECT_GT(stat(recs[0], "frames_lost"), 0);
}

/// The consistency-model matrix covers all four models, tags non-default
/// cells with their model and leaves default cells untagged, so the
/// baseline keys from before the model axis keep matching.
void model_matrix(const Outcome& run) {
  const std::vector<json::Value> recs = rows(run.doc);
  EXPECT_EQ(recs.size(), 24u);  // 2 networks x 4 models x 3 variants.
  std::set<std::string> models;
  bool parked = false;
  for (const json::Value& r : recs) {
    const std::string model = r.string_or("consistency", "nonstrict");
    models.insert(model);
    EXPECT_NE(r.string_or("consistency", ""), "nonstrict");
    if (model == "release-acquire" && stat(r, "updates_parked") > 0) {
      parked = true;
    }
  }
  EXPECT_EQ(models, (std::set<std::string>{"nonstrict", "regional",
                                           "release-acquire", "eventual"}));
  EXPECT_TRUE(parked) << "no release-acquire row parked an update";
}

/// bench_ext_faults' crash-recovery and partition-and-heal sweeps report
/// their counters, and the gate's tolerance path works on the document.
void fault_sweeps(const Outcome& run) {
  const std::vector<json::Value> recs = rows(run.doc);
  std::vector<json::Value> crash;
  std::vector<json::Value> split;
  for (const json::Value& r : recs) {
    if (has_param(r, "crash_at_s")) crash.push_back(r);
    if (has_param(r, "part_dur_s")) split.push_back(r);
  }
  // One record per (policy, age), each counting its one crash window
  // whatever the policy, rejoin restoring the crashed node.
  ASSERT_EQ(crash.size(), 6u);
  int rejoined = 0;
  int dead = 0;
  for (const json::Value& r : crash) {
    if (stat(r, "rejoins") > 0) ++rejoined;
    EXPECT_EQ(stat(r, "crashes"), 1) << r.string_or("label", "");
    // With no recovery policy the age-10 row deadlocks.  Its row is read
    // while the blocked demes are still alive, so each of the three
    // surviving demes' last Global_Read block is counted.
    if (param(r, "policy") == 0 && r.number_or("age", 0) == 10) {
      ++dead;
      EXPECT_EQ(stat(r, "deadlocked"), 1);
      EXPECT_GE(stat(r, "global_read_blocks"), 3);
    }
  }
  EXPECT_GT(rejoined, 0);
  EXPECT_EQ(dead, 1);
  // Every healed partition reconciles all of its divergence.
  ASSERT_EQ(split.size(), 4u);
  bool dropped = false;
  for (const json::Value& r : split) {
    dropped = dropped || stat(r, "partition_drops") > 0;
    EXPECT_EQ(stat(r, "diverged_locations"),
              stat(r, "reconciled_locations"));
    EXPECT_EQ(stat(r, "split_brain_declarations"), 0);
  }
  EXPECT_TRUE(dropped);
  // Fewer messages is better: under a 5 % tolerance a 10 % drop in
  // messages_sent passes and a 10 % rise fails.
  CompareOptions tol;
  tol.metric_tolerance["messages_sent"] = 0.05;
  std::ostringstream log;
  EXPECT_EQ(compare_bench_json(run.doc,
                               scale_metric(run.doc, "messages_sent", 0.9),
                               tol, log),
            kComparePass)
      << log.str();
  EXPECT_EQ(compare_bench_json(run.doc,
                               scale_metric(run.doc, "messages_sent", 1.1),
                               tol, log),
            kCompareRegression)
      << log.str();
}

/// A --crash-at flag reaches bench_ext_faults' corruption section: each of
/// its three rows counts the one crash window.
void corruption_rows_crash(const Outcome& run) {
  int corrupt = 0;
  for (const json::Value& r : rows(run.doc)) {
    if (!has_param(r, "corrupt")) continue;
    ++corrupt;
    EXPECT_EQ(stat(r, "crashes"), 1) << r.string_or("label", "");
  }
  EXPECT_EQ(corrupt, 3);
}

/// The engine microbench reports its throughput, and the event path
/// allocates nothing per event: the key heap and the callback slab grow a
/// few times, then are reused.
void engine_throughput(const Outcome& run) {
  EXPECT_EQ(parse(run.doc).string_or("schema", ""), kSchema);
  std::ostringstream log;
  EXPECT_EQ(compare_bench_json(run.doc, run.doc, {}, log), kComparePass)
      << log.str();
  const std::vector<json::Value> recs = rows(run.doc);
  EXPECT_FALSE(recs.empty());
  for (const json::Value& r : recs) {
    EXPECT_GT(stat(r, "events_per_sec"), 0);
    EXPECT_LE(stat(r, "allocations"), 0.01 * stat(r, "events"));
  }
}

// ---------------------------------------------------------------------------
// The corpus.

/// The models other than the default nonstrict, as flag values.
const std::vector<std::string> kOtherModels = {"regional", "release-acquire",
                                               "eventual"};

std::string name_of(std::string flag_value) {
  for (char& c : flag_value) {
    if (c == '-') c = '_';
  }
  return flag_value;
}

/// The four workloads at smoke size, with the example binary that drives
/// each one.
struct Smoke {
  std::string prefix;
  std::string binary;
  std::string size;        ///< The smoke matrices' problem size.
  std::string audit_size;  ///< The sanitizer matrices' problem size.
};

const std::vector<Smoke> kSmoke = {
    {"ga", "island_ga", "--generations=10", "--generations=20"},
    {"bayes", "bayes_inference", "--iterations=500", "--iterations=1000"},
    {"jacobi", "jacobi_solver", "--grid=8", "--grid=12"},
    {"nn", "neural_training", "--steps=30", "--steps=60"},
};

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

void add_workload_cells(std::vector<Cell>& cells) {
  cells.push_back(
      {"ga_traced", "island_ga",
       {"--generations=20", "--trace-out=trace.json",
        "--metrics-out=metrics.csv"},
       0, "the canonical traced run writes a trace and a metrics series",
       traced_files});
  for (const Smoke& w : kSmoke) {
    cells.push_back({w.prefix + "_partial", w.binary,
                     {"--variants=partial", w.size}, 0,
                     "the workload through the shared driver, partial "
                     "variant, default nonstrict model"});
    for (const std::string& model : kOtherModels) {
      cells.push_back({w.prefix + "_partial_" + name_of(model), w.binary,
                       {"--consistency=" + model, "--variants=partial",
                        w.size},
                       0, "the workload completes under every model"});
    }
    cells.push_back({w.prefix + "_unaudited", w.binary,
                     {w.audit_size, "--sanitize=off"}, 0,
                     "every variant unaudited: the observer pass must "
                     "leave its document unchanged"});
    cells.push_back({w.prefix + "_strict", w.binary,
                     {"--sanitize=strict", w.audit_size}, 0,
                     "every variant's reads stay inside the workload's "
                     "tolerance contract",
                     stderr_has("0 violations")});
    for (const char* model : {"regional", "release-acquire"}) {
      cells.push_back({w.prefix + "_strict_" + name_of(model), w.binary,
                       {"--consistency=" + std::string(model),
                        "--sanitize=strict", w.audit_size},
                       0,
                       "a stricter-than-default model adds no contract "
                       "violation"});
    }
    // eventual abandons the bound: only the GA's contract, which does not
    // require fresh reads, certifies clean.
    const bool fresh = w.prefix != "ga";
    cells.push_back({w.prefix + "_strict_eventual", w.binary,
                     {"--consistency=eventual", "--sanitize=strict",
                      w.audit_size},
                     fresh ? kStrictViolations : 0,
                     fresh ? "eventual serves stale values, so strict "
                             "certification must fail"
                           : "the GA's contract tolerates eventual's "
                             "stale reads"});
    cells.push_back({w.prefix + "_corrupt", w.binary,
                     {"--variants=partial", w.audit_size,
                      "--corrupt-rate=0.005", "--sanitize=track"},
                     0,
                     "frame CRCs turn every damaged frame into an "
                     "ordinary loss and the partial variant completes"});
  }
  cells.push_back({"loaded_partial", "loaded_network",
                   {"--variants=partial", "--generations=10"}, 0,
                   "background load on the shared bus, partial variant"});
  cells.push_back({"lossy_loss1", "lossy_network",
                   {"--generations=10", "--loss-rate=0.01"}, 0,
                   "the loss ladder at 1 %"});
  cells.push_back({"lossy_corrupt_both_networks", "lossy_network",
                   {"--loss-rate=0.01", "--generations=40",
                    "--corrupt-rate=0.005", "--network=ethernet,sp2"},
                   0,
                   "loss and corruption on both interconnects take the one "
                   "delivery branch of net::deliver_frame"});
  cells.push_back({"ga_rastrigin_partial_async", "island_ga",
                   {"--function=6", "--variants=partial,async"}, 0,
                   "Rastrigin's multi-word genomes through the migrant "
                   "codec and the fitness cache"});
  cells.push_back({"ga_flow_lossy", "island_ga",
                   {"--variants=partial", "--generations=20",
                    "--loss-rate=0.02", "--flow-trace",
                    "--trace-out=flow-trace.json"},
                   0, "causal flow tracing and the run document on a lossy run",
                   flow_traced});
  cells.push_back({"jacobi_lossy_sp2_strict", "jacobi_solver",
                   {"--network=sp2", "--loss-rate=0.02",
                    "--read-timeout-ms=50", "--grid=40", "--processors=8",
                    "--sanitize=strict"},
                   0,
                   "the SP2 switch under 2 % loss through the solver's "
                   "block reads certifies clean",
                   stderr_has("0 violations")});
}

void add_membership_cells(std::vector<Cell>& cells) {
  const std::vector<std::string> ga = {"--variants=partial", "--function=1",
                                       "--demes=4", "--generations=40"};
  const std::vector<std::string> jacobi = {"--variants=partial", "--grid=24",
                                           "--seed=5"};
  const std::vector<std::string> nn = {"--variants=partial", "--age=2",
                                       "--seed=7"};
  const std::vector<std::string> bayes = {"--variants=partial", "--age=10",
                                          "--seed=11"};
  const auto ga_crash = [](const std::string& policy) {
    return std::vector<std::string>{
        "--age=10",       "--loss-rate=0.01", "--crash-at=0.4",
        "--crash-for=0.08", "--crash-node=1", "--recovery=" + policy,
        "--checkpoint-interval=0.1"};
  };
  const auto jacobi_crash = [](const std::string& policy) {
    return std::vector<std::string>{
        "--age=10",        "--loss-rate=0.01", "--crash-at=1.0",
        "--crash-for=0.1", "--crash-node=1",   "--recovery=" + policy,
        "--checkpoint-interval=0.1"};
  };
  const auto nn_crash = [](const std::string& policy) {
    return std::vector<std::string>{
        "--loss-rate=0.01", "--crash-at=0.8", "--crash-for=0.1",
        "--crash-node=2",   "--recovery=" + policy,
        "--checkpoint-interval=0.2"};
  };
  const std::vector<std::string> half_split = {
      "--partition-at=0.05:0.6:0,1|2,3", "--recovery=degraded",
      "--checkpoint-interval=0.1"};
  const std::string crash_why =
      "one node torn down mid-run on a 1 % lossy network; the recovery "
      "policy must complete the row";
  for (const std::string policy : {"degraded", "rejoin"}) {
    cells.push_back({"ga_crash_" + policy, "island_ga",
                     concat(ga, ga_crash(policy)), 0, crash_why});
    cells.push_back({"jacobi_crash_" + policy, "jacobi_solver",
                     concat(jacobi, jacobi_crash(policy)), 0, crash_why});
    cells.push_back({"nn_crash_" + policy, "neural_training",
                     concat(nn, nn_crash(policy)), 0, crash_why});
  }
  cells.push_back({"bayes_crash_rejoin", "bayes_inference",
                   concat(bayes, {"--loss-rate=0.01", "--crash-at=2.0",
                                  "--crash-for=0.2", "--crash-node=1",
                                  "--recovery=rejoin",
                                  "--checkpoint-interval=0.2"}),
                   0,
                   "the sampler settles through barriers, so only rejoin "
                   "survives its crash"});
  const std::string quorum_why =
      "a crash under a majority quorum: the survivors' union view must let "
      "the victim go, or the reduce waits on it forever";
  cells.push_back({"jacobi_crash_quorum", "jacobi_solver",
                   concat(concat(jacobi, jacobi_crash("degraded")),
                          {"--quorum=0.6"}),
                   0, quorum_why});
  cells.push_back({"nn_crash_quorum", "neural_training",
                   concat(concat(nn, nn_crash("degraded")), {"--quorum=0.6"}),
                   0, quorum_why});
  cells.push_back({"bayes_crash_rejoin_partial_async", "bayes_inference",
                   {"--variants=partial,async", "--crash-at=2.0",
                    "--crash-for=0.2", "--recovery=rejoin",
                    "--checkpoint-interval=0.2"},
                   0,
                   "checkpoints pack the sampler's publication history and "
                   "the restore unpacks it"});

  const std::string heal_why =
      "one split-and-heal cycle under a majority quorum: the heal must "
      "reconcile every diverged location";
  cells.push_back({"ga_partition_heal", "island_ga",
                   concat(concat(ga, {"--age=4", "--quorum=0.6"}), half_split),
                   0, heal_why});
  cells.push_back({"jacobi_partition_heal", "jacobi_solver",
                   concat(concat(jacobi, {"--age=4", "--quorum=0.6"}),
                          half_split),
                   0, heal_why});
  // nn is 5 nodes (server + 4 workers): the majority keeps the server.
  cells.push_back({"nn_partition_heal", "neural_training",
                   concat(nn, {"--steps=60",
                               "--partition-at=0.05:0.6:0,1,2|3,4",
                               "--quorum=0.6", "--recovery=degraded",
                               "--checkpoint-interval=0.2"}),
                   0, heal_why});
  // bayes defaults to 2 graph parts, so the split isolates them.
  cells.push_back({"bayes_partition_heal", "bayes_inference",
                   concat(bayes, {"--iterations=1000",
                                  "--partition-at=0.2:1.5:0|1", "--quorum=0.6",
                                  "--recovery=degraded",
                                  "--checkpoint-interval=0.2"}),
                   0, heal_why});
  cells.push_back({"ga_split_brain", "island_ga",
                   concat(concat(ga, {"--age=4", "--quorum=0", "--heal=false"}),
                          half_split),
                   5,
                   "no quorum gate and no heal: both halves declare each "
                   "other dead, and the run must say so"});
}

void add_bench_cells(std::vector<Cell>& cells) {
  const auto bench = [&cells](std::string name, std::string bin,
                              std::vector<std::string> args,
                              std::function<void(const Outcome&)> check = {}) {
    cells.push_back({std::move(name), std::move(bin), std::move(args), 0,
                     "the bench at a smoke size", std::move(check)});
  };
  bench("fig2_ga_unloaded", "bench_fig2_ga_unloaded",
        {"--generations=30", "--reps=1", "--functions=1", "--procs=4"});
  bench("fig3_bayes", "bench_fig3_bayes", {"--reps=1", "--queries=1"});
  bench("fig4_ga_loaded", "bench_fig4_ga_loaded",
        {"--functions=1", "--generations=20", "--reps=1"});
  bench("faults", "bench_ext_faults", {"--demes=4", "--generations=20"},
        fault_sweeps);
  bench("engine", "bench_engine", {"--events=50000", "--reps=1"},
        engine_throughput);
  bench("consistency_matrix", "bench_ext_consistency", {"--grid=12"},
        model_matrix);
  bench("warp", "bench_warp", {"--generations=20"});
  bench("ext_switch", "bench_ext_switch", {"--generations=20"});
  bench("table1_functions", "bench_table1_functions",
        {"--generations=20", "--reps=1"});
  bench("table2_networks", "bench_table2_networks", {"--queries=1"});
  bench("ablation_rollback", "bench_ablation_rollback", {"--iterations=500"});
  bench("ablation_age", "bench_ablation_age",
        {"--generations=20", "--processors=4"});
  bench("ablation_coalesce", "bench_ablation_coalesce", {"--writes=50"});
  bench("ablation_request", "bench_ablation_request", {"--iterations=50"});
  bench("ext_solver", "bench_ext_solver", {"--grid=10", "--processors=4"});
  bench("ext_neural", "bench_ext_neural", {"--steps=60"});
  bench("ext_bayes_scaling", "bench_ext_bayes_scaling", {"--queries=1"});
  bench("ext_adaptive_age", "bench_ext_adaptive_age",
        {"--generations=20", "--processors=4"});
  bench("micro_primitives", "bench_micro_primitives",
        {"--benchmark_min_time=0.01"});

  const std::vector<std::string> crash = {
      "--demes=4", "--generations=20", "--crash-at=0.3", "--crash-for=0.1",
      "--recovery=degraded"};
  cells.push_back({"faults_refuse_crash", "bench_ext_faults", crash, 1,
                   "the crash section schedules its own crash, so it "
                   "refuses --crash-at after the loss table",
                   stderr_has("section E2 .* drop --crash-at")});
  cells.push_back({"faults_async_crash", "bench_ext_faults",
                   concat(crash, {"--variants=async"}), 0,
                   "async rows leave the crash and partition sections "
                   "empty, so the crash flag reaches the loss and "
                   "corruption tables",
                   corruption_rows_crash});
}

/// Values a flag parser must reject with exit 1 before any run starts; a
/// fault plan naming a node the machine lacks is rejected once the
/// workload sizes its machine, after the serial reference line.
void add_rejection_cells(std::vector<Cell>& cells) {
  const std::vector<std::string> ga = {"--demes=4", "--generations=20",
                                       "--variants=partial"};
  const auto reject = [&cells](std::string name, std::string bin,
                               std::vector<std::string> args) {
    cells.push_back({"reject_" + std::move(name), std::move(bin),
                     std::move(args), 1,
                     "a value the binary must refuse at exit 1"});
  };
  reject("fig2_procs_list_junk", "bench_fig2_ga_unloaded", {"--procs=4,x"});
  reject("fig2_procs_0", "bench_fig2_ga_unloaded", {"--procs=0"});
  reject("fig2_functions_0", "bench_fig2_ga_unloaded", {"--functions=0"});
  reject("fig2_functions_9", "bench_fig2_ga_unloaded", {"--functions=9"});
  reject("fig2_reps_0", "bench_fig2_ga_unloaded", {"--reps=0"});
  reject("fig3_reps_0", "bench_fig3_bayes", {"--reps=0"});
  reject("fig4_processors_0", "bench_fig4_ga_loaded", {"--processors=0"});
  reject("fig4_functions_9", "bench_fig4_ga_loaded", {"--functions=9"});
  reject("fig4_reps_0", "bench_fig4_ga_loaded", {"--reps=0"});
  reject("consistency_age_list_junk", "bench_ext_consistency", {"--age=5,x"});
  reject("consistency_network_foo", "bench_ext_consistency",
         {"--network=ethernet,foo"});
  reject("jacobi_processors_0", "jacobi_solver", {"--processors=0"});
  reject("jacobi_grid_0", "jacobi_solver", {"--grid=0"});
  reject("bayes_parts_0", "bayes_inference", {"--parts=0"});
  reject("ga_demes_0", "island_ga", {"--demes=0"});
  reject("ga_function_9", "island_ga", {"--function=9"});
  reject("ga_age_negative", "island_ga", {"--age=-3"});
  reject("ga_consistency_bogus", "island_ga",
         {"--consistency=bogus", "--variants=partial", "--generations=10"});
  reject("nn_workers_0", "neural_training", {"--workers=0"});
  reject("ga_loss_rate_2", "island_ga", {"--loss-rate=2"});
  reject("ga_corrupt_rate_negative", "island_ga", {"--corrupt-rate=-0.5"});
  reject("ga_crash_node_9", "island_ga",
         {"--demes=4", "--crash-node=9", "--crash-at=0.1",
          "--recovery=degraded"});
  reject("ga_partition_node_9", "island_ga",
         {"--demes=4", "--partition-at=0.05:0.3:0,1|2,9"});
  reject("ga_blackhole_node_9", "island_ga",
         {"--demes=4", "--blackhole-at=0.1:0.2:0:9"});
  reject("ga_crash_past_horizon", "island_ga",
         concat(ga, {"--crash-at=1e12", "--recovery=degraded"}));
  reject("ga_crash_at_inf", "island_ga", concat(ga, {"--crash-at=inf"}));
  reject("ga_quorum_nan", "island_ga", concat(ga, {"--quorum=nan"}));
  reject("ga_checkpoint_interval_nan", "island_ga",
         concat(ga, {"--checkpoint-interval=nan"}));
  reject("ga_read_timeout_inf", "island_ga",
         concat(ga, {"--read-timeout-ms=inf"}));
  reject("ga_partition_until_inf", "island_ga",
         concat(ga, {"--partition-at=0.05:inf:0,1|2,3"}));
  reject("request_partition_junk", "bench_ablation_request",
         {"--partition-at=junk"});
  reject("warp_partition_junk", "bench_warp", {"--partition-at=junk"});
  reject("coalesce_partition_junk", "bench_ablation_coalesce",
         {"--partition-at=junk"});
  reject("quickstart_blackhole_junk", "quickstart", {"--blackhole-at=junk"});
  reject("table1_reps_0", "bench_table1_functions", {"--reps=0"});
  reject("table1_pop_0", "bench_table1_functions", {"--pop=0"});
  reject("switch_function_99", "bench_ext_switch", {"--function=99"});
  reject("ablation_age_processors_0", "bench_ablation_age",
         {"--processors=0"});
}

const std::vector<Cell>& corpus() {
  static const std::vector<Cell> cells = [] {
    std::vector<Cell> all;
    add_workload_cells(all);
    add_membership_cells(all);
    add_bench_cells(all);
    add_rejection_cells(all);
    return all;
  }();
  return cells;
}

// ---------------------------------------------------------------------------
// The runner.

class CorpusCell : public testing::TestWithParam<Cell> {};

TEST_P(CorpusCell, MatchesGoldens) {
  const Cell& cell = GetParam();
  const Binary& bin = binary(cell.binary);
  std::vector<std::string> args = cell.args;
  if (bin.document) args.push_back("--json-out=doc.json");
  const Outcome run = spawn(bin, args, kRunDir / cell.name);
  EXPECT_EQ(run.exit_code, cell.exit_code)
      << "why: " << cell.why << "\nstderr:\n"
      << run.err;

  if (!bin.wall_clock) {
    const fs::path golden = kGoldenDir / cell.name;
    std::vector<std::string> diffs = {
        diff_text(fs::path(golden).concat(".stdout"), run.out),
        diff_text(fs::path(golden).concat(".stderr"), run.err)};
    const fs::path golden_doc = fs::path(golden).concat(".json");
    if (!run.doc.empty()) {
      diffs.push_back(diff_document(golden_doc, run.doc));
    } else if (fs::exists(golden_doc)) {
      diffs.push_back("golden " + golden_doc.string() +
                      " exists but the run wrote no document");
    }
    std::string failed;
    for (const std::string& d : diffs) {
      if (!d.empty()) failed += d + "\n";
    }
    if (!failed.empty()) {
      fs::create_directories(kActualDir);
      const fs::path actual = kActualDir / cell.name;
      write_file(fs::path(actual).concat(".stdout"), run.out);
      write_file(fs::path(actual).concat(".stderr"), run.err);
      if (!run.doc.empty()) {
        write_file(fs::path(actual).concat(".json"), run.doc);
      }
      ADD_FAILURE() << failed << "actual outputs written to "
                    << kActualDir.string() << "; copy them over "
                    << kGoldenDir.string() << " to re-capture";
    }
  }
  if (cell.check) cell.check(run);

  // Observers never change a run.  track cannot give strict's verdict, so
  // a strict run that exits 4 exits 0 observed.
  if (bin.drive && !run.doc.empty()) {
    const Outcome observed =
        spawn(bin,
              concat(args, {"--sanitize=track", "--profile", "--flow-trace",
                            "--trace-out=observer-trace.json"}),
              kRunDir / (cell.name + "-observed"));
    EXPECT_EQ(observed.exit_code,
              cell.exit_code == kStrictViolations ? 0 : cell.exit_code)
        << observed.err;
    const std::string diff =
        diff_document(kGoldenDir / (cell.name + ".json"), observed.doc,
                      {"sanitize_violations"});
    EXPECT_TRUE(diff.empty())
        << "observers changed the document (" << observed.dir.string()
        << "):\n"
        << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusCell, testing::ValuesIn(corpus()),
                         [](const testing::TestParamInfo<Cell>& info) {
                           return info.param.name;
                         });

TEST(Corpus, BaselinesAreCurrentSchema) {
  for (const char* file : {"BENCH_baseline.json", "BENCH_baseline_fig3.json"}) {
    const std::optional<std::string> text = read_file(kSourceDir / file);
    ASSERT_TRUE(text.has_value()) << file;
    EXPECT_EQ(parse(*text).string_or("schema", ""), kSchema) << file;
  }
}

// ---------------------------------------------------------------------------
// The runner's comparison, on a small hand-written document.

class CorpusCompare : public testing::Test {
 protected:
  void SetUp() override {
    const testing::TestInfo* test =
        testing::UnitTest::GetInstance()->current_test_info();
    dir_ = kRunDir / (std::string("compare-") + test->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_file(dir_ / "cell.json", document("ethernet", 606, 0));
  }

  static std::string document(const std::string& label, int messages,
                              int violations) {
    return R"({"schema": "nscc-bench-v5", "bench": "demo", "results": [)"
           R"({"workload": "ga.island", "variant": "partial", "label": ")" +
           label +
           R"(", "age": 10, "seed": 7, "repeat": 0, "params": {"demes": 4},)"
           R"( "stats": {"completion_s": 1.074988464, "messages_sent": )" +
           std::to_string(messages) + R"(, "sanitize_violations": )" +
           std::to_string(violations) + "}}]}\n";
  }

  fs::path dir_;
};

TEST_F(CorpusCompare, IdenticalDocumentMatches) {
  EXPECT_EQ(diff_document(dir_ / "cell.json", document("ethernet", 606, 0)),
            "");
}

TEST_F(CorpusCompare, ChangedMetricFailsAndIsNamed) {
  const std::string diff =
      diff_document(dir_ / "cell.json", document("ethernet", 607, 0));
  EXPECT_NE(diff.find("messages_sent"), std::string::npos) << diff;
  EXPECT_NE(diff.find("REGRESSION"), std::string::npos) << diff;
}

TEST_F(CorpusCompare, ChangedNonMetricFieldFailsByteForByte) {
  const std::string diff =
      diff_document(dir_ / "cell.json", document("sp2", 606, 0));
  EXPECT_NE(diff.find("\"label\": \"sp2\""), std::string::npos) << diff;
}

TEST_F(CorpusCompare, IgnoredMetricIsTheOnlyOneLeftOut) {
  EXPECT_EQ(diff_document(dir_ / "cell.json", document("ethernet", 606, 107),
                          {"sanitize_violations"}),
            "");
  EXPECT_NE(diff_document(dir_ / "cell.json", document("ethernet", 606, 107)),
            "");
  EXPECT_NE(diff_document(dir_ / "cell.json", document("ethernet", 607, 107),
                          {"sanitize_violations"}),
            "");
}

TEST_F(CorpusCompare, MissingGoldenFails) {
  const std::string doc = diff_document(dir_ / "absent.json", "{}");
  EXPECT_NE(doc.find("missing golden"), std::string::npos) << doc;
  const std::string text = diff_text(dir_ / "absent.stdout", "");
  EXPECT_NE(text.find("missing golden"), std::string::npos) << text;
}

TEST_F(CorpusCompare, ChangedTextNamesTheLine) {
  write_file(dir_ / "cell.stdout", "one\ntwo\n");
  EXPECT_EQ(diff_text(dir_ / "cell.stdout", "one\ntwo\n"), "");
  const std::string diff = diff_text(dir_ / "cell.stdout", "one\nthree\n");
  EXPECT_NE(diff.find("line 2"), std::string::npos) << diff;
}

}  // namespace
