// Harness-layer tests: registry behaviour, the RunConfig -> legacy-config
// mapping of every workload adapter, the golden parity table, and the
// shared driver's list axes, scenario overrides and flag validation.
//
// The golden table pins the exact metrics the four pre-refactor example
// drivers printed for fixed small configs, on both interconnects.  The
// simulation is deterministic, so the harness port must reproduce them
// byte-for-byte; any drift means the refactor changed an application's
// behaviour, not just its packaging.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "harness/bench_compare.hpp"
#include "harness/cluster.hpp"
#include "harness/driver.hpp"
#include "harness/run_config.hpp"
#include "harness/workload.hpp"
#include "harness/workloads.hpp"
#include "rt/vm.hpp"
#include "util/json.hpp"

namespace {

using namespace nscc;
using harness::Registry;
using harness::RunConfig;
using harness::RunStats;

TEST(Registry, GlobalHasTheFourBuiltinWorkloads) {
  auto& reg = Registry::global();
  EXPECT_EQ(reg.size(), 4u);
  for (const char* name :
       {"ga.island", "bayes.sampling", "solver.jacobi", "nn.train"}) {
    auto* w = reg.find(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
  }
  EXPECT_EQ(reg.find("no.such.workload"), nullptr);
}

TEST(Registry, RejectsDuplicateNames) {
  Registry reg;
  harness::register_builtin_workloads(reg);
  ASSERT_EQ(reg.size(), 4u);
  EXPECT_FALSE(reg.add(std::make_unique<harness::GaIslandWorkload>()));
  EXPECT_EQ(reg.size(), 4u);
}

TEST(Registry, FindOnEmptyRegistryIsNull) {
  Registry reg;
  EXPECT_EQ(reg.find("ga.island"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
}

// ---- RunConfig -> legacy-config parity -------------------------------------

RunConfig sample_run() {
  RunConfig run;
  run.mode = dsm::Mode::kPartialAsync;
  run.age = 7;
  run.seed = 42;
  run.propagation.coalesce = true;
  run.propagation.read_timeout = 123 * sim::kMillisecond;
  run.loader_offered_bps = 2e6;
  return run;
}

TEST(Parity, GaIslandBuildMapsEveryField) {
  harness::GaIslandWorkload w;
  w.function_id = 3;
  w.demes = 5;
  w.generations = 77;
  const ga::IslandConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_TRUE(cfg.propagation.coalesce);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.function_id, 3);
  EXPECT_EQ(cfg.ndemes, 5);
  EXPECT_EQ(cfg.generations, 77);
}

TEST(Parity, BayesBuildMapsEveryField) {
  harness::BayesSamplingWorkload w;
  w.parts = 3;
  w.iterations = 999;
  const bayes::ParallelInferenceConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.parts, 3);
  EXPECT_EQ(cfg.iterations, 999u);
}

TEST(Parity, JacobiBuildMapsEveryField) {
  harness::JacobiWorkload w;
  w.grid = 9;
  w.processors = 3;
  w.tolerance = 1e-6;
  const solver::ParallelJacobiConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_TRUE(cfg.propagation.coalesce);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.processors, 3);
  EXPECT_DOUBLE_EQ(cfg.tolerance, 1e-6);
  EXPECT_EQ(cfg.check_interval, 25);  // The legacy jacobi_solver default.
}

TEST(Parity, NnBuildMapsEveryField) {
  harness::NnTrainWorkload w;
  w.workers = 6;
  w.steps = 123;
  const nn::TrainConfig cfg = w.build(sample_run());
  EXPECT_EQ(cfg.mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(cfg.age, 7);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.propagation.read_timeout, 123 * sim::kMillisecond);
  EXPECT_EQ(cfg.workers, 6);
  EXPECT_EQ(cfg.steps, 123);
}

// ---- Golden metrics --------------------------------------------------------

struct GoldenRow {
  const char* workload;
  const char* network;  // "ethernet" | "sp2"
  const char* variant;  // "sync" | "async" | "partial"
  sim::Time completion_time;
  std::uint64_t messages_sent;
  std::uint64_t global_read_blocks;
  sim::Time global_read_block_time;
  double quality;
  bool deadlocked;
};

// Captured from the pre-refactor per-app drivers (deterministic simulation;
// exact values).  Configs: ga.island f1, 4 demes, 40 generations, seed 7;
// bayes.sampling Figure 1, 2 parts, 1500 iterations, seed 11;
// solver.jacobi 12x12 Poisson, P=4, tol 1e-7, check every 25, seed 5;
// nn.train two-spirals(60), 4 workers, 80 steps, seed 7, partial age 2.
// All partial ages 10 unless noted; coalesce iff partial (ga and solver
// honour it; bayes and nn never coalesce).
const GoldenRow kGolden[] = {
    {"ga.island", "ethernet", "sync", 1380090335, 732, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "ethernet", "async", 1144798081, 492, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "ethernet", "partial", 1136349597, 492, 6, 11854142,
     7.514669923145609e-05, false},
    {"ga.island", "sp2", "sync", 1359007439, 732, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "sp2", "async", 1140647152, 492, 0, 0,
     7.514669923145609e-05, false},
    {"ga.island", "sp2", "partial", 1135998155, 492, 5, 10598342,
     7.514669923145609e-05, false},
    {"bayes.sampling", "ethernet", "sync", 6252661962, 9002, 3000, 2273817200,
     0.79928315412186379, false},
    {"bayes.sampling", "ethernet", "async", 3390735243, 6201, 0, 0,
     0.79928315412186379, false},
    {"bayes.sampling", "ethernet", "partial", 1255840889, 1381, 43, 393799675,
     0.79928315412186379, false},
    {"bayes.sampling", "sp2", "sync", 5987210412, 9002, 3000, 1933316600,
     0.79928315412186379, false},
    {"bayes.sampling", "sp2", "async", 3382177871, 6194, 0, 0,
     0.79928315412186379, false},
    {"bayes.sampling", "sp2", "partial", 1251309978, 1379, 35, 383996398,
     0.79928315412186379, false},
    {"solver.jacobi", "ethernet", "sync", 2369206750, 4914, 0, 0,
     6.3698217367402776e-08, false},
    {"solver.jacobi", "ethernet", "async", 968387409, 2382, 0, 0,
     6.8683521758927668e-08, false},
    {"solver.jacobi", "ethernet", "partial", 940967034, 2203, 265, 342854793,
     5.4146196415416625e-08, false},
    {"solver.jacobi", "sp2", "sync", 2013126008, 4914, 0, 0,
     6.3698217367402776e-08, false},
    {"solver.jacobi", "sp2", "async", 892354457, 2214, 0, 0,
     7.5415694134051137e-08, false},
    {"solver.jacobi", "sp2", "partial", 900703286, 2226, 44, 49778757,
     5.3192594995365994e-08, false},
    {"nn.train", "ethernet", "sync", 1567652859, 644, 320, 5714292254,
     0.23438190940819084, false},
    {"nn.train", "ethernet", "async", 1434434619, 644, 0, 0,
     0.33470809886347064, false},
    {"nn.train", "ethernet", "partial", 1474180957, 644, 312, 5266919106,
     0.23456452125305255, false},
    {"nn.train", "sp2", "sync", 423170080, 644, 320, 1175236150,
     0.23438190940819084, false},
    {"nn.train", "sp2", "async", 334082350, 644, 0, 0,
     0.29409001511218097, false},
    {"nn.train", "sp2", "partial", 335014844, 644, 311, 797926182,
     0.23456705591026542, false},
};

/// Build the registry with the small golden problem sizes and seeds.
struct GoldenSetup {
  Registry registry;
  std::uint64_t seed(const std::string& workload) const {
    if (workload == "bayes.sampling") return 11;
    if (workload == "solver.jacobi") return 5;
    return 7;
  }
  long partial_age(const std::string& workload) const {
    return workload == "nn.train" ? 2 : 10;
  }
  GoldenSetup() {
    auto ga = std::make_unique<harness::GaIslandWorkload>();
    ga->function_id = 1;
    ga->demes = 4;
    ga->generations = 40;
    registry.add(std::move(ga));
    auto bayes = std::make_unique<harness::BayesSamplingWorkload>();
    bayes->parts = 2;
    bayes->iterations = 1500;
    registry.add(std::move(bayes));
    auto jacobi = std::make_unique<harness::JacobiWorkload>();
    jacobi->grid = 12;
    jacobi->processors = 4;
    jacobi->tolerance = 1e-7;
    registry.add(std::move(jacobi));
    auto nn = std::make_unique<harness::NnTrainWorkload>();
    nn->workers = 4;
    nn->steps = 80;
    registry.add(std::move(nn));
  }
};

TEST(Golden, HarnessReproducesPreRefactorMetricsExactly) {
  GoldenSetup setup;
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(std::string(row.workload) + " / " + row.network + " / " +
                 row.variant);
    auto* workload = setup.registry.find(row.workload);
    ASSERT_NE(workload, nullptr);

    // The variant wiring harness::drive() and the cell runner share.
    RunConfig base;
    base.seed = setup.seed(row.workload);
    const RunConfig run = harness::for_variant(
        base,
        harness::make_variant(row.variant, setup.partial_age(row.workload)));

    rt::MachineConfig machine;
    machine.network = std::string(row.network) == "sp2"
                          ? rt::Network::kSp2Switch
                          : rt::Network::kEthernet;

    const RunStats stats = workload->run(run, machine);
    EXPECT_EQ(stats.completion_time, row.completion_time);
    EXPECT_EQ(stats.messages_sent, row.messages_sent);
    EXPECT_EQ(stats.global_read_blocks, row.global_read_blocks);
    EXPECT_EQ(stats.global_read_block_time, row.global_read_block_time);
    EXPECT_EQ(stats.quality, row.quality);  // Exact: deterministic sim.
    EXPECT_EQ(stats.deadlocked, row.deadlocked);
  }
}

// ---- Variant parsing -------------------------------------------------------

TEST(Variants, ForVariantCoalescesOnlyThePartialVariant) {
  RunConfig base;
  base.seed = 9;
  for (const char* name : {"sync", "async", "partial"}) {
    const auto variant = harness::make_variant(name, 4);
    const RunConfig run = harness::for_variant(base, variant);
    EXPECT_EQ(run.mode, variant.mode) << name;
    EXPECT_EQ(run.age, variant.age) << name;
    EXPECT_EQ(run.propagation.coalesce, std::string(name) == "partial");
    EXPECT_EQ(run.seed, 9u) << name;
  }
  EXPECT_EQ(harness::make_variant("partial", 4).tag(), "age4");
}

TEST(Reference, EveryBuiltinWorkloadHasASerialBaseline) {
  GoldenSetup setup;
  for (const auto& name : setup.registry.names()) {
    RunConfig run;
    run.seed = setup.seed(name);
    const RunStats serial = setup.registry.find(name)->reference(run);
    EXPECT_GT(serial.completion_time, 0) << name;
    EXPECT_FALSE(serial.quality_name.empty()) << name;
  }
}

TEST(Variants, PartialExpandsInPlaceToOneSpecPerAge) {
  const auto variants = harness::parse_variants("sync,partial,async", {5, 20});
  ASSERT_EQ(variants.size(), 4u);
  EXPECT_EQ(variants[0].tag(), "sync");
  EXPECT_EQ(variants[1].tag(), "age5");
  EXPECT_EQ(variants[2].tag(), "age20");
  EXPECT_EQ(variants[3].tag(), "async");
}

TEST(Variants, ParseAndLabel) {
  const auto variants = harness::parse_variants("sync,partial", {10});
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0].mode, dsm::Mode::kSynchronous);
  EXPECT_EQ(variants[0].label(), "synchronous");
  EXPECT_EQ(variants[1].mode, dsm::Mode::kPartialAsync);
  EXPECT_EQ(variants[1].age, 10);
  EXPECT_EQ(variants[1].label(), "Global_Read(10)");
}

// ---- The shared driver -----------------------------------------------------

using Stats = std::vector<std::pair<std::string, double>>;

int drive(const std::string& workload, std::vector<std::string> args,
          const harness::DriveOptions* given = nullptr) {
  harness::DriveOptions options;
  if (given != nullptr) options = *given;
  options.workload = workload;
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return harness::drive(static_cast<int>(argv.size()), argv.data(), options);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// A temp-dir path named after the running test: ctest runs each test in
/// its own process, concurrently, so two processes never share one.
std::string test_file(const std::string& tag) {
  return testing::TempDir() +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         tag;
}

/// One drive() whose stdout lands in `<tag>.out` and whose --json-out
/// document in `<tag>.json`; returns the exit code.
int drive_to_files(const std::string& workload, std::vector<std::string> args,
                   const std::string& tag) {
  args.push_back("--json-out=" + test_file(tag + ".json"));
  testing::internal::CaptureStdout();
  const int rc = drive(workload, std::move(args));
  std::ofstream(test_file(tag + ".out"))
      << testing::internal::GetCapturedStdout();
  return rc;
}

/// The --json-out document of one drive(), which must exit 0.
std::string json_of(const std::string& workload, std::vector<std::string> args,
                    const harness::DriveOptions* options = nullptr) {
  static int calls = 0;
  const std::string path = test_file(std::to_string(calls++) + ".json");
  args.push_back("--json-out=" + path);
  testing::internal::CaptureStdout();
  EXPECT_EQ(drive(workload, std::move(args), options), 0);
  (void)testing::internal::GetCapturedStdout();
  return read_file(path);
}

/// Run the driver with --json-out and return its records (the serial
/// reference left out), keyed by variant, age, model and params.  Also
/// checks that the document gives every record its own bench-compare key.
std::map<std::string, Stats> drive_records(const std::string& workload,
                                           std::vector<std::string> args) {
  const std::string text = json_of(workload, std::move(args));
  std::ostringstream compare_log;
  EXPECT_EQ(harness::compare_bench_json(text, text, {}, compare_log),
            harness::kComparePass)
      << compare_log.str();
  std::map<std::string, Stats> records;
  const auto doc = util::json::parse(text);
  if (!doc) {
    ADD_FAILURE() << "unparsable driver JSON from " << workload;
    return records;
  }
  for (const auto& rec : doc->find("results")->array) {
    if (rec.string_or("variant", "") == "serial") continue;
    std::string key = rec.string_or("variant", "") + " age=" +
                      std::to_string(rec.number_or("age", -1)) + " model=" +
                      rec.string_or("consistency", "nonstrict");
    for (const auto& [name, v] : rec.find("params")->object) {
      key += " " + name + "=" + std::to_string(v.number);
    }
    Stats stats;
    for (const auto& [name, v] : rec.find("stats")->object) {
      stats.emplace_back(name, v.number);
    }
    records[key] = stats;
  }
  return records;
}

/// The list run of `flag` has one row per value, each with the same numbers
/// as the matching single-valued run.
void expect_list_matches_single_runs(const std::string& flag,
                                     const std::vector<std::string>& values) {
  const std::vector<std::string> small = {"--grid=8", "--variants=partial"};
  std::string list;
  for (const auto& v : values) list += (list.empty() ? "" : ",") + v;
  auto args = small;
  args.push_back("--" + flag + "=" + list);
  const auto combined = drive_records("solver.jacobi", args);
  EXPECT_EQ(combined.size(), values.size()) << flag;
  std::size_t matched = 0;
  for (const auto& v : values) {
    auto single_args = small;
    single_args.push_back("--" + flag + "=" + v);
    const auto single = drive_records("solver.jacobi", single_args);
    for (const auto& [key, stats] : single) {
      const auto it = combined.find(key);
      ASSERT_NE(it, combined.end()) << key;
      EXPECT_EQ(it->second, stats) << key;
      ++matched;
    }
  }
  EXPECT_EQ(matched, combined.size()) << flag;
}

TEST(DriverAxes, AgeListRunsOneRowPerAge) {
  expect_list_matches_single_runs("age", {"5", "20"});
}

TEST(DriverAxes, NetworkListRunsOneRowPerNetwork) {
  expect_list_matches_single_runs("network", {"ethernet", "sp2"});
}

TEST(DriverAxes, ConsistencyListRunsOneRowPerModel) {
  expect_list_matches_single_runs("consistency", {"nonstrict", "regional"});
}

// The staleness sanitizer only observes: auditing every read must leave
// every reported number of every variant unchanged, wire bytes included.
TEST(DriverObservers, SanitizeTrackLeavesEveryRunStatUnchanged) {
  const std::vector<std::pair<std::string, std::string>> small = {
      {"ga.island", "--generations=20"},
      {"bayes.sampling", "--iterations=500"},
      {"solver.jacobi", "--grid=8"},
      {"nn.train", "--steps=30"}};
  for (const auto& [workload, size] : small) {
    const auto off = drive_records(workload, {size, "--sanitize=off"});
    const auto track = drive_records(workload, {size, "--sanitize=track"});
    EXPECT_EQ(off.size(), 3u) << workload;
    EXPECT_EQ(off, track) << workload;
  }
}

// A section without a Global_Read row still gets the observers: its last
// row is traced.  Observing never changes what the driver prints.
TEST(DriverObservers, SectionWithoutGlobalReadRowIsObserved) {
  const std::string path = testing::TempDir() + "sync_only_trace.json";
  std::remove(path.c_str());
  const auto stdout_of = [](std::vector<std::string> args) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(drive("solver.jacobi", std::move(args)), 0);
    return testing::internal::GetCapturedStdout();
  };
  const std::string plain = stdout_of({"--grid=8", "--variants=sync,async"});
  const std::string traced = stdout_of(
      {"--grid=8", "--variants=sync,async", "--trace-out=" + path});
  EXPECT_EQ(plain, traced);
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "no trace written to " << path;
  std::stringstream text;
  text << file.rdbuf();
  EXPECT_TRUE(util::json::parse(text.str()).has_value()) << path;
}

// A stateful crash wedges the barrier-based variant whatever the recovery
// policy, so only a run without one is told to rerun with one.
TEST(DriverExit, DeadlockHintMatchesTheRecoveryPolicy) {
  const std::vector<std::string> crash = {"--variants=sync", "--demes=4",
                                          "--generations=20",
                                          "--crash-at=0.3"};
  const auto hint = [&](const std::string& policy) {
    auto args = crash;
    args.push_back("--recovery=" + policy);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(drive("ga.island", args), 3) << policy;
    (void)testing::internal::GetCapturedStdout();
    return testing::internal::GetCapturedStderr();
  };
  const std::string rerun = "rerun with --recovery=degraded or --recovery=rejoin";
  EXPECT_NE(hint("none").find(rerun), std::string::npos);
  for (const std::string policy : {"degraded", "rejoin"}) {
    const std::string err = hint(policy);
    EXPECT_EQ(err.find(rerun), std::string::npos) << policy;
    EXPECT_NE(err.find("a barrier-based variant cannot survive the crash, "
                       "even under --recovery=" + policy),
              std::string::npos)
        << err;
    // Once the failure detector stops, blocked reads stop polling, so the
    // queue drains and the engine names the blocked processes (the run
    // used to poll to the 24-hour horizon and report none).
    EXPECT_NE(err.find("sim: DEADLOCK"), std::string::npos) << err;
  }

  // Frame loss with no crash window: the recovery hint would be false; the
  // missing watchdog is what let one lost update wedge the barrier.
  for (const std::string workload : {"bayes.sampling", "nn.train"}) {
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc =
        drive(workload, {"--variants=sync", "--loss-rate=0.05", "--seed=11"});
    (void)testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 3) << workload;
    EXPECT_EQ(err.find("--recovery"), std::string::npos) << err;
    EXPECT_NE(err.find("rerun with --read-timeout-ms to re-demand lost "
                       "updates"),
              std::string::npos)
        << err;
  }
}

// The split-brain exit names only what the split row lacked: a run without
// a quorum gate or heal is told to add them, and a quorum-gated, healed run
// that still diverged is named as such.
TEST(DriverExit, SplitBrainHintNamesWhatWasMissing) {
  const auto split_brain_stderr = [](const std::string& workload,
                                     std::vector<std::string> args) {
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(drive(workload, std::move(args)), 5) << workload;
    (void)testing::internal::GetCapturedStdout();
    return testing::internal::GetCapturedStderr();
  };
  const std::string rerun =
      "rerun with a majority --quorum to gate dead declarations and --heal "
      "to merge divergent histories";

  const std::string healed = split_brain_stderr(
      "solver.jacobi",
      {"--variants=partial", "--age=10", "--grid=24", "--seed=5",
       "--partition-at=0.05:0.6:0,1|2,3", "--quorum=0.6",
       "--recovery=degraded", "--checkpoint-interval=0.1"});
  EXPECT_EQ(healed.find("rerun with"), std::string::npos) << healed;
  EXPECT_NE(healed.find("the quorum-gated, healed row 'ethernet nonstrict "
                        "Global_Read(10)' still diverged"),
            std::string::npos)
      << healed;

  const std::string ungated = split_brain_stderr(
      "ga.island",
      {"--variants=partial", "--age=4", "--function=1", "--demes=4",
       "--generations=40", "--seed=7", "--partition-at=0.05:0.6:0,1|2,3",
       "--quorum=0", "--heal=false", "--recovery=degraded",
       "--checkpoint-interval=0.1"});
  EXPECT_NE(ungated.find(rerun), std::string::npos) << ungated;
}

// The failure detector gives up after ten seconds without compute, here
// while node 1 is still down.  Blocked reads must keep their watchdog
// until the crash window ends: the rejoined node refills its cache only
// through demands.
TEST(DriverExit, CrashLongerThanTheStallLimitStillRejoins) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = drive("bayes.sampling",
                       {"--variants=partial", "--seed=11", "--crash-at=1.0",
                        "--crash-for=30", "--recovery=rejoin",
                        "--loss-rate=0.01"});
  (void)testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0) << err;
  EXPECT_EQ(err.find("DEADLOCK"), std::string::npos) << err;
}

// The driver prints the epilogue only when its check passes, and the
// check's text in its place otherwise.
TEST(DriverEpilogue, CheckedEpilogueYieldsToTheFailureText) {
  harness::DriveOptions options;
  options.epilogue = "every row converged";
  const auto stdout_of = [&](const std::string& verdict) {
    options.epilogue_check = [verdict](const std::vector<harness::Row>& rows) {
      EXPECT_EQ(rows.size(), 1u);
      return verdict.empty() || rows.empty() ? std::string{}
                                             : verdict + rows[0].label();
    };
    testing::internal::CaptureStdout();
    const int rc = drive("solver.jacobi", {"--grid=8", "--variants=sync"},
                         &options);
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    return out;
  };
  const std::string held = stdout_of("");
  EXPECT_NE(held.find("every row converged"), std::string::npos) << held;
  const std::string failed = stdout_of("did not converge: ");
  EXPECT_EQ(failed.find("every row converged"), std::string::npos) << failed;
  EXPECT_NE(failed.find("did not converge: ethernet nonstrict synchronous"),
            std::string::npos)
      << failed;
}

/// Stderr of a partial Jacobi run (it completes at about 0.94 s virtual)
/// with node 1 crashing at `crash_at` for 0.2 s under rejoin; also checks
/// that the exit code is 0 and that stdout carries no note.
std::string crash_run_stderr(const std::string& crash_at) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(drive("solver.jacobi",
                  {"--grid=16", "--variants=partial",
                   "--crash-at=" + crash_at, "--crash-for=0.2",
                   "--recovery=rejoin"}),
            0);
  EXPECT_EQ(testing::internal::GetCapturedStdout().find("note:"),
            std::string::npos);
  return testing::internal::GetCapturedStderr();
}

// A crash window the run never reaches used to pass silently, with
// "crashes 0" in the table and exit 0.
TEST(DriverNotes, CrashWindowAfterCompletionIsNamed) {
  const std::string err = crash_run_stderr("1.0");
  EXPECT_NE(err.find("note: row 'ethernet nonstrict Global_Read(10)': node 1 "
                     "crash window [1.000 s, 1.200 s) starts at or after the "
                     "row's completion time"),
            std::string::npos)
      << err;
}

TEST(DriverNotes, ReachedCrashWindowPrintsNoNote) {
  const std::string err = crash_run_stderr("0.3");
  EXPECT_EQ(err.find("note:"), std::string::npos) << err;
}

TEST(DriverAxes, IllFormedListsExitOne) {
  EXPECT_EQ(drive("solver.jacobi", {"--grid=8", "--age=5,x"}), 1);
  EXPECT_EQ(drive("solver.jacobi", {"--grid=8", "--age=5,5"}), 1);
  EXPECT_EQ(drive("solver.jacobi", {"--grid=8", "--network=ethernet,foo"}),
            1);
}

// ---- One run document, one problem instance per drive() ------------------

// Every drive() starts from the declared defaults.  A registry instance
// used to keep the flag values of the previous drive() in the process, so
// a second run without --steps or --grid ran the first run's problem and
// printed its serial reference.  The fresh runs happen in a re-executed
// child process (the threadsafe death-test style), where no drive() ran
// before; the two workloads do not share an instance.
TEST(DriverReuseDeathTest, SecondDriveMatchesAFreshProcess) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  struct Case {
    std::string workload;
    std::vector<std::string> args;  ///< Both runs.
    std::string size;               ///< The first in-process run only.
    std::string help;               ///< --help's line for that size flag.
  };
  const std::vector<Case> cases = {
      {"nn.train", {"--variants=partial"}, "--steps=60",
       "--steps (default: 500)"},
      {"solver.jacobi", {}, "--grid=8", "--grid (default: 16)"}};
  for (const Case& c : cases) {
    std::remove(test_file(c.workload + "_fresh.out").c_str());
    std::remove(test_file(c.workload + "_fresh.json").c_str());
  }
  EXPECT_EXIT(
      {
        int failed = 0;
        for (const Case& c : cases) {
          failed |= drive_to_files(c.workload, c.args, c.workload + "_fresh");
        }
        std::exit(failed);
      },
      testing::ExitedWithCode(0), "");

  for (const Case& c : cases) {
    SCOPED_TRACE(c.workload);
    auto sized = c.args;
    sized.push_back(c.size);
    EXPECT_EQ(drive_to_files(c.workload, sized, c.workload + "_sized"), 0);
    testing::internal::CaptureStderr();
    EXPECT_EQ(drive(c.workload, {"--help"}), 1);
    const std::string help = testing::internal::GetCapturedStderr();
    EXPECT_NE(help.find(c.help), std::string::npos) << help;
    EXPECT_EQ(drive_to_files(c.workload, c.args, c.workload + "_reused"), 0);

    const std::string fresh = read_file(test_file(c.workload + "_fresh.out"));
    ASSERT_NE(fresh.find("serial reference: "), std::string::npos) << fresh;
    EXPECT_NE(read_file(test_file(c.workload + "_sized.out")), fresh);
    EXPECT_EQ(read_file(test_file(c.workload + "_reused.out")), fresh);
    const std::string fresh_json =
        read_file(test_file(c.workload + "_fresh.json"));
    ASSERT_FALSE(fresh_json.empty());
    EXPECT_EQ(read_file(test_file(c.workload + "_reused.json")), fresh_json);
  }
}

// The declared parameters are part of every record's cell key.  Two grid
// sizes used to compare as one cell, and every metric that differed read
// as a regression.
TEST(DriverJson, ProblemSizeIsPartOfTheCellKey) {
  const std::string small =
      json_of("solver.jacobi", {"--variants=sync", "--grid=8"});
  const std::string large =
      json_of("solver.jacobi", {"--variants=sync", "--grid=16"});
  std::ostringstream log;
  EXPECT_EQ(harness::compare_bench_json(small, large, {}, log),
            harness::kCompareRegression);
  EXPECT_NE(log.str().find("2 baseline cell(s), 0 metric(s) compared"),
            std::string::npos)
      << log.str();
  const auto doc = util::json::parse(small);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->find("results")->array.size(), 2u);
  for (const auto& rec : doc->find("results")->array) {
    const util::json::Value* params = rec.find("params");
    ASSERT_NE(params, nullptr);
    EXPECT_EQ(params->number_or("grid", 0), 8);
    EXPECT_EQ(params->number_or("processors", 0), 4);
    EXPECT_EQ(params->number_or("tolerance", 0), 1e-7);
  }
}

// Each driver record names its row as notes and epilogues do (scenario,
// network, model and variant), carries the network and scenario
// coordinates in its params and every RunStats field in its stats.  The
// serial reference has no row label.
TEST(DriverJson, RecordsCarryTheRowLabelNetworkModelAndStats) {
  harness::Section section;
  section.scenarios = [](const util::Flags& flags,
                         const std::vector<harness::Row>&) {
    return harness::loss_scenarios(flags, {0.0});
  };
  harness::DriveOptions options;
  options.sections = {section};
  const auto doc = util::json::parse(json_of(
      "solver.jacobi",
      {"--grid=8", "--variants=partial", "--network=ethernet,sp2",
       "--consistency=nonstrict,regional"},
      &options));
  ASSERT_TRUE(doc.has_value());
  RunStats jacobi_row;
  jacobi_row.quality_name = "residual";
  std::vector<std::string> labels;
  for (const auto& rec : doc->find("results")->array) {
    if (rec.string_or("variant", "") == "serial") {
      EXPECT_EQ(rec.find("label"), nullptr);
      continue;
    }
    const std::string label = rec.string_or("label", "");
    labels.push_back(label);
    const util::json::Value* params = rec.find("params");
    ASSERT_NE(params, nullptr) << label;
    const std::string network =
        params->number_or("sp2", -1) == 1.0 ? "sp2" : "ethernet";
    EXPECT_EQ(label, "0.0 % " + network + ' ' +
                         rec.string_or("consistency", "nonstrict") +
                         " Global_Read(10)");
    EXPECT_EQ(params->number_or("loss", -1), 0.0) << label;
    EXPECT_EQ(params->number_or("grid", 0), 8) << label;
    const util::json::Value* stats = rec.find("stats");
    ASSERT_NE(stats, nullptr) << label;
    for (const auto& [name, value] : jacobi_row.to_fields()) {
      EXPECT_NE(stats->find(name), nullptr) << label << ": " << name;
    }
  }
  EXPECT_EQ(labels, (std::vector<std::string>{
                        "0.0 % ethernet nonstrict Global_Read(10)",
                        "0.0 % ethernet regional Global_Read(10)",
                        "0.0 % sp2 nonstrict Global_Read(10)",
                        "0.0 % sp2 regional Global_Read(10)"}));
}

/// The column headers of the driver table in `out`: the line that starts
/// with "variant", split where the table pads with two or more spaces.
std::vector<std::string> table_header(const std::string& out) {
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("variant", 0) != 0) continue;
    std::vector<std::string> columns;
    std::size_t at = 0;
    while (at < line.size()) {
      std::size_t end = line.find("  ", at);
      if (end == std::string::npos) end = line.size();
      columns.push_back(line.substr(at, end - at));
      at = line.find_first_not_of(' ', end);
    }
    return columns;
  }
  return {};
}

// The driver shows a counter column group when a row turned its mechanism
// on: fault columns for any fault plan, partition columns for a split,
// recovery columns for a recovery policy, the sanitizer's two for an
// audited run.  Groups print in this order, whatever else is on.
TEST(DriverTable, CounterColumnGroupsArePinned) {
  const std::vector<std::string> always = {
      "variant",   "completion s", "residual",
      "messages",  "gr blocks",    "block time s", "bus util"};
  const std::vector<std::string> faults = {"frames lost", "retx",
                                           "escalations"};
  const std::vector<std::string> partition = {
      "part drops", "stale served", "heal frames",
      "diverged",   "reconciled",   "split brains"};
  const std::vector<std::string> recovery = {"crashes", "restores",
                                             "rejoins", "degraded reads"};
  const std::vector<std::string> audited = {"quarantined", "violations"};
  auto join = [](std::vector<std::vector<std::string>> groups) {
    std::vector<std::string> all;
    for (const auto& g : groups) all.insert(all.end(), g.begin(), g.end());
    return all;
  };
  const std::string split = "--partition-at=0.05:0.6:0,1|2,3";
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      cases = {
          {{}, always},
          {{"--loss-rate=0.01"}, join({always, faults})},
          {{split, "--quorum=0.6"}, join({always, faults, partition})},
          {{"--recovery=degraded"}, join({always, recovery})},
          {{"--sanitize=track"}, join({always, audited})},
          {{"--loss-rate=0.01", split, "--quorum=0.6", "--recovery=degraded",
            "--sanitize=track"},
           join({always, faults, partition, recovery, audited})},
      };
  for (const auto& [flags, expected] : cases) {
    std::vector<std::string> args = {"--grid=8", "--variants=partial"};
    args.insert(args.end(), flags.begin(), flags.end());
    testing::internal::CaptureStdout();
    (void)drive("solver.jacobi", args);
    EXPECT_EQ(table_header(testing::internal::GetCapturedStdout()), expected)
        << testing::PrintToString(flags);
  }
}

/// A stand-in workload that records the configuration of every run.
class RecordingWorkload final : public harness::Workload {
 public:
  static RecordingWorkload& instance() {
    static RecordingWorkload* w = [] {
      auto owned = std::make_unique<RecordingWorkload>();
      RecordingWorkload* raw = owned.get();
      Registry::global().add(std::move(owned));
      return raw;
    }();
    return *w;
  }

  std::vector<RunConfig> runs;
  std::vector<bool> transport;

  [[nodiscard]] std::string name() const override { return "test.recording"; }
  [[nodiscard]] std::string description() const override { return name(); }
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override {
    runs.push_back(run);
    transport.push_back(machine.transport.enabled);
    return {.completion_time = sim::kSecond};
  }
  [[nodiscard]] RunStats reference(const RunConfig&) const override {
    return {.completion_time = sim::kSecond};
  }
};

TEST(DriverScenario, OverridesReachTheWorkloadsRunConfig) {
  RecordingWorkload& w = RecordingWorkload::instance();
  w.runs.clear();
  w.transport.clear();
  harness::Section section;
  section.scenarios = [](const util::Flags&, const std::vector<harness::Row>&) {
    return std::vector<harness::Scenario>{
        {.label = "plain"},
        {.label = "overridden",
         .configure = [](RunConfig& run, rt::MachineConfig&) {
           run.recovery.policy = recovery::Policy::kRejoin;
           run.recovery.quorum_fraction = 0.6;
         }}};
  };
  harness::DriveOptions options;
  options.sections = {section};
  ASSERT_EQ(drive(w.name(), {"--variants=partial"}, &options), 0);
  ASSERT_EQ(w.runs.size(), 2u);
  EXPECT_EQ(w.runs[0].recovery.policy, recovery::Policy::kNone);
  EXPECT_EQ(w.runs[0].recovery.quorum_fraction, 0.0);
  EXPECT_FALSE(w.transport[0]);
  EXPECT_EQ(w.runs[1].recovery.policy, recovery::Policy::kRejoin);
  EXPECT_EQ(w.runs[1].recovery.quorum_fraction, 0.6);
  // The transport wiring is derived after the override: recovery needs it.
  EXPECT_TRUE(w.transport[1]);
}

// ---- Problem sizes each workload cannot run exit 1 at parse time ----------

// The background loader drives the shared bus, which SP2 traffic never
// crosses: a loaded row on the switch is refused before any row runs
// instead of printing the unloaded numbers under a load label.
TEST(DriverValidation, BackgroundLoadOnTheSwitchExitsBeforeAnyRow) {
  RecordingWorkload& w = RecordingWorkload::instance();
  harness::Section section;
  section.scenarios = [](const util::Flags&, const std::vector<harness::Row>&) {
    return harness::load_scenarios({0.0, 2.0});
  };
  harness::DriveOptions options;
  options.sections = {section};
  for (const std::string network : {"sp2", "ethernet,sp2"}) {
    w.runs.clear();
    testing::internal::CaptureStderr();
    EXPECT_EQ(drive(w.name(), {"--variants=partial", "--network=" + network},
                    &options),
              1)
        << network;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(w.runs.empty()) << network;
    EXPECT_NE(err.find("background load (2.0 Mbps) needs --network=ethernet"),
              std::string::npos)
        << err;
  }
  w.runs.clear();
  ASSERT_EQ(drive(w.name(), {"--variants=partial"}, &options), 0);
  ASSERT_EQ(w.runs.size(), 2u);
  EXPECT_EQ(w.runs[1].loader_offered_bps, 2e6);
}

TEST(DriverValidation, GaIslandRejectsUnrunnableSizes) {
  EXPECT_EQ(drive("ga.island", {"--demes=0"}), 1);
  EXPECT_EQ(drive("ga.island", {"--function=9"}), 1);
  EXPECT_EQ(drive("ga.island", {"--age=-3"}), 1);
  // Fault rates outside [0, 1], and fault plans naming a node a 4-deme
  // machine lacks (caught once harness::Cluster sizes the machine).
  for (const std::string fault :
       {"--loss-rate=2", "--corrupt-rate=-0.5", "--crash-node=9",
        "--partition-at=0.05:0.3:0,1|2,9", "--blackhole-at=0.1:0.2:0:9"}) {
    std::vector<std::string> args = {"--demes=4", "--generations=5",
                                     "--variants=partial", fault};
    if (fault == "--crash-node=9") {
      args.insert(args.end(), {"--crash-at=0.1", "--recovery=degraded"});
    }
    EXPECT_EQ(drive("ga.island", args), 1) << fault;
  }
}

TEST(DriverValidation, BayesSamplingRejectsUnrunnableSizes) {
  EXPECT_EQ(drive("bayes.sampling", {"--parts=0"}), 1);
}

TEST(DriverValidation, JacobiRejectsUnrunnableSizes) {
  EXPECT_EQ(drive("solver.jacobi", {"--processors=0"}), 1);
  EXPECT_EQ(drive("solver.jacobi", {"--grid=0"}), 1);
  // A tolerance the residual can never meet used to run 20,000 sweeps per
  // row and exit 0.
  for (const std::string tolerance : {"-1", "0", "nan", "inf"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(drive("solver.jacobi", {"--grid=4", "--variants=sync",
                                      "--tolerance=" + tolerance}),
              1)
        << tolerance;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--tolerance must be finite and > 0, got " + tolerance),
              std::string::npos)
        << err;
    // The declared range shows in the usage text.
    EXPECT_NE(err.find("--tolerance (default: 9.9999999999999995e-08; "
                       "finite, > 0)"),
              std::string::npos)
        << err;
  }
}

TEST(DriverValidation, NnTrainRejectsUnrunnableSizes) {
  EXPECT_EQ(drive("nn.train", {"--workers=0"}), 1);
}

// ---- Fault plans must fit the machine they run on --------------------------

TEST(Cluster, RejectsFaultPlansNamingMissingNodes) {
  const RunConfig run;
  auto build = [&](const fault::FaultPlan& plan) {
    rt::MachineConfig machine;
    machine.fault = plan;
    harness::Cluster cluster(machine, run, 4, 0.15);
  };
  fault::FaultPlan crash;
  crash.nodes[9].crashes.push_back({100, 200});
  fault::FaultPlan partition;
  partition.partitions.push_back({{0, 100}, {{0, 1}, {2, 9}}});
  fault::FaultPlan blackhole;
  blackhole.blackholes.push_back({.src = 0, .dst = 9, .window = {0, 100}});
  for (const auto& [plan, flag] : {std::pair{crash, "--crash-node"},
                                   std::pair{partition, "--partition-at"},
                                   std::pair{blackhole, "--blackhole-at"}}) {
    try {
      build(plan);
      ADD_FAILURE() << flag << " naming node 9 was accepted on 4 nodes";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("4 nodes"), std::string::npos);
    }
  }
  fault::FaultPlan fits;
  fits.nodes[3].crashes.push_back({100, 200});
  fits.partitions.push_back({{0, 100}, {{0, 1}, {2, 3}}});
  fits.blackholes.push_back({.src = 3, .dst = 0, .window = {0, 100}});
  EXPECT_NO_THROW(build(fits));
}

}  // namespace
