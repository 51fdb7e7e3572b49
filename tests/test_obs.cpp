// Tests for the observability subsystem: metrics registry, event tracer
// (ring buffer + Chrome trace-event JSON export), virtual-time sampler, and
// the end-to-end instrumentation of a deterministic two-task DSM run
// (registry counters, trace-file validity, time-series CSV).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/shared_space.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "rt/vm.hpp"
#include "util/flags.hpp"

namespace {

using nscc::obs::Counter;
using nscc::obs::Gauge;
using nscc::obs::Histogram;
using nscc::obs::Registry;
using nscc::obs::Sampler;
using nscc::obs::Tracer;
using nscc::sim::kMillisecond;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker, enough to assert the
// exporters emit well-formed JSON (no third-party parser in the image).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    i_ = 0;
    return value() && (skip_ws(), i_ == s_.size());
  }

 private:
  bool value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++i_;
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == ']') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;  // Skip the escaped character.
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // Closing quote.
    return true;
  }

  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' ||
            s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Metrics primitives.

TEST(Metrics, CounterAndGauge) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge g;
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramLogBuckets) {
  Histogram h;
  h.observe(0.25);  // < 1 lands in bucket 0.
  h.observe(1.0);   // [1, 2) is bucket 1.
  h.observe(1.5);
  h.observe(2.0);  // [2, 4) is bucket 2.
  h.observe(3.0);
  h.observe(1000.0);  // [512, 1024) is bucket 10.
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), (0.25 + 1.0 + 1.5 + 2.0 + 3.0 + 1000.0) / 6.0, 1e-12);
  // Bucket-resolution quantiles: the 3rd of 6 observations (1.5) sits in
  // bucket 1, whose upper bound is 2; the top quantile clamps to max.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), Histogram::bucket_upper(1));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Metrics, EmptyHistogramIsZeroed) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, RegistryKeysByNameAndPid) {
  Registry reg;
  reg.counter("msgs", 0).inc(5);
  reg.counter("msgs", 1).inc(7);
  reg.counter("msgs").inc();  // pid -1: machine-wide.
  EXPECT_EQ(reg.counter_value("msgs", 0), 5u);
  EXPECT_EQ(reg.counter_value("msgs", 1), 7u);
  EXPECT_EQ(reg.counter_value("msgs"), 1u);
  EXPECT_EQ(reg.counter_value("absent", 3), 0u);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  // Handles are get-or-create and stable.
  Counter& again = reg.counter("msgs", 0);
  again.inc();
  EXPECT_EQ(reg.counter_value("msgs", 0), 6u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, RegistryExportsCsvAndJson) {
  Registry reg;
  reg.counter("a.count", 2).inc(3);
  reg.gauge("b.level").set(1.25);
  reg.histogram("c.dist", 0).observe(4.0);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("name,pid,kind,value,count,max"), std::string::npos);
  EXPECT_NE(csv.find("a.count,2,counter,3"), std::string::npos);
  EXPECT_NE(csv.find("b.level,-1,gauge,1.25"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"c.dist\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(16);
  t.complete(0, "span", 10, 5);
  t.instant(0, "point", 10);
  t.counter(0, "level", 10, 3);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RingOverwritesOldest) {
  Tracer t(4);
  t.enable(true);
  for (int i = 0; i < 6; ++i) {
    t.instant(0, "e", i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().ts, 2);  // Oldest two (ts 0, 1) were overwritten.
  EXPECT_EQ(evs.back().ts, 5);
}

TEST(Tracer, ChromeJsonIsValidAndCarriesEvents) {
  Tracer t(64);
  t.enable(true);
  t.set_track_name(3, "worker-three");
  t.complete(3, "Global_Read", 1500, 2500, "loc", 7, "need", 2);
  t.instant(3, "dsm.update.deliver", 4200, "loc", 7);
  t.counter(3, "inflight", 5000, 2);
  const std::string json = t.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Global_Read\""), std::string::npos);
  EXPECT_NE(json.find("worker-three"), std::string::npos);
  // 1500 ns = 1.500 us; durations likewise are exported in microseconds.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"loc\":7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampler.

TEST(Sampler, RowsAndExports) {
  Sampler s;
  double level = 1.0;
  s.add_probe("level", [&] { return level; });
  s.add_probe("twice", [&] { return 2.0 * level; });
  s.sample_now(0);
  level = 3.0;
  s.sample_now(50 * kMillisecond);
  ASSERT_EQ(s.rows().size(), 2u);
  EXPECT_EQ(s.rows()[1].t, 50 * kMillisecond);
  EXPECT_DOUBLE_EQ(s.rows()[1].values[1], 6.0);
  const std::string csv = s.to_csv();
  EXPECT_NE(csv.find("time_ns,time_s,level,twice"), std::string::npos);
  EXPECT_TRUE(JsonChecker(s.to_json()).valid());
}

// ---------------------------------------------------------------------------
// Flags glue.

TEST(ObsFlags, RoundTripThroughFlagSet) {
  nscc::util::Flags flags;
  nscc::obs::add_flags(flags);
  const char* argv[] = {"prog", "--trace-out=/tmp/t.json",
                        "--metrics-out=/tmp/m.csv", "--sample-interval=10"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  const auto opt = nscc::obs::options_from_flags(flags);
  EXPECT_EQ(opt.trace_path, "/tmp/t.json");
  EXPECT_EQ(opt.metrics_path, "/tmp/m.csv");
  EXPECT_EQ(opt.sample_interval, 10 * kMillisecond);
}

TEST(ObsFlags, SampleIntervalIsAtLeastOneVirtualNanosecond) {
  nscc::util::Flags flags;
  nscc::obs::add_flags(flags);
  const char* shortest[] = {"prog", "--sample-interval=1e-6"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(shortest)));
  EXPECT_EQ(nscc::obs::options_from_flags(flags).sample_interval, 1);
  for (const char* bad : {"--sample-interval=9e-7", "--sample-interval=0",
                          "--sample-interval=nan", "--sample-interval=1e9"}) {
    nscc::util::Flags g;
    nscc::obs::add_flags(g);
    const char* argv[] = {"prog", bad};
    testing::internal::CaptureStderr();
    EXPECT_FALSE(g.parse(2, const_cast<char**>(argv))) << bad;
    (void)testing::internal::GetCapturedStderr();
  }
}

TEST(ObsFlags, DefaultsLeaveObservabilityOff) {
  nscc::util::Flags flags;
  nscc::obs::add_flags(flags);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  const auto opt = nscc::obs::options_from_flags(flags);
  nscc::obs::Hub hub(opt);
  EXPECT_FALSE(hub.active());
  EXPECT_FALSE(hub.tracing());
}

// ---------------------------------------------------------------------------
// End-to-end: a deterministic two-task DSM run, fully observed.

/// Producer writes 12 iterations of one location at 20ms per step; consumer
/// does Global_Read with age 3 at 2ms per step (same scenario as
/// examples/quickstart, so the counters below are fully determined).
class ObsEndToEnd : public ::testing::Test {
 protected:
  static constexpr nscc::dsm::LocationId kLoc = 1;
  static constexpr nscc::dsm::Iteration kIters = 12;
  static constexpr nscc::dsm::Iteration kAge = 3;

  void SetUp() override {
    // ctest runs each case as its own process, in parallel under -j: name
    // the files after the case so no two cases share them.
    const std::string prefix =
        ::testing::TempDir() + "nscc_obs_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    trace_path_ = prefix + "_trace.json";
    metrics_path_ = prefix + "_metrics.csv";

    nscc::rt::MachineConfig machine;
    machine.ntasks = 2;
    machine.obs.enable = true;
    machine.obs.trace_path = trace_path_;
    machine.obs.metrics_path = metrics_path_;
    machine.obs.sample_interval = 10 * kMillisecond;
    vm_ = std::make_unique<nscc::rt::VirtualMachine>(machine);

    vm_->add_task("producer", [](nscc::rt::Task& t) {
      nscc::dsm::SharedSpace space(t);
      space.declare_written(kLoc, {1});
      for (nscc::dsm::Iteration i = 0; i < kIters; ++i) {
        t.compute(20 * kMillisecond);
        nscc::rt::Packet p;
        p.pack_double(static_cast<double>(i));
        space.write(kLoc, i, std::move(p));
      }
    });
    vm_->add_task("consumer", [](nscc::rt::Task& t) {
      nscc::dsm::SharedSpace space(t);
      space.declare_read(kLoc, 0);
      for (nscc::dsm::Iteration i = 0; i < kIters; ++i) {
        (void)space.global_read(kLoc, i, kAge);
        t.compute(2 * kMillisecond);
      }
    });
    vm_->run();
  }
  void TearDown() override {
    vm_.reset();
    std::remove(trace_path_.c_str());
    std::remove(metrics_path_.c_str());
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<nscc::rt::VirtualMachine> vm_;
};

TEST_F(ObsEndToEnd, RegistryCountsTheScenario) {
  const Registry& reg = vm_->obs().registry();
  // Producer (pid 0) wrote 12 iterations; every update is fresher than the
  // consumer's copy, so all 12 apply at the consumer (pid 1).
  EXPECT_EQ(reg.counter_value("dsm.writes", 0), 12u);
  EXPECT_EQ(reg.counter_value("dsm.updates_sent", 0), 12u);
  // The consumer's last read needs iteration >= 11 - age = 8, so it applies
  // at least iterations 0..8 before its task ends; updates still in flight
  // when it finishes are never applied.
  EXPECT_GE(reg.counter_value("dsm.updates_applied", 1), 9u);
  EXPECT_LE(reg.counter_value("dsm.updates_applied", 1), 12u);
  EXPECT_EQ(reg.counter_value("dsm.updates_stale_dropped", 1), 0u);
  EXPECT_EQ(reg.counter_value("dsm.global_reads", 1), 12u);
  // The fast consumer outruns the slow producer and must block: at 2ms per
  // consumer step vs 20ms per producer step, only the first read (age 3
  // ahead of nothing... the very first value) and subsequent catch-ups
  // block.  The exact count is deterministic; assert the invariant bounds
  // plus agreement with the histogram count.
  const std::uint64_t blocks = reg.counter_value("dsm.global_read_blocks", 1);
  EXPECT_GT(blocks, 0u);
  EXPECT_LE(blocks, 12u);
  EXPECT_GT(reg.counter_value("dsm.global_read_block_time_ns", 1), 0u);
  const Histogram* staleness = reg.find_histogram("dsm.staleness");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count(), 12u);  // One observation per Global_Read.
  // Bounded staleness: the age bound caps every observation at 3.
  EXPECT_LE(staleness->max(), 3.0);
  // Runtime counters flushed at end of run.
  EXPECT_EQ(reg.counter_value("rt.messages_sent", 0), 12u);
  // messages_received counts blocking recv() completions; updates absorbed
  // by a non-blocking poll() are applied without one, so the count is
  // between 1 and the 12 updates sent.
  EXPECT_GE(reg.counter_value("rt.messages_received", 1), 1u);
  EXPECT_LE(reg.counter_value("rt.messages_received", 1), 12u);
  EXPECT_GT(reg.counter_value("sim.events_executed"), 0u);
  // Gauges settle back to idle by the end of the run.
  EXPECT_DOUBLE_EQ(reg.gauge_value("dsm.blocked_readers"), 0.0);
}

TEST_F(ObsEndToEnd, TraceFileIsValidChromeJson) {
  const std::string json = slurp(trace_path_);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Block spans for Global_Read on the consumer's track (tid 1) and
  // update-delivery instants must both be present.
  EXPECT_NE(json.find("\"name\":\"Global_Read\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dsm.update.deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  // Per-process tracks are named after the simulated tasks.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("producer"), std::string::npos);
  EXPECT_NE(json.find("consumer"), std::string::npos);
}

TEST_F(ObsEndToEnd, MetricsCsvHasTimeSeriesColumns) {
  const std::string csv = slurp(metrics_path_);
  ASSERT_FALSE(csv.empty());
  std::istringstream in(csv);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_NE(header.find("time_ns"), std::string::npos);
  EXPECT_NE(header.find("staleness_mean"), std::string::npos);
  EXPECT_NE(header.find("blocked_readers"), std::string::npos);
  EXPECT_NE(header.find("inflight_updates"), std::string::npos);
  // The run lasts ~240ms virtual at a 10ms interval: expect a healthy
  // number of rows, each with as many fields as the header.
  const auto n_cols =
      static_cast<std::size_t>(std::count(header.begin(), header.end(), ',')) +
      1;
  std::size_t n_rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++n_rows;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) +
                  1,
              n_cols)
        << line;
  }
  EXPECT_GE(n_rows, 20u);
}

TEST(ObsOff, RunWithDefaultsProducesNoObservability) {
  nscc::rt::MachineConfig machine;
  machine.ntasks = 2;
  nscc::rt::VirtualMachine vm(machine);
  vm.add_task("a", [](nscc::rt::Task& t) {
    nscc::rt::Packet p;
    p.pack_i32(1);
    t.send(1, 1, std::move(p));
  });
  vm.add_task("b", [](nscc::rt::Task& t) { (void)t.recv(1); });
  vm.run();
  EXPECT_FALSE(vm.obs().active());
  EXPECT_EQ(vm.obs().tracer().size(), 0u);
  EXPECT_TRUE(vm.obs().sampler().empty());
  // The end-of-run counters are the run's result, not observer output:
  // they are published whether or not observability is on.
  EXPECT_EQ(vm.obs().registry().counter_total("rt.messages_sent"), 1u);
}

}  // namespace
