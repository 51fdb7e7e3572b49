// Tests for causal flow tracing: the Tracer's flow-event primitives and
// Chrome-JSON export ('s'/'t'/'f' with matching flow ids), track-range
// claiming and name-collision accounting, ring-drop reporting through the
// registry, and the end-to-end DSM instrumentation — a lossy two-task run
// whose exported trace must contain at least one complete
// write -> transit -> read flow whose read-side age agrees with the age the
// DSM reported to the reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dsm/shared_space.hpp"
#include "json_checker.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "rt/vm.hpp"
#include "sim/time.hpp"

namespace {

using nscc::obs::Tracer;
using nscc::sim::kMillisecond;
using nscc::test::JsonChecker;

// ---------------------------------------------------------------------------
// Tracer flow primitives.

TEST(TracerFlow, GatedOnBothEnableAndSetFlows) {
  Tracer t(64);
  t.flow_begin(0, "dsm.flow", 10, 1);  // Fully disabled.
  EXPECT_EQ(t.size(), 0u);
  t.enable(true);
  t.flow_begin(0, "dsm.flow", 10, 1);  // Tracing on, flows still off.
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.flows_enabled());
  t.set_flows(true);
  EXPECT_TRUE(t.flows_enabled());
  t.flow_begin(0, "dsm.flow", 10, 1);
  EXPECT_EQ(t.size(), 1u);
  t.enable(false);  // Flows imply tracing: disabling the tracer gates them.
  EXPECT_FALSE(t.flows_enabled());
  t.flow_step(1, "dsm.flow", 20, 1);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TracerFlow, NewFlowIdsAreUniqueAndNonZero) {
  Tracer t(16);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = t.new_flow();
    EXPECT_NE(id, 0u);  // 0 is the "no flow" sentinel.
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(TracerFlow, ChromeJsonCarriesFlowPhases) {
  Tracer t(64);
  t.enable(true);
  t.set_flows(true);
  const std::uint64_t id = t.new_flow();
  t.flow_begin(0, "dsm.flow", 1000, id, "loc", 7, "iter", 3);
  t.flow_step(1, "dsm.flow", 2000, id, "src", 0);
  t.flow_end(1, "dsm.flow", 3000, id, "age", 2);
  const std::string json = t.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Flow events need a category and a shared id for Perfetto to draw the
  // arrow, and the end must bind to the enclosing slice.
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"age\":2"), std::string::npos);
}

TEST(TracerFlow, NonFlowPhasesCarryNoFlowFields) {
  Tracer t(16);
  t.enable(true);
  t.instant(0, "point", 10);
  t.complete(0, "span", 10, 5);
  const std::string json = t.to_chrome_json();
  EXPECT_EQ(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_EQ(json.find("\"bp\":\"e\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Track registration (satellite: dedup + collision detection).

TEST(TracerTracks, SetTrackNameDedupsIdenticalRegistrations) {
  Tracer t(16);
  t.set_track_name(5, "switch.port0");
  t.set_track_name(5, "switch.port0");  // Same name again: harmless no-op.
  EXPECT_EQ(t.track_collisions(), 0u);
}

#ifdef NDEBUG
TEST(TracerTracks, ConflictingNameCountsCollisionAndFirstWins) {
  Tracer t(16);
  t.enable(true);
  t.set_track_name(5, "processor5");
  t.set_track_name(5, "switch.port5");  // Would assert in debug builds.
  EXPECT_EQ(t.track_collisions(), 1u);
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("processor5"), std::string::npos);
  EXPECT_EQ(json.find("switch.port5"), std::string::npos);
}
#endif

TEST(TracerTracks, ClaimTracksReturnsDisjointRanges) {
  Tracer t(16);
  const int a = t.claim_tracks(4, 1000);
  EXPECT_EQ(a, 1000);  // Preferred base honoured when free.
  const int b = t.claim_tracks(4, 1000);  // Second fabric, same preference.
  EXPECT_GE(b, a + 4);                    // Bumped past the claimed range.
  const int c = t.claim_tracks(2, 1000);
  EXPECT_GE(c, b + 4);
  // Ranges must be pairwise disjoint.
  EXPECT_TRUE(a + 4 <= b && b + 4 <= c);
}

TEST(TracerTracks, ClaimTracksAvoidsNamedTracks) {
  Tracer t(16);
  t.set_track_name(1001, "already-here");
  const int base = t.claim_tracks(4, 1000);
  // [base, base+4) may not cover the already-named track 1001.
  EXPECT_TRUE(base > 1001 || base + 4 <= 1001);
}

// ---------------------------------------------------------------------------
// Ring-drop accounting surfaces in the registry (satellite).

TEST(TracerDrops, DroppedEventsPublishedAsCounter) {
  nscc::rt::MachineConfig machine;
  machine.ntasks = 2;
  machine.obs.enable = true;
  machine.obs.trace_capacity = 16;  // Tiny ring: the run must overflow it.
  nscc::rt::VirtualMachine vm(machine);
  vm.add_task("producer", [](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_written(1, {1});
    for (nscc::dsm::Iteration i = 0; i < 24; ++i) {
      t.compute(kMillisecond);
      nscc::rt::Packet p;
      p.pack_double(static_cast<double>(i));
      space.write(1, i, std::move(p));
    }
  });
  vm.add_task("consumer", [](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_read(1, 0);
    for (nscc::dsm::Iteration i = 0; i < 24; ++i) {
      (void)space.global_read(1, i, 3);
      t.compute(kMillisecond);
    }
  });
  vm.run();
  EXPECT_GT(vm.obs().tracer().dropped(), 0u);
  EXPECT_EQ(vm.obs().registry().counter_value("trace.dropped_events"),
            vm.obs().tracer().dropped());
}

// ---------------------------------------------------------------------------
// End-to-end: flows across a lossy wire, cross-checked against the ages the
// DSM actually served.

struct FlowRun {
  std::unique_ptr<nscc::rt::VirtualMachine> vm;
  std::vector<std::int64_t> served_ages;  ///< Per read: curr - v.iteration.
  nscc::sim::Time completion = 0;
};

/// Producer writes `iters` iterations of one location over a lossy link
/// (reliable transport retransmits); consumer Global_Reads each iteration
/// under `age` and records the age of every value it was served.
FlowRun run_lossy_scenario(bool flows, double loss_prob) {
  constexpr nscc::dsm::LocationId kLoc = 1;
  constexpr nscc::dsm::Iteration kIters = 16;
  constexpr nscc::dsm::Iteration kAge = 3;

  FlowRun run;
  nscc::rt::MachineConfig machine;
  machine.ntasks = 2;
  machine.obs.enable = true;
  machine.obs.flow_trace = flows;
  machine.fault.seed = 7;
  machine.fault.link.loss_prob = loss_prob;
  machine.transport.enabled = loss_prob > 0.0;
  machine.transport.ack_timeout = 5 * kMillisecond;
  run.vm = std::make_unique<nscc::rt::VirtualMachine>(machine);

  run.vm->add_task("producer", [](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_written(kLoc, {1});
    for (nscc::dsm::Iteration i = 0; i < kIters; ++i) {
      t.compute(20 * kMillisecond);
      nscc::rt::Packet p;
      p.pack_double(static_cast<double>(i));
      space.write(kLoc, i, std::move(p));
    }
  });
  run.vm->add_task("consumer", [&run](nscc::rt::Task& t) {
    nscc::dsm::SharedSpace space(t);
    space.declare_read(kLoc, 0);
    for (nscc::dsm::Iteration i = 0; i < kIters; ++i) {
      const nscc::dsm::SharedSpace::Value& v = space.global_read(kLoc, i, kAge);
      run.served_ages.push_back(static_cast<std::int64_t>(i - v.iteration));
      t.compute(2 * kMillisecond);
    }
  });
  run.completion = run.vm->run();
  return run;
}

TEST(FlowEndToEnd, LossyRunHasCompleteFlowsWithDsmConsistentAges) {
  FlowRun run = run_lossy_scenario(/*flows=*/true, /*loss_prob=*/0.2);
  ASSERT_FALSE(run.vm->deadlocked());
  ASSERT_EQ(run.served_ages.size(), 16u);

  // Group flow events by id.
  struct Flow {
    bool start = false, step = false;
    std::vector<const Tracer::Event*> ends;
    int start_tid = -1;
  };
  std::map<std::uint64_t, Flow> flows;
  // events() returns a copy; keep it alive while `ends` points into it.
  const std::vector<Tracer::Event> events = run.vm->obs().tracer().events();
  for (const Tracer::Event& e : events) {
    if (e.phase != 's' && e.phase != 't' && e.phase != 'f') continue;
    EXPECT_NE(e.flow, 0u);
    Flow& f = flows[e.flow];
    if (e.phase == 's') {
      f.start = true;
      f.start_tid = e.tid;
    } else if (e.phase == 't') {
      f.step = true;
    } else {
      f.ends.push_back(&e);
      EXPECT_EQ(e.tid, 1) << "flow must terminate on the consumer's track";
    }
  }
  ASSERT_FALSE(flows.empty());

  // The acceptance bar: at least one *complete* write -> transit -> read
  // flow, and every flow-end age must be an age the DSM actually served.
  const std::multiset<std::int64_t> served(run.served_ages.begin(),
                                           run.served_ages.end());
  int complete = 0;
  for (const auto& [id, f] : flows) {
    ASSERT_LE(f.ends.size(), 1u) << "each flow ends at exactly one read";
    if (f.start) {
      EXPECT_EQ(f.start_tid, 0) << "writes happen on task 0";
    }
    if (f.start && f.step && !f.ends.empty()) ++complete;
    for (const Tracer::Event* e : f.ends) {
      ASSERT_STREQ(e->a0_name, "age");
      EXPECT_TRUE(served.count(e->a0) > 0)
          << "flow " << id << " reported age " << e->a0
          << " which the DSM never served";
      EXPECT_GE(e->a0, 0);
      EXPECT_LE(e->a0, 3);  // Bounded staleness caps every served age.
    }
  }
  EXPECT_GE(complete, 1);

  // The exported JSON must stay loadable with flows present.
  const std::string json = run.vm->obs().tracer().to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(FlowEndToEnd, FlowsOffEmitsNoFlowEvents) {
  FlowRun run = run_lossy_scenario(/*flows=*/false, /*loss_prob=*/0.2);
  ASSERT_FALSE(run.vm->deadlocked());
  for (const Tracer::Event& e : run.vm->obs().tracer().events()) {
    EXPECT_NE(e.phase, 's');
    EXPECT_NE(e.phase, 't');
    EXPECT_NE(e.phase, 'f');
    EXPECT_EQ(e.flow, 0u);
  }
  const std::string json = run.vm->obs().tracer().to_chrome_json();
  EXPECT_EQ(json.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(FlowEndToEnd, FlowTracingDoesNotPerturbTheSimulation) {
  FlowRun off = run_lossy_scenario(/*flows=*/false, /*loss_prob=*/0.2);
  FlowRun on = run_lossy_scenario(/*flows=*/true, /*loss_prob=*/0.2);
  // Virtual results must be identical to the nanosecond and to the value:
  // flow stamping rides existing messages and never schedules anything.
  EXPECT_EQ(off.completion, on.completion);
  EXPECT_EQ(off.served_ages, on.served_ages);
  const auto& roff = off.vm->obs().registry();
  const auto& ron = on.vm->obs().registry();
  for (const char* key : {"dsm.writes", "dsm.updates_sent"}) {
    EXPECT_EQ(roff.counter_value(key, 0), ron.counter_value(key, 0)) << key;
  }
  for (const char* key : {"dsm.updates_applied", "dsm.global_reads"}) {
    EXPECT_EQ(roff.counter_value(key, 1), ron.counter_value(key, 1)) << key;
  }
  EXPECT_EQ(roff.counter_value("sim.events_executed"),
            ron.counter_value("sim.events_executed"));
}

// ---------------------------------------------------------------------------
// Per-read outcome breakdown counters (tentpole: latency/age breakdown).

TEST(FlowEndToEnd, ReadOutcomeCountersAccountEveryRead) {
  FlowRun run = run_lossy_scenario(/*flows=*/true, /*loss_prob=*/0.0);
  const auto& reg = run.vm->obs().registry();
  const std::uint64_t reads = reg.counter_value("dsm.global_reads", 1);
  ASSERT_EQ(reads, 16u);
  const std::uint64_t blocked = reg.counter_total("dsm.global_read_blocks");
  const std::uint64_t queued = reg.counter_value("dsm.read.queued");
  // The fast consumer outruns the slow producer, so some reads block; a
  // blocked read is never also counted as served-from-queue.
  EXPECT_GT(blocked, 0u);
  EXPECT_LE(blocked + queued, reads);
  EXPECT_EQ(reg.counter_total("dsm.degraded_reads") +
                reg.counter_total("dsm.partition.stale_served"),
            0u);
  EXPECT_EQ(reg.counter_value("dsm.read.escalated"), 0u);
  const auto* block_ns = reg.find_histogram("dsm.read.block_ns");
  ASSERT_NE(block_ns, nullptr);
  EXPECT_EQ(block_ns->count(), blocked);
  EXPECT_GT(block_ns->max(), 0.0);
}

}  // namespace
