// Tests for the robustness stack: the deterministic fault injector, the
// reliable transport (sequence/ACK/retransmit/dedup), the Global_Read
// starvation watchdog, Packet hardening against truncated frames, the
// engine watchdog-timer API, and the --loss-rate/--fault-seed/
// --read-timeout-ms driver flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsm/shared_space.hpp"
#include "fault/fault.hpp"
#include "harness/run_config.hpp"
#include "obs/obs.hpp"
#include "rt/packet.hpp"
#include "rt/transport.hpp"
#include "rt/vm.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/flags.hpp"

namespace {

using nscc::dsm::PropagationPolicy;
using nscc::dsm::SharedSpace;
using nscc::fault::FaultInjector;
using nscc::fault::FaultPlan;
using nscc::fault::PartitionWindow;
using nscc::fault::Window;
using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::SeqTracker;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sim::kMillisecond;
using nscc::sim::kSecond;
using nscc::sim::Time;

/// Zero software/bus overheads so virtual timings in tests are easy to
/// reason about (same idiom as test_dsm).
/// Task `t`'s counter `name` in the machine's registry, so far.
std::uint64_t count(Task& t, const char* name) {
  return t.vm().obs().registry().counter_value(name, t.id());
}

/// `vm`'s machine-wide counter `name`.
std::uint64_t count(const VirtualMachine& vm, const char* name) {
  return vm.obs().registry().counter_value(name);
}

MachineConfig fast_config(int ntasks) {
  MachineConfig c;
  c.ntasks = ntasks;
  c.bus.propagation_delay = 0;
  c.bus.frame_overhead_bytes = 0;
  c.send_sw_overhead = 0;
  c.recv_sw_overhead = 0;
  return c;
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSamePlanSameVerdicts) {
  FaultPlan plan;
  plan.seed = 42;
  plan.link.loss_prob = 0.1;
  plan.link.corrupt_prob = 0.05;

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 2000; ++i) {
    const Time now = i * 100;
    const auto va = a.judge(i % 4, (i + 1) % 4, now);
    const auto vb = b.judge(i % 4, (i + 1) % 4, now);
    ASSERT_EQ(va.drop, vb.drop) << "frame " << i;
    ASSERT_EQ(va.corrupt_seed, vb.corrupt_seed) << "frame " << i;
  }
  EXPECT_GT(a.stats().frames_lost, 0u);
  EXPECT_GT(a.stats().frames_corrupted, 0u);
  EXPECT_EQ(a.stats().frames_lost, b.stats().frames_lost);
  EXPECT_EQ(a.stats().frames_corrupted, b.stats().frames_corrupted);
}

TEST(FaultInjector, LossRateRoughlyHonoured) {
  FaultPlan plan;
  plan.link.loss_prob = 0.1;
  FaultInjector inj(plan);
  constexpr int kFrames = 20000;
  for (int i = 0; i < kFrames; ++i) (void)inj.judge(0, 1, i);
  EXPECT_EQ(inj.stats().frames_judged, kFrames);
  // 10% +- a generous sampling tolerance.
  EXPECT_GT(inj.stats().frames_lost, kFrames / 10 / 2);
  EXPECT_LT(inj.stats().frames_lost, kFrames / 10 * 2);
  EXPECT_EQ(inj.stats().frames_corrupted, 0u);
}

TEST(FaultInjector, OutageDropsEveryFrameInWindow) {
  FaultPlan plan;
  plan.outages.push_back(Window{100, 200});
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.judge(0, 1, 150).drop);
  EXPECT_TRUE(inj.judge(0, 1, 100).drop);   // Start is inclusive.
  EXPECT_FALSE(inj.judge(0, 1, 200).drop);  // End is exclusive.
  EXPECT_FALSE(inj.judge(0, 1, 50).drop);
  EXPECT_EQ(inj.stats().outage_drops, 2u);
  EXPECT_EQ(inj.stats().frames_lost, 2u);
}

TEST(FaultInjector, CrashedNodeLosesBothDirections) {
  FaultPlan plan;
  plan.crashes[2].push_back(Window{0, 1000});
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.judge(0, 2, 10).drop);   // To the crashed node.
  EXPECT_TRUE(inj.judge(2, 0, 10).drop);   // From it.
  EXPECT_FALSE(inj.judge(0, 1, 10).drop);  // Bystanders unaffected.
  EXPECT_FALSE(inj.judge(0, 2, 1000).drop);  // After restart.
  EXPECT_EQ(inj.stats().crash_drops, 2u);
}

// ---------------------------------------------------------------------------
// SeqTracker
// ---------------------------------------------------------------------------

TEST(SeqTracker, DropsReplaysAcceptsOutOfOrder) {
  SeqTracker t;
  EXPECT_TRUE(t.fresh(1));
  EXPECT_FALSE(t.fresh(1));  // Straight replay.
  EXPECT_TRUE(t.fresh(3));   // Leapfrogged a delayed frame.
  EXPECT_FALSE(t.fresh(3));
  EXPECT_TRUE(t.fresh(2));   // The delayed frame finally lands.
  EXPECT_FALSE(t.fresh(2));
  EXPECT_FALSE(t.fresh(1));  // Old replays stay dead after the merge.
  EXPECT_TRUE(t.fresh(4));
}

// ---------------------------------------------------------------------------
// Reliable transport over a lossy wire
// ---------------------------------------------------------------------------

TEST(Transport, HeavyLossDeliversEveryMessageExactlyOnce) {
  MachineConfig cfg = fast_config(2);
  cfg.fault.seed = 7;
  cfg.fault.link.loss_prob = 0.3;
  cfg.transport.enabled = true;
  cfg.transport.ack_timeout = 5 * kMillisecond;
  VirtualMachine vm(cfg);

  constexpr int kMessages = 50;
  std::multiset<int> got;
  vm.add_task("sender", [](Task& t) {
    for (int i = 0; i < kMessages; ++i) {
      Packet p;
      p.pack_i32(i);
      t.send(1, 7, std::move(p));
      t.compute(kMillisecond);
    }
  });
  vm.add_task("receiver", [&](Task& t) {
    for (int i = 0; i < kMessages; ++i) {
      got.insert(t.recv(7).payload.unpack_i32());
    }
  });
  vm.run();

  ASSERT_FALSE(vm.deadlocked());
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got.count(i), 1u) << "message " << i;
  }
  EXPECT_GT(count(vm, "rt.retransmissions"), 0u);
  EXPECT_EQ(count(vm, "rt.retx_abandoned"), 0u);
  EXPECT_GT(count(vm, "rt.acks_sent"), 0u);
  // Retransmits racing lost ACKs reach the receiver's replay filter.
  EXPECT_GT(count(vm, "rt.dup_frames_dropped"), 0u);
}

TEST(Transport, BarriersSurviveLoss) {
  MachineConfig cfg = fast_config(4);
  cfg.fault.seed = 11;
  cfg.fault.link.loss_prob = 0.2;
  cfg.transport.enabled = true;
  cfg.transport.ack_timeout = 5 * kMillisecond;
  VirtualMachine vm(cfg);

  constexpr int kRounds = 20;
  for (int id = 0; id < 4; ++id) {
    vm.add_task("t" + std::to_string(id), [](Task& t) {
      for (int r = 0; r < kRounds; ++r) {
        t.compute(kMillisecond);
        t.barrier();
      }
    });
  }
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
}

// ---------------------------------------------------------------------------
// Global_Read starvation watchdog
// ---------------------------------------------------------------------------

// The regression the watchdog exists for: the writer's single update frame
// is destroyed on the wire (a scheduled outage covers its transmission), the
// writer never writes that location again, and the reader sits in the
// paper's kWait Global_Read.  Without a read_timeout this deadlocks (see
// test_dsm's GlobalReadUnsatisfiableDeadlocksDetectably); with one, the
// reader escalates to an explicit demand and the writer's request handler
// serves the copy back over the reliable channel.
TEST(Dsm, WatchdogRecoversSingleDroppedUpdate) {
  MachineConfig cfg = fast_config(2);
  cfg.fault.seed = 1;
  cfg.fault.outages.push_back(Window{0, 2 * kMillisecond});
  cfg.transport.enabled = true;
  VirtualMachine vm(cfg);

  std::uint64_t escalations = 0;
  std::uint64_t requests = 0;
  double got = 0.0;
  std::int64_t got_iter = -1;

  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    Packet p;
    p.pack_double(6.25);
    space.write(1, 5, std::move(p));  // Transmitted inside the outage: lost.
    // Stay alive so the escalated demand finds the request handler; the
    // handler runs in engine context even while this task is computing.
    t.compute(kSecond);
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy policy;
    policy.read_timeout = 20 * kMillisecond;
    SharedSpace space(t, policy);
    space.declare_read(1, 0);
    const auto& v = space.global_read(1, 5, 0);
    got = [&] {
      Packet copy = v.data;
      return copy.unpack_double();
    }();
    got_iter = v.iteration;
    escalations = count(t, "dsm.read_escalations");
    requests = count(t, "dsm.requests_sent");
  });
  vm.run();

  ASSERT_FALSE(vm.deadlocked());
  EXPECT_EQ(got, 6.25);
  EXPECT_EQ(got_iter, 5);
  EXPECT_GE(escalations, 1u);
  EXPECT_GE(requests, 1u);
  EXPECT_GE(vm.fault_injector()->stats().outage_drops, 1u);
}

// The escalation schedule, pinned: a 10 ms budget that doubles after each
// demand escalates at 10, 30, 70 and 150 ms of waiting.  The writer has no
// copy to serve until its first write at 200 ms, so the read ends on that
// write's ordinary propagation, before the fifth deadline at 310 ms.
TEST(Dsm, WatchdogBackoffDoublesTheBudget) {
  VirtualMachine vm(fast_config(2));

  std::uint64_t escalations = 0;
  std::uint64_t requests = 0;
  Time finished = 0;

  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    t.compute(200 * kMillisecond);
    Packet p;
    p.pack_double(1.5);
    space.write(1, 0, std::move(p));
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy policy;
    policy.read_timeout = 10 * kMillisecond;
    SharedSpace space(t, policy);
    space.declare_read(1, 0);
    (void)space.global_read(1, 0, 0);
    finished = t.now();
    escalations = count(t, "dsm.read_escalations");
    requests = count(t, "dsm.requests_sent");
  });
  vm.run();

  ASSERT_FALSE(vm.deadlocked());
  EXPECT_EQ(escalations, 4u);
  EXPECT_EQ(requests, 4u);
  EXPECT_EQ(finished, 200022400);
}

// Escalation backs off but keeps demanding: even when the demand replies
// themselves ride a very lossy wire, the reliable request channel plus
// repeated escalation terminate the read.
TEST(Dsm, WatchdogSurvivesLossyDemandPath) {
  MachineConfig cfg = fast_config(2);
  cfg.fault.seed = 13;
  cfg.fault.link.loss_prob = 0.4;
  cfg.transport.enabled = true;
  cfg.transport.ack_timeout = 5 * kMillisecond;
  VirtualMachine vm(cfg);

  bool satisfied = false;
  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    for (int i = 0; i <= 30; ++i) {
      Packet p;
      p.pack_double(i);
      space.write(1, i, std::move(p));
      t.compute(10 * kMillisecond);
    }
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy policy;
    policy.read_timeout = 15 * kMillisecond;
    SharedSpace space(t, policy);
    space.declare_read(1, 0);
    for (int i = 0; i <= 30; i += 5) {
      const auto& v = space.global_read(1, i, 2);
      ASSERT_TRUE(v.valid);
      ASSERT_GE(v.iteration, i - 2);
    }
    satisfied = true;
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_TRUE(satisfied);
}

// ---------------------------------------------------------------------------
// Packet hardening (truncated / corrupt frames)
// ---------------------------------------------------------------------------

TEST(Packet, TruncatedFramesThrowInsteadOfOverrunning) {
  Packet p;
  p.pack_i32(3);
  p.pack_u64(77);
  p.pack_double_vec({1.0, 2.0, 3.0});
  const std::size_t full = p.byte_size();

  // The intact frame round-trips.
  {
    Packet copy = p.truncated(full);
    EXPECT_EQ(copy.unpack_i32(), 3);
    EXPECT_EQ(copy.unpack_u64(), 77u);
    EXPECT_EQ(copy.unpack_double_vec().size(), 3u);
  }
  // Every proper prefix fails loudly somewhere in the unpack sequence.
  for (std::size_t n = 0; n < full; ++n) {
    Packet cut = p.truncated(n);
    EXPECT_THROW(
        {
          (void)cut.unpack_i32();
          (void)cut.unpack_u64();
          (void)cut.unpack_double_vec();
        },
        std::out_of_range)
        << "prefix length " << n;
  }
}

TEST(Packet, CorruptVectorLengthThrows) {
  // A frame whose vector-length header promises far more elements than the
  // buffer holds (and would overflow a naive count * sizeof multiply).
  Packet p;
  p.pack_u64(~0ULL);
  EXPECT_THROW((void)p.unpack_double_vec(), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Engine watchdog-timer API
// ---------------------------------------------------------------------------

TEST(EngineWatchdog, FiresAtItsDeadline) {
  nscc::sim::Engine engine;
  Time fired_at = -1;
  engine.set_watchdog(100, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EngineWatchdog, CancelSuppressesTheCallback) {
  nscc::sim::Engine engine;
  bool fired = false;
  const auto id = engine.set_watchdog(100, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel_watchdog(id));
  EXPECT_FALSE(engine.cancel_watchdog(id));  // Already gone.
  const Time end = engine.run();
  EXPECT_FALSE(fired);
  // The canceled event still drained through the queue at its deadline.
  EXPECT_EQ(end, 100);
}

TEST(Engine, BlockedReportNamesStuckTasks) {
  MachineConfig cfg = fast_config(2);
  VirtualMachine vm(cfg);
  vm.add_task("finisher", [](Task& t) { t.compute(kMillisecond); });
  vm.add_task("stuck-reader", [](Task& t) { (void)t.recv(99); });
  vm.run();
  ASSERT_TRUE(vm.deadlocked());
  const std::string report = vm.blocked_report();
  EXPECT_NE(report.find("stuck-reader"), std::string::npos) << report;
  EXPECT_EQ(report.find("finisher"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Determinism: same (seed, plan) => byte-identical metrics output
// ---------------------------------------------------------------------------

std::string run_lossy_workload(nscc::rt::Network network,
                               const std::string& metrics_path) {
  MachineConfig cfg = fast_config(2);
  cfg.network = network;
  cfg.fault.seed = 0xFA17;
  cfg.fault.link.loss_prob = 0.05;
  cfg.fault.link.corrupt_prob = 0.02;
  cfg.transport.enabled = true;
  cfg.transport.ack_timeout = 5 * kMillisecond;
  cfg.obs.enable = true;
  cfg.obs.metrics_path = metrics_path;
  cfg.obs.sample_interval = 10 * kMillisecond;
  VirtualMachine vm(cfg);

  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    for (int i = 0; i < 40; ++i) {
      Packet p;
      p.pack_double(i);
      space.write(1, i, std::move(p));
      t.compute(5 * kMillisecond);
    }
  });
  vm.add_task("reader", [](Task& t) {
    PropagationPolicy policy;
    policy.read_timeout = 15 * kMillisecond;
    SharedSpace space(t, policy);
    space.declare_read(1, 0);
    for (int i = 0; i < 40; i += 4) {
      (void)space.global_read(1, i, 3);
      t.compute(2 * kMillisecond);
    }
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());

  std::ifstream in(metrics_path, std::ios::binary);
  EXPECT_TRUE(in.good()) << metrics_path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(Determinism, LossyRunMetricsAreByteIdenticalEthernet) {
  const std::string dir = ::testing::TempDir();
  const std::string a =
      run_lossy_workload(nscc::rt::Network::kEthernet, dir + "fault_eth_a.json");
  const std::string b =
      run_lossy_workload(nscc::rt::Network::kEthernet, dir + "fault_eth_b.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, LossyRunMetricsAreByteIdenticalSp2) {
  const std::string dir = ::testing::TempDir();
  const std::string a =
      run_lossy_workload(nscc::rt::Network::kSp2Switch, dir + "fault_sp2_a.json");
  const std::string b =
      run_lossy_workload(nscc::rt::Network::kSp2Switch, dir + "fault_sp2_b.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Frame path pins.  A writer/reader DSM run over each interconnect with
// both stochastic link faults on (loss and corruption) and the reliable
// transport.  Every RunStats field and every value the reader got are
// pinned; the fault RNG stream, the delivery times and the counters must
// all come out the same across changes to the frame path.
// ---------------------------------------------------------------------------

struct FramePathRun {
  nscc::harness::RunStats stats;
  std::uint64_t injector_frames_lost = 0;
  /// (iteration, value) of every Global_Read the reader made.
  std::vector<std::pair<std::int64_t, double>> reads;
  /// Payloads of the reliable messages the reader received, in order.
  std::vector<std::int32_t> received;
};

FramePathRun run_frame_path(nscc::rt::Network network) {
  MachineConfig cfg = fast_config(2);
  cfg.network = network;
  cfg.fault.seed = 0xF4A3;
  cfg.fault.link.loss_prob = 0.05;
  cfg.fault.link.corrupt_prob = 0.03;
  cfg.transport.enabled = true;
  cfg.transport.ack_timeout = 5 * kMillisecond;
  VirtualMachine vm(cfg);

  // Best-effort DSM updates every iteration, a reliable application
  // message every 20; the reader runs ahead of the writer, so its reads
  // block on (and its completion depends on) when frames arrive.
  FramePathRun run;
  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    for (int i = 0; i < 200; ++i) {
      Packet p;
      p.pack_double(0.5 * i + 1.0);
      space.write(1, i, std::move(p));
      if (i % 20 == 19) {
        Packet m;
        m.pack_i32(i);
        t.send(1, 7, std::move(m));
      }
      t.compute(kMillisecond);
    }
  });
  vm.add_task("reader", [&run](Task& t) {
    PropagationPolicy policy;
    policy.read_timeout = 15 * kMillisecond;
    SharedSpace space(t, policy);
    space.declare_read(1, 0);
    for (int i = 0; i < 200; i += 2) {
      const SharedSpace::Value& v = space.global_read(1, i, 1);
      Packet data = v.data;
      run.reads.emplace_back(v.iteration, data.unpack_double());
      if (i % 20 == 18) run.received.push_back(t.recv(7).payload.unpack_i32());
      t.compute(3 * kMillisecond / 2);
    }
  });
  const Time end = vm.run();
  EXPECT_FALSE(vm.deadlocked());
  run.stats = nscc::harness::RunStats::from_registry(vm.obs().registry());
  run.stats.completion_time = end;
  run.injector_frames_lost = vm.fault_injector()->stats().frames_lost;
  return run;
}

struct FramePathPin {
  Time completion_time;
  std::uint64_t messages_sent;
  std::uint64_t frames_lost;
  std::uint64_t retransmissions;
  std::uint64_t read_escalations;
  std::uint64_t stats_hash;  ///< Every RunStats field: names and bits.
  std::uint64_t reads_hash;  ///< Every read's iteration and value bits.
};

class Fnv1a {
 public:
  void mix(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_run_stats(const nscc::harness::RunStats& s) {
  Fnv1a h;
  for (const auto& [name, value] : s.to_fields()) {
    h.mix(name.data(), name.size());
    h.mix(&value, sizeof value);
  }
  return h.value();
}

std::uint64_t hash_reads(const FramePathRun& run) {
  Fnv1a h;
  for (const auto& [iteration, value] : run.reads) {
    h.mix(&iteration, sizeof iteration);
    h.mix(&value, sizeof value);
  }
  return h.value();
}

void expect_frame_path(const FramePathRun& run, const FramePathPin& want) {
  EXPECT_EQ(run.stats.completion_time, want.completion_time);
  EXPECT_EQ(run.stats.messages_sent, want.messages_sent);
  EXPECT_EQ(run.stats.frames_lost, want.frames_lost);
  EXPECT_EQ(run.stats.frames_lost, run.injector_frames_lost);
  EXPECT_EQ(run.stats.retransmissions, want.retransmissions);
  EXPECT_EQ(run.stats.read_escalations, want.read_escalations);
  EXPECT_EQ(hash_run_stats(run.stats), want.stats_hash)
      << std::hex << hash_run_stats(run.stats);
  ASSERT_EQ(run.reads.size(), 100U);
  EXPECT_EQ(hash_reads(run), want.reads_hash) << std::hex << hash_reads(run);
  EXPECT_EQ(run.received, (std::vector<std::int32_t>{19, 39, 59, 79, 99, 119,
                                                     139, 159, 179, 199}));
}

TEST(FramePathPinned, Ethernet) {
  const FramePathRun run = run_frame_path(nscc::rt::Network::kEthernet);
  expect_frame_path(run, {200525600, 210, 9, 1, 0, 0xdb43b6bad7f0f327ULL,
                          0xe0e8e391216b041cULL});
}

TEST(FramePathPinned, Sp2) {
  const FramePathRun run = run_frame_path(nscc::rt::Network::kSp2Switch);
  expect_frame_path(run, {200543900, 210, 9, 1, 0, 0x760266c0330e0ee9ULL,
                          0xe0e8e391216b041cULL});
}

// ---------------------------------------------------------------------------
// Driver flags
// ---------------------------------------------------------------------------

TEST(FaultFlags, RoundTripThroughPlan) {
  nscc::util::Flags flags;
  nscc::fault::add_flags(flags);
  const char* argv[] = {"prog", "--loss-rate=0.25", "--fault-seed=99",
                        "--read-timeout-ms=7.5"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));

  const FaultPlan plan = nscc::fault::plan_from_flags(flags);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_DOUBLE_EQ(plan.link.loss_prob, 0.25);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(nscc::fault::read_timeout_from_flags(flags),
            static_cast<Time>(7.5 * static_cast<double>(kMillisecond)));
}

TEST(FaultFlags, DefaultsAreAPerfectNetwork) {
  nscc::util::Flags flags;
  nscc::fault::add_flags(flags);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_TRUE(nscc::fault::plan_from_flags(flags).empty());
  EXPECT_EQ(nscc::fault::read_timeout_from_flags(flags), 0);
}

// ---------------------------------------------------------------------------
// Fault-window composition
// ---------------------------------------------------------------------------

TEST(FaultInjector, CrashInsideOutageCountsOnceInOutageBucket) {
  // A crash window fully inside an outage: a frame involving the crashed
  // node during the overlap is dropped exactly once, attributed to the
  // outage (the first schedule checked), never double-counted.
  FaultPlan plan;
  plan.outages.push_back(Window{100, 300});
  plan.crashes[1].push_back(Window{150, 250});
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.judge(0, 1, 200).drop);  // Both windows open.
  EXPECT_EQ(inj.stats().frames_lost, 1u);
  EXPECT_EQ(inj.stats().outage_drops, 1u);
  EXPECT_EQ(inj.stats().crash_drops, 0u);
  // Outside the outage the crash window is gone too (it ended at 250),
  // so nothing drops.
  EXPECT_FALSE(inj.judge(0, 1, 350).drop);
  EXPECT_EQ(inj.stats().frames_lost, 1u);
}

TEST(FaultInjector, AdjacentWindowsShareTheBoundaryTickExactlyOnce) {
  // Two half-open windows [100, 200) and [200, 300): the boundary tick 200
  // belongs to the second window only, so a frame there drops once.
  FaultPlan plan;
  PartitionWindow first;
  first.window = Window{100, 200};
  first.groups = {{0, 1}, {2, 3}};
  PartitionWindow second = first;
  second.window = Window{200, 300};
  plan.partitions.push_back(first);
  plan.partitions.push_back(second);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.judge(0, 2, 199).drop);
  EXPECT_TRUE(inj.judge(0, 2, 200).drop);   // Second window's start.
  EXPECT_FALSE(inj.judge(0, 2, 300).drop);  // End is exclusive.
  EXPECT_FALSE(inj.judge(0, 2, 99).drop);
  EXPECT_EQ(inj.stats().partition_drops, 2u);
  EXPECT_EQ(inj.stats().frames_lost, 2u);
}

// ---------------------------------------------------------------------------
// Partition / blackhole judgement
// ---------------------------------------------------------------------------

TEST(FaultInjector, PartitionCutsCrossGroupFramesOnly) {
  FaultPlan plan;
  PartitionWindow split;
  split.window = Window{100, 200};
  split.groups = {{0, 1}, {2, 3}};
  plan.partitions.push_back(split);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.judge(0, 2, 150).drop);   // Cross-group.
  EXPECT_TRUE(inj.judge(3, 1, 150).drop);   // Cross, either direction.
  EXPECT_FALSE(inj.judge(0, 1, 150).drop);  // Intra-group.
  EXPECT_FALSE(inj.judge(2, 3, 150).drop);  // Intra-group.
  EXPECT_FALSE(inj.judge(0, 4, 150).drop);  // Unlisted node untouched.
  EXPECT_FALSE(inj.judge(-1, 2, 150).drop); // Background untouched.
  EXPECT_FALSE(inj.judge(0, 2, 50).drop);    // Before the window.
  EXPECT_FALSE(inj.judge(0, 2, 200).drop);  // End is exclusive.
  EXPECT_EQ(inj.stats().partition_drops, 2u);
  EXPECT_EQ(inj.stats().frames_lost, 2u);
}

TEST(FaultInjector, BlackholeIsOneWay) {
  FaultPlan plan;
  plan.blackholes.push_back(nscc::fault::BlackholeWindow{0, 1, {100, 200}});
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.judge(0, 1, 150).drop);   // Blackholed direction.
  EXPECT_FALSE(inj.judge(1, 0, 150).drop);  // Reverse still delivers.
  EXPECT_FALSE(inj.judge(0, 1, 250).drop);  // After the window.
  EXPECT_EQ(inj.stats().blackhole_drops, 1u);
}

TEST(FaultPlanReachability, FollowsScheduledCuts) {
  FaultPlan plan;
  PartitionWindow split;
  split.window = Window{100, 200};
  split.groups = {{0, 1}, {2, 3}};
  plan.partitions.push_back(split);
  plan.blackholes.push_back(nscc::fault::BlackholeWindow{0, 1, {300, 400}});
  EXPECT_TRUE(plan.partitionable());
  EXPECT_FALSE(plan.reachable(0, 2, 150));
  EXPECT_TRUE(plan.reachable(0, 1, 150));
  EXPECT_TRUE(plan.reachable(0, 2, 250));
  // A one-way blackhole makes the pair unreachable in both orders:
  // reachability demands both directions deliver.
  EXPECT_FALSE(plan.reachable(0, 1, 350));
  EXPECT_FALSE(plan.reachable(1, 0, 350));
}

TEST(FaultPlanReachability, LastWindowEndCoversEveryScheduledKind) {
  FaultPlan plan;
  EXPECT_EQ(plan.last_window_end(), 0);
  plan.link.loss_prob = 0.5;  // Stochastic faults schedule no window.
  EXPECT_EQ(plan.last_window_end(), 0);
  plan.outages.push_back(Window{10, 20});
  EXPECT_EQ(plan.last_window_end(), 20);
  plan.corrupt_windows.push_back(Window{10, 30});
  EXPECT_EQ(plan.last_window_end(), 30);
  plan.blackholes.push_back(nscc::fault::BlackholeWindow{0, 1, {10, 40}});
  EXPECT_EQ(plan.last_window_end(), 40);
  PartitionWindow split;
  split.window = Window{10, 50};
  plan.partitions.push_back(split);
  EXPECT_EQ(plan.last_window_end(), 50);
  plan.crashes[1].push_back(Window{10, 60});
  EXPECT_EQ(plan.last_window_end(), 60);
}

// ---------------------------------------------------------------------------
// Partition / blackhole spec parsing
// ---------------------------------------------------------------------------

TEST(PartitionSpec, ParsesWindowAndGroups) {
  const auto p = nscc::fault::parse_partition_spec("0.2:0.6:0,1|2,3");
  EXPECT_EQ(p.window.start,
            static_cast<Time>(0.2 * static_cast<double>(kSecond)));
  EXPECT_EQ(p.window.end,
            static_cast<Time>(0.6 * static_cast<double>(kSecond)));
  ASSERT_EQ(p.groups.size(), 2u);
  EXPECT_EQ(p.groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(p.groups[1], (std::vector<int>{2, 3}));
}

TEST(PartitionSpec, RejectsMalformedSpecs) {
  using nscc::fault::parse_partition_spec;
  EXPECT_THROW(parse_partition_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_partition_spec("0.2:0.6"), std::invalid_argument);
  EXPECT_THROW(parse_partition_spec("0.6:0.2:0,1|2,3"),
               std::invalid_argument);  // start >= end
  EXPECT_THROW(parse_partition_spec("0.2:0.6:0,1,2,3"),
               std::invalid_argument);  // Single group: nothing to cut.
  EXPECT_THROW(parse_partition_spec("0.2:0.6:0,1|1,2"),
               std::invalid_argument);  // Node in two groups.
  EXPECT_THROW(parse_partition_spec("0.2:0.6:0,x|2,3"),
               std::invalid_argument);
  EXPECT_THROW(parse_partition_spec("a:0.6:0,1|2,3"), std::invalid_argument);
}

TEST(BlackholeSpec, ParsesAndRejects) {
  const auto h = nscc::fault::parse_blackhole_spec("0.1:0.5:2:0");
  EXPECT_EQ(h.src, 2);
  EXPECT_EQ(h.dst, 0);
  EXPECT_EQ(h.window.start,
            static_cast<Time>(0.1 * static_cast<double>(kSecond)));
  using nscc::fault::parse_blackhole_spec;
  EXPECT_THROW((void)parse_blackhole_spec("0.1:0.5:2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_blackhole_spec("0.1:0.5:1:1"),
               std::invalid_argument);  // src == dst
  EXPECT_THROW((void)parse_blackhole_spec("0.5:0.1:2:0"),
               std::invalid_argument);  // start >= end
}

TEST(FaultFlags, PartitionAndBlackholeRoundTripThroughPlan) {
  nscc::util::Flags flags;
  nscc::fault::add_flags(flags);
  const char* argv[] = {"prog", "--partition-at=0.2:0.6:0,1|2,3",
                        "--blackhole-at=0.1:0.5:2:0"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  const FaultPlan plan = nscc::fault::plan_from_flags(flags);
  EXPECT_TRUE(plan.partitionable());
  ASSERT_EQ(plan.partitions.size(), 1u);
  ASSERT_EQ(plan.blackholes.size(), 1u);
  EXPECT_EQ(plan.blackholes[0].src, 2);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultFlags, MalformedSpecIsRejectedAtParse) {
  // A window spec's format, and a time that is not finite or lies past
  // the run horizon, are checked where the flag is declared: parse()
  // fails and names the flag, so no driver reaches the plan with it.
  for (const char* bad :
       {"--partition-at=junk", "--partition-at=0.2:0.6:junk",
        "--partition-at=0.05:inf:0,1|2,3", "--partition-at=nan:0.6:0,1|2,3",
        "--partition-at=0.2:1e12:0,1|2,3", "--blackhole-at=junk",
        "--blackhole-at=0.1:inf:0:1", "--blackhole-at=0.1:0.5:1:1"}) {
    nscc::util::Flags flags;
    nscc::fault::add_flags(flags);
    const char* argv[] = {"prog", bad};
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    // The first line is the reason; the usage text that follows lists
    // every flag.
    const std::string reason = err.substr(0, err.find('\n'));
    const std::string flag = std::string(bad).substr(0, 14);
    EXPECT_NE(reason.find(flag), std::string::npos) << reason;
  }
  // So are rates outside [0, 1] and times that are not finite or lie past
  // the horizon: each flag declares its range.
  for (const char* bad :
       {"--loss-rate=2", "--corrupt-rate=-0.5", "--loss-rate=nan",
        "--crash-at=1e12", "--crash-at=inf", "--crash-at=nan",
        "--crash-for=-1", "--read-timeout-ms=inf", "--read-timeout-ms=-4",
        "--crash-node=-1"}) {
    nscc::util::Flags flags;
    nscc::fault::add_flags(flags);
    const char* argv[] = {"prog", bad};
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
    (void)testing::internal::GetCapturedStderr();
  }
}

}  // namespace
