// Tests for the staleness sanitizer and the end-to-end data-integrity
// layer: tolerance-contract lookup, the bounded shadow log, checksum
// auditing (including the sampler's re-publish-same-iteration case),
// deterministic payload corruption, CRC-checked frames behaving exactly as
// loss, and the purpose-built violation the strict mode must catch — a
// degraded read flowing into a location whose contract declares it
// intolerant.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/shared_space.hpp"
#include "fault/fault.hpp"
#include "harness/driver.hpp"
#include "harness/workload.hpp"
#include "obs/obs.hpp"
#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sanitize/sanitize.hpp"
#include "sim/time.hpp"
#include "util/flags.hpp"

namespace {

using nscc::dsm::PropagationPolicy;
using nscc::dsm::SharedSpace;
using nscc::fault::CorruptionEffect;
using nscc::fault::corruption_effect;
using nscc::fault::Window;
using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sanitize::Level;
using nscc::sanitize::Sanitizer;
using nscc::sanitize::ToleranceRule;
using nscc::sanitize::ToleranceSpec;
using nscc::sanitize::ViolationKind;
using nscc::sim::kMillisecond;
using nscc::sim::kSecond;
using nscc::sim::Time;

MachineConfig fast_config(int ntasks) {
  MachineConfig c;
  c.ntasks = ntasks;
  c.bus.propagation_delay = 0;
  c.bus.frame_overhead_bytes = 0;
  c.send_sw_overhead = 0;
  c.recv_sw_overhead = 0;
  return c;
}

Packet value_of(double x) {
  Packet p;
  p.pack_double(x);
  return p;
}

/// A perfect failure detector over the machine's own task liveness: a
/// writer is dead exactly when its body has returned.
class TaskAliveMembership final : public nscc::rt::Membership {
 public:
  explicit TaskAliveMembership(const VirtualMachine& vm) : vm_(vm) {}
  [[nodiscard]] bool alive(int, int node) const override {
    return vm_.task_alive(node);
  }
  [[nodiscard]] bool in_quorum(int) const override { return true; }
  [[nodiscard]] bool partitioned() const override { return false; }
  [[nodiscard]] bool detecting() const override { return true; }
  void on_link_failure(int, int) override {}

 private:
  const VirtualMachine& vm_;
};

/// Violations of `kind` counted in `hub`'s registry.
std::uint64_t kind_count(const nscc::obs::Hub& hub, ViolationKind kind) {
  return hub.registry().counter_value(
      std::string("sanitize.violations.") +
      nscc::sanitize::violation_name(kind));
}

// ---------------------------------------------------------------------------
// Levels and the tolerance contract
// ---------------------------------------------------------------------------

TEST(SanitizeLevel, NamesRoundTrip) {
  for (const Level level : {Level::kOff, Level::kTrack, Level::kStrict}) {
    const auto back = nscc::sanitize::level_from_name(
        nscc::sanitize::level_name(level));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, level);
  }
  EXPECT_FALSE(nscc::sanitize::level_from_name("paranoid").has_value());
}

TEST(ToleranceSpec, LookupPrecedence) {
  ToleranceSpec spec;
  spec.set_default(ToleranceRule{-1, true, true, false});
  spec.declare_range(100, 200, ToleranceRule{10, true, true, false});
  spec.declare_range(150, 160, ToleranceRule{5, true, true, false});
  spec.declare(155, ToleranceRule{0, false, false, true});

  // Undeclared location: the default.
  EXPECT_EQ(spec.rule_for(99).max_age, -1);
  EXPECT_EQ(spec.rule_for(200).max_age, -1);  // Ranges are half-open.
  // Covered by the outer range only.
  EXPECT_EQ(spec.rule_for(100).max_age, 10);
  EXPECT_EQ(spec.rule_for(199).max_age, 10);
  // The later (inner) range wins where both cover.
  EXPECT_EQ(spec.rule_for(151).max_age, 5);
  // A point declaration beats every range.
  EXPECT_EQ(spec.rule_for(155).max_age, 0);
  EXPECT_FALSE(spec.rule_for(155).tolerate_degraded);
  EXPECT_TRUE(spec.rule_for(155).require_aged);
}

// ---------------------------------------------------------------------------
// Deterministic payload corruption
// ---------------------------------------------------------------------------

TEST(Corruption, EffectIsDeterministicAndBounded) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    for (std::size_t bytes : {1u, 8u, 64u, 1500u}) {
      const CorruptionEffect a = corruption_effect(seed, bytes);
      const CorruptionEffect b = corruption_effect(seed, bytes);
      EXPECT_EQ(a.truncate_to, b.truncate_to);
      EXPECT_EQ(a.bit_flips, b.bit_flips);
      // Damage is never a no-op and always in bounds.
      if (a.truncate_to != static_cast<std::size_t>(-1)) {
        EXPECT_LT(a.truncate_to, bytes);
        EXPECT_TRUE(a.bit_flips.empty());
      } else {
        EXPECT_GE(a.bit_flips.size(), 1u);
        EXPECT_LE(a.bit_flips.size(), 3u);
        for (const std::size_t bit : a.bit_flips) EXPECT_LT(bit, bytes * 8);
      }
    }
  }
  // Seed 0 (the "not corrupted" sentinel) and empty payloads are no-ops.
  EXPECT_EQ(corruption_effect(0, 100).bit_flips.size(), 0u);
  EXPECT_EQ(corruption_effect(7, 0).bit_flips.size(), 0u);
}

TEST(Corruption, DamageChangesTheCrc) {
  Packet p;
  for (int i = 0; i < 16; ++i) p.pack_double(1.25 * i);
  const std::uint32_t clean = p.crc32();
  int damaged = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Packet copy = p;
    const CorruptionEffect effect = corruption_effect(seed, copy.byte_size());
    if (effect.truncate_to != static_cast<std::size_t>(-1)) {
      copy.truncate_to(effect.truncate_to);
    }
    for (const std::size_t bit : effect.bit_flips) copy.flip_bit(bit);
    if (copy.crc32() != clean) ++damaged;
  }
  // CRC32 catches every <=3-bit flip and every truncation at these sizes.
  EXPECT_EQ(damaged, 64);
}

// ---------------------------------------------------------------------------
// Sanitizer unit behaviour (standalone, no machine)
// ---------------------------------------------------------------------------

nscc::sanitize::Options track_options(ToleranceSpec spec) {
  nscc::sanitize::Options opt;
  opt.level = Level::kTrack;
  opt.spec = std::move(spec);
  return opt;
}

TEST(Sanitizer, ChecksumMatchesAnyEntryForTheIteration) {
  nscc::obs::Hub hub;
  ToleranceSpec spec;
  Sanitizer san(track_options(spec), hub);

  // The sampler's rollback path re-publishes iteration 5 with corrected
  // content: both checksums are writer-committed data for that iteration.
  san.record_write(0, 7, 5, 0xAAAA5555u, 16, 10);
  san.record_write(0, 7, 5, 0x1234ABCDu, 16, 20);

  san.audit_read(1, 7, 6, 1, true, false, 5, 0x1234ABCDu, 30);  // Newest.
  san.audit_read(1, 7, 6, 1, true, false, 5, 0xAAAA5555u, 40);  // Superseded.
  EXPECT_EQ(san.violations(), 0u);

  // A payload matching *neither* committed write is corruption.
  san.audit_read(1, 7, 6, 1, true, false, 5, 0xBADC0DEu, 50);
  EXPECT_EQ(kind_count(hub, ViolationKind::kChecksum), 1u);
  ASSERT_EQ(san.recorded().size(), 1u);
  EXPECT_EQ(san.recorded()[0].kind, ViolationKind::kChecksum);
  EXPECT_EQ(san.recorded()[0].loc, 7);
}

TEST(Sanitizer, ShadowLogIsBoundedAndOldReadsCountAsUnverified) {
  nscc::obs::Hub hub;
  nscc::sanitize::Options opt = track_options(ToleranceSpec{});
  opt.shadow_depth = 4;
  Sanitizer san(opt, hub);

  for (int i = 0; i < 10; ++i) {
    san.record_write(0, 3, i, 0x1000u + static_cast<std::uint32_t>(i), 8,
                     i * 10);
  }
  const nscc::obs::Registry& reg = hub.registry();
  EXPECT_EQ(reg.counter_value("sanitize.writes_recorded"), 10u);
  EXPECT_EQ(reg.counter_value("sanitize.shadow_evictions"), 6u);

  // Iteration 2 fell off the bounded log: cannot cross-check, no violation.
  san.audit_read(1, 3, 12, -1, true, false, 2, 0x1002u, 200);
  EXPECT_EQ(reg.counter_value("sanitize.checksum_unverified"), 1u);
  EXPECT_EQ(san.violations(), 0u);
  // Iteration 9 is still shadowed and must match.
  san.audit_read(1, 3, 12, -1, true, false, 9, 0xFFFFu, 210);
  EXPECT_EQ(kind_count(hub, ViolationKind::kChecksum), 1u);
}

TEST(Sanitizer, StalenessAuditedAgainstTightestBound) {
  nscc::obs::Hub hub;
  ToleranceSpec spec;
  spec.declare(5, ToleranceRule{2, true, true, false});
  Sanitizer san(track_options(spec), hub);
  san.record_write(0, 5, 10, 0x1u, 8, 0);

  // Within both the declared age and the contract: clean.
  san.audit_read(1, 5, 11, 4, true, false, 10, 0x1u, 10);
  EXPECT_EQ(san.violations(), 0u);
  // Within the read's declared age (4) but beyond the contract's bound (2):
  // the contract is the tighter limit and the read violates it.
  san.audit_read(1, 5, 13, 4, true, false, 10, 0x1u, 20);
  EXPECT_EQ(kind_count(hub, ViolationKind::kStaleness), 1u);
  ASSERT_EQ(san.recorded().size(), 1u);
  EXPECT_EQ(san.recorded()[0].limit, 2);
}

TEST(Sanitizer, RequireAgedFlagsPlainReads) {
  nscc::obs::Hub hub;
  ToleranceSpec spec;
  spec.declare(9, ToleranceRule{0, true, true, true});
  spec.declare(10, ToleranceRule{0, true, true, false});
  Sanitizer san(track_options(spec), hub);
  san.record_write(0, 9, 0, 0x9u, 8, 0);
  san.record_write(0, 10, 0, 0xAu, 8, 0);

  // A plain (declared_age = -1) read of a require_aged location is itself
  // a staleness violation; the same read of a lenient location is not.
  san.audit_read(1, 9, -1, -1, true, false, 0, 0x9u, 10);
  san.audit_read(1, 10, -1, -1, true, false, 0, 0xAu, 10);
  EXPECT_EQ(kind_count(hub, ViolationKind::kStaleness), 1u);
  EXPECT_EQ(san.violations(), 1u);
}

// ---------------------------------------------------------------------------
// Machine-level: the sanitizer wired through rt + dsm
// ---------------------------------------------------------------------------

/// The ISSUE's purpose-built violation: a degraded read (producer declared
/// dead, freshest local copy served past its bound) flowing into a location
/// whose contract says degraded data must never reach the consumer.  Must
/// be reported deterministically.
TEST(Sanitize, DegradedReadIntoIntolerantLocationIsFlagged) {
  for (int rep = 0; rep < 2; ++rep) {
    MachineConfig cfg = fast_config(2);
    cfg.sanitize.level = Level::kStrict;
    cfg.sanitize.spec.declare(1, ToleranceRule{0, false, true, false});
    VirtualMachine vm(cfg);
    TaskAliveMembership membership(vm);
    vm.set_membership(&membership);

    vm.add_task("writer", [](Task& t) {
      SharedSpace space(t);
      space.declare_written(1, {1});
      space.write(1, 0, value_of(2.5));
      t.compute(kMillisecond);  // Publish iteration 0, then die.
    });
    vm.add_task("reader", [&](Task& t) {
      SharedSpace space(t);
      space.declare_read(1, 0);
      t.compute(5 * kMillisecond);
      // Demands iteration 10 with age 0; the writer is long dead, so the
      // read unblocks degraded with the stale iteration-0 copy.
      const auto& v = space.global_read(1, 10, 0);
      EXPECT_TRUE(v.valid);
      EXPECT_TRUE(v.degraded);
    });
    vm.run();

    ASSERT_FALSE(vm.deadlocked());
    ASSERT_NE(vm.sanitizer(), nullptr);
    EXPECT_EQ(kind_count(vm.obs(), ViolationKind::kDegraded), 1u)
        << "rep " << rep;
    EXPECT_EQ(vm.sanitizer()->violations(), 1u) << "rep " << rep;
    ASSERT_EQ(vm.sanitizer()->recorded().size(), 1u);
    EXPECT_EQ(vm.sanitizer()->recorded()[0].loc, 1);
    EXPECT_EQ(vm.sanitizer()->recorded()[0].reader, 1);
  }
}

/// Satellite regression for the documented dsm::Value corner: a location
/// whose producer dies before ever writing comes back degraded AND !valid.
/// The audit must treat it as the (more fundamental) invalid case.
TEST(Sanitize, DegradedAndInvalidReadIsFlaggedAsInvalid) {
  MachineConfig cfg = fast_config(2);
  cfg.sanitize.level = Level::kTrack;
  cfg.sanitize.spec.declare(4, ToleranceRule{-1, true, false, false});
  VirtualMachine vm(cfg);
  TaskAliveMembership membership(vm);
  vm.set_membership(&membership);

  bool saw_degraded_invalid = false;
  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(4, {1});
    t.compute(kMillisecond);  // Dies without ever writing location 4.
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace space(t);
    space.declare_read(4, 0);
    t.compute(5 * kMillisecond);
    const auto& v = space.global_read(4, 3, 0);
    saw_degraded_invalid = v.degraded && !v.valid;
  });
  vm.run();

  ASSERT_FALSE(vm.deadlocked());
  EXPECT_TRUE(saw_degraded_invalid);
  ASSERT_NE(vm.sanitizer(), nullptr);
  EXPECT_EQ(kind_count(vm.obs(), ViolationKind::kInvalid), 1u);
  EXPECT_EQ(kind_count(vm.obs(), ViolationKind::kDegraded), 0u);
}

TEST(Sanitize, CleanBoundedRunAuditsEverythingAndReportsNothing) {
  MachineConfig cfg = fast_config(2);
  cfg.sanitize.level = Level::kStrict;
  cfg.sanitize.spec.declare(2, ToleranceRule{1, false, false, true});
  VirtualMachine vm(cfg);

  constexpr int kIters = 20;
  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(2, {1});
    for (int i = 0; i < kIters; ++i) {
      space.write(2, i, value_of(static_cast<double>(i)));
      t.compute(kMillisecond);
    }
  });
  vm.add_task("reader", [](Task& t) {
    SharedSpace space(t);
    space.declare_read(2, 0);
    for (int i = 1; i < kIters; ++i) {
      const auto& v = space.global_read(2, i, 1);
      ASSERT_TRUE(v.valid);
      ASSERT_GE(v.iteration, i - 1);
    }
  });
  vm.run();

  ASSERT_FALSE(vm.deadlocked());
  ASSERT_NE(vm.sanitizer(), nullptr);
  const nscc::obs::Registry& reg = vm.obs().registry();
  EXPECT_EQ(reg.counter_value("sanitize.writes_recorded"),
            static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(reg.counter_value("sanitize.reads_audited"),
            static_cast<std::uint64_t>(kIters - 1));
  EXPECT_EQ(vm.sanitizer()->violations(), 0u);
}

TEST(Sanitize, OffMeansNoSanitizerAndNoOverhead) {
  MachineConfig cfg = fast_config(1);
  VirtualMachine vm(cfg);
  EXPECT_EQ(vm.sanitizer(), nullptr);
}

// ---------------------------------------------------------------------------
// CRC-checked corruption behaves exactly as loss
// ---------------------------------------------------------------------------

struct RecoveryOutcome {
  double got = 0.0;
  std::int64_t got_iter = -1;
  Time finished_at = 0;
  std::uint64_t escalations = 0;
  std::uint64_t requests = 0;
  std::uint64_t updates_applied = 0;
  bool deadlocked = true;
  std::uint64_t wire_losses = 0;
  std::uint64_t crc_drops = 0;
};

/// One writer update destroyed in a scheduled window, recovered by the
/// Global_Read starvation watchdog over the reliable demand path.  The
/// window is either an outage (the frame dies on the wire) or a corrupt
/// window (the frame arrives damaged and the CRC check discards it).
RecoveryOutcome run_single_drop_recovery(bool corrupt) {
  MachineConfig cfg = fast_config(2);
  cfg.fault.seed = 1;
  if (corrupt) {
    cfg.fault.corrupt_windows.push_back(Window{0, 2 * kMillisecond});
  } else {
    cfg.fault.outages.push_back(Window{0, 2 * kMillisecond});
  }
  cfg.transport.enabled = true;
  VirtualMachine vm(cfg);

  RecoveryOutcome out;
  vm.add_task("writer", [](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1});
    space.write(1, 5, value_of(6.25));  // Sent inside the window: destroyed.
    t.compute(kSecond);  // Stay alive for the escalated demand.
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy policy;
    policy.read_timeout = 20 * kMillisecond;
    SharedSpace space(t, policy);
    space.declare_read(1, 0);
    const auto& v = space.global_read(1, 5, 0);
    Packet copy = v.data;
    out.got = copy.unpack_double();
    out.got_iter = v.iteration;
    out.finished_at = t.now();
  });
  vm.run();

  const nscc::obs::Registry& reg = vm.obs().registry();
  out.escalations = reg.counter_value("dsm.read_escalations", 1);
  out.requests = reg.counter_value("dsm.requests_sent", 1);
  out.updates_applied = reg.counter_value("dsm.updates_applied", 1);
  out.deadlocked = vm.deadlocked();
  out.wire_losses = vm.fault_injector()->stats().frames_lost;
  out.crc_drops = reg.counter_value("rt.crc_drops");
  return out;
}

/// Satellite acceptance: a bit-flipped frame is dropped by the CRC check,
/// the watchdog demand retransmits it, and every workload-visible metric is
/// byte-identical to the equivalent loss-only schedule.  Only the fault
/// bookkeeping may differ (wire loss vs CRC drop).
TEST(Sanitize, CorruptedFrameRecoversExactlyLikeLostFrame) {
  const RecoveryOutcome loss = run_single_drop_recovery(false);
  const RecoveryOutcome corrupt = run_single_drop_recovery(true);

  ASSERT_FALSE(loss.deadlocked);
  ASSERT_FALSE(corrupt.deadlocked);
  EXPECT_DOUBLE_EQ(loss.got, 6.25);
  EXPECT_DOUBLE_EQ(corrupt.got, loss.got);
  EXPECT_EQ(corrupt.got_iter, loss.got_iter);
  EXPECT_EQ(corrupt.finished_at, loss.finished_at);
  EXPECT_EQ(corrupt.escalations, loss.escalations);
  EXPECT_EQ(corrupt.requests, loss.requests);
  EXPECT_EQ(corrupt.updates_applied, loss.updates_applied);

  // The two runs lose the frame in different layers — and nowhere else.
  EXPECT_GE(loss.wire_losses, 1u);
  EXPECT_EQ(loss.crc_drops, 0u);
  EXPECT_EQ(corrupt.wire_losses, 0u);
  EXPECT_GE(corrupt.crc_drops, 1u);
}

// ---------------------------------------------------------------------------
// The driver's strict gate
// ---------------------------------------------------------------------------

/// A workload whose every run feeds a degraded read into a location its own
/// contract declares degraded-intolerant — the driver's strict mode must
/// turn that into exit code 4, while track mode reports and exits 0.
class ViolatingWorkload final : public nscc::harness::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "test.violating"; }
  [[nodiscard]] std::string description() const override {
    return "degraded read into a degraded-intolerant location";
  }
  [[nodiscard]] nscc::harness::RunStats reference(
      const nscc::harness::RunConfig&) const override {
    return {};
  }
  [[nodiscard]] nscc::sanitize::ToleranceSpec tolerance_spec(
      const nscc::harness::RunConfig&) const override {
    nscc::sanitize::ToleranceSpec spec;
    spec.declare(1, ToleranceRule{0, false, true, false});
    return spec;
  }
  nscc::harness::RunStats run(const nscc::harness::RunConfig&,
                              const MachineConfig& machine) override {
    MachineConfig cfg = machine;
    cfg.ntasks = 2;
    VirtualMachine vm(cfg);
    TaskAliveMembership membership(vm);
    vm.set_membership(&membership);
    vm.add_task("writer", [](Task& t) {
      SharedSpace space(t);
      space.declare_written(1, {1});
      space.write(1, 0, value_of(1.0));
      t.compute(kMillisecond);
    });
    vm.add_task("reader", [&](Task& t) {
      SharedSpace space(t);
      space.declare_read(1, 0);
      t.compute(5 * kMillisecond);
      (void)space.global_read(1, 10, 0);
    });
    vm.run();
    nscc::harness::RunStats stats;
    stats.completion_time = vm.engine().now();
    stats.deadlocked = vm.deadlocked();
    if (vm.sanitizer() != nullptr) {
      stats.sanitize_violations = vm.sanitizer()->violations();
    }
    return stats;
  }
};

int drive_violating(const char* sanitize_flag) {
  static const bool registered = nscc::harness::Registry::global().add(
      std::make_unique<ViolatingWorkload>());
  (void)registered;
  nscc::harness::DriveOptions options;
  options.workload = "test.violating";
  options.flag_defaults = {{"variants", "partial"}};
  std::string flag = sanitize_flag;
  const char* argv[] = {"test", flag.c_str()};
  return nscc::harness::drive(2, const_cast<char**>(argv), options);
}

TEST(Driver, StrictTurnsContractViolationsIntoExitFour) {
  EXPECT_EQ(drive_violating("--sanitize=strict"), 4);
  EXPECT_EQ(drive_violating("--sanitize=track"), 0);
  EXPECT_EQ(drive_violating("--sanitize=off"), 0);
}

// ---------------------------------------------------------------------------
// The --corrupt-rate flag
// ---------------------------------------------------------------------------

TEST(FaultFlags, CorruptRateReachesThePlan) {
  nscc::util::Flags flags;
  nscc::fault::add_flags(flags);
  const char* argv[] = {"prog", "--corrupt-rate=0.25"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  const nscc::fault::FaultPlan plan = nscc::fault::plan_from_flags(flags);
  EXPECT_DOUBLE_EQ(plan.link.corrupt_prob, 0.25);
  EXPECT_FALSE(plan.empty());
}

}  // namespace
