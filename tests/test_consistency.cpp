// Tests for the pluggable consistency-model layer: the registry, each
// built-in model's admission/propagation/ordering semantics in isolation,
// and the end-to-end behaviours (release-acquire parking, regional fences,
// eventual non-blocking) on a live SharedSpace.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "dsm/consistency.hpp"
#include "dsm/shared_space.hpp"
#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sim/time.hpp"

namespace {

using nscc::dsm::consistency_model_names;
using nscc::dsm::make_consistency_model;
using nscc::dsm::CopyMeta;
using nscc::dsm::Iteration;
using nscc::dsm::PropagationPolicy;
using nscc::dsm::SharedSpace;
using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sim::kMillisecond;

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

double as_double(const SharedSpace::Value& v) {
  Packet copy = v.data;
  return copy.unpack_double();
}

CopyMeta copy_at(Iteration iter) {
  CopyMeta m;
  m.iteration = iter;
  m.valid = true;
  return m;
}

// ---------------------------------------------------------------------------
// The closed set of built-in models
// ---------------------------------------------------------------------------

TEST(ConsistencyModels, BuiltInsInTableOrder) {
  const auto names = consistency_model_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "nonstrict");
  EXPECT_EQ(names[1], "regional");
  EXPECT_EQ(names[2], "release-acquire");
  EXPECT_EQ(names[3], "eventual");
  for (const auto& name : names) {
    auto model = make_consistency_model(name);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
  }
}

TEST(ConsistencyModels, UnknownNameThrows) {
  EXPECT_THROW((void)make_consistency_model("strict"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// nonstrict: the paper's predicate, verbatim
// ---------------------------------------------------------------------------

TEST(NonStrictModel, AdmitMatchesLegacyPredicate) {
  auto m = make_consistency_model("nonstrict");
  // Invalid copies never admit, whatever the bound.
  EXPECT_FALSE(m->admit(1, 0, 100, CopyMeta{}));
  // valid && iteration >= curr_iter - age.
  EXPECT_TRUE(m->admit(1, 10, 0, copy_at(10)));
  EXPECT_FALSE(m->admit(1, 10, 0, copy_at(9)));
  EXPECT_TRUE(m->admit(1, 10, 3, copy_at(7)));
  EXPECT_FALSE(m->admit(1, 10, 3, copy_at(6)));
  // Defaults: no parking, no stamps, no policy reshaping.
  EXPECT_TRUE(m->visible_on_arrival());
  EXPECT_FALSE(m->stamps_updates());
  PropagationPolicy p;
  p.coalesce = true;
  m->shape(p);
  EXPECT_TRUE(p.coalesce);
}

// ---------------------------------------------------------------------------
// regional: one stale member holds up the whole region
// ---------------------------------------------------------------------------

TEST(RegionalModel, StaleMemberBlocksWholeRegion) {
  auto m = make_consistency_model("regional");
  // Location 1 fresh, location 2 stale: reading 2 first registers it.
  EXPECT_FALSE(m->admit(2, 10, 2, copy_at(5)));  // 5 < 10-2: per-read fail.
  // Location 1 satisfies its own bound (9 >= 8) but member 2 does not, so
  // the region fence refuses the read of 1 too.
  EXPECT_FALSE(m->admit(1, 10, 2, copy_at(9)));
  // After 2 catches up, both admit and the fence opens for iteration 10.
  m->note_copy(2, copy_at(9));
  EXPECT_TRUE(m->admit(1, 10, 2, copy_at(9)));
  EXPECT_TRUE(m->admit(2, 10, 2, copy_at(9)));
}

TEST(RegionalModel, RegionFenceRequiresEveryMemberFresh) {
  auto m = make_consistency_model("regional");
  // Register both members fresh at iteration 0 (fence opens for iter 1).
  EXPECT_TRUE(m->admit(1, 1, 1, copy_at(0)));
  EXPECT_TRUE(m->admit(2, 1, 1, copy_at(0)));
  // Iteration 5, age 1: location 1 is fresh enough per-read, but member 2
  // is stuck at 0 — the region fence refuses until 2 catches up too.
  EXPECT_FALSE(m->admit(1, 5, 1, copy_at(5)));
  m->note_copy(2, copy_at(4));
  EXPECT_TRUE(m->admit(1, 5, 1, copy_at(5)));
  // The fence is now open for iteration 5: member 2 admits without
  // re-scanning even though the scan would also pass.
  EXPECT_TRUE(m->admit(2, 5, 1, copy_at(4)));
}

TEST(RegionalModel, AgeZeroDegeneratesToPerReadRule) {
  auto m = make_consistency_model("regional");
  // Seed a permanently-stale second member.
  EXPECT_FALSE(m->admit(2, 10, 0, copy_at(0)));
  // A whole-region fence would now deadlock mutually-reading peers at
  // age 0; the per-read rule must decide alone.
  EXPECT_TRUE(m->admit(1, 10, 0, copy_at(10)));
}

// ---------------------------------------------------------------------------
// release-acquire: parking and release-order stamps
// ---------------------------------------------------------------------------

TEST(ReleaseAcquireModel, StampsMonotoneAndOrderChecked) {
  auto m = make_consistency_model("release-acquire");
  EXPECT_FALSE(m->visible_on_arrival());
  EXPECT_TRUE(m->stamps_updates());
  EXPECT_EQ(m->next_stamp(), 1u);
  EXPECT_EQ(m->next_stamp(), 2u);
  EXPECT_TRUE(m->note_stamp(0, 1));
  EXPECT_TRUE(m->note_stamp(0, 3));
  EXPECT_FALSE(m->note_stamp(0, 2));  // Behind writer 0's last stamp.
  EXPECT_TRUE(m->note_stamp(1, 1));   // Independent per-writer sequences.
}

TEST(ReleaseAcquireModel, UpdatesInvisibleUntilAcquire) {
  VirtualMachine vm(fast_config(2));
  std::uint64_t parked = 0;
  std::uint64_t flushed = 0;
  double before = 0.0;
  double after = 0.0;
  vm.add_task("writer", [](Task& t) {
    PropagationPolicy p;
    p.consistency = "release-acquire";
    SharedSpace dsm(t, p);
    dsm.declare_written(7, {1});
    dsm.write(7, 0, value_of(1.0));
    t.compute(kMillisecond);
    dsm.write(7, 1, value_of(2.0));
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy p;
    p.consistency = "release-acquire";
    SharedSpace dsm(t, p);
    dsm.declare_read(7, 0);
    // Let both updates arrive while we are between acquire points.
    t.compute(4 * kMillisecond);
    dsm.poll();  // Drains the mailbox into the parked log — NOT an acquire.
    before = dsm.stats().updates_applied > 0 ? 1.0 : 0.0;
    parked = dsm.stats().updates_parked;
    const auto& v = dsm.read(7);  // Acquire point: parked updates publish.
    after = as_double(v);
    flushed = dsm.stats().updates_flushed;
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(before, 0.0);  // Nothing applied before the acquire.
  EXPECT_EQ(parked, 2u);
  EXPECT_EQ(flushed, 2u);
  EXPECT_DOUBLE_EQ(after, 2.0);  // Newest parked value wins at the acquire.
}

TEST(ReleaseAcquireModel, BlockedGlobalReadStillCompletes) {
  VirtualMachine vm(fast_config(2));
  Iteration got = -1;
  vm.add_task("writer", [](Task& t) {
    PropagationPolicy p;
    p.consistency = "release-acquire";
    SharedSpace dsm(t, p);
    dsm.declare_written(3, {1});
    for (Iteration i = 0; i < 4; ++i) {
      dsm.write(3, i, value_of(static_cast<double>(i)));
      t.compute(kMillisecond);
    }
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy p;
    p.consistency = "release-acquire";
    SharedSpace dsm(t, p);
    dsm.declare_read(3, 0);
    // A blocked Global_Read is itself an acquire: arrivals during the wait
    // apply directly so the bound can ever be met.
    const auto& v = dsm.global_read(3, 3, 0);
    got = v.iteration;
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(got, 3);
}

// ---------------------------------------------------------------------------
// eventual: never blocks past first validity
// ---------------------------------------------------------------------------

TEST(EventualModel, AdmitsAnyValidCopyAndShapesPolicy) {
  auto m = make_consistency_model("eventual");
  EXPECT_FALSE(m->admit(1, 100, 0, CopyMeta{}));  // Still needs first value.
  EXPECT_TRUE(m->admit(1, 100, 0, copy_at(0)));   // However stale.
  PropagationPolicy p;
  p.reliable_updates = true;
  m->shape(p);
  EXPECT_TRUE(p.coalesce);
  EXPECT_FALSE(p.reliable_updates);
}

TEST(EventualModel, GlobalReadDoesNotBlockOnStaleness) {
  VirtualMachine vm(fast_config(2));
  std::uint64_t blocks = 0;
  bool valid = false;
  vm.add_task("writer", [](Task& t) {
    PropagationPolicy p;
    p.consistency = "eventual";
    SharedSpace dsm(t, p);
    dsm.declare_written(5, {1});
    dsm.write(5, 0, value_of(42.0));
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [&](Task& t) {
    PropagationPolicy p;
    p.consistency = "eventual";
    SharedSpace dsm(t, p);
    dsm.declare_read(5, 0);
    t.compute(2 * kMillisecond);  // Let the first (and only) update land.
    // Demands iteration 50 under nonstrict; eventual serves iteration 0.
    const auto& v = dsm.global_read(5, 50, 0);
    valid = v.valid;
    blocks = dsm.stats().global_read_blocks;
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_TRUE(valid);
  EXPECT_EQ(blocks, 0u);
}

// ---------------------------------------------------------------------------
// Cross-model matrix: the same producer/consumer program completes and
// delivers a valid value under every built-in model.
// ---------------------------------------------------------------------------

TEST(ConsistencyMatrix, EveryModelCompletesProducerConsumer) {
  for (const auto& name : consistency_model_names()) {
    VirtualMachine vm(fast_config(2));
    double got = 0.0;
    vm.add_task("writer", [&](Task& t) {
      PropagationPolicy p;
      p.consistency = name;
      SharedSpace dsm(t, p);
      dsm.declare_written(9, {1});
      for (Iteration i = 0; i <= 2; ++i) {
        dsm.write(9, i, value_of(10.0 + static_cast<double>(i)));
        t.compute(kMillisecond);
      }
    });
    vm.add_task("reader", [&](Task& t) {
      PropagationPolicy p;
      p.consistency = name;
      SharedSpace dsm(t, p);
      dsm.declare_read(9, 0);
      const auto& v = dsm.global_read(9, 2, 2);
      got = as_double(v);
    });
    vm.run();
    EXPECT_FALSE(vm.deadlocked()) << name;
    EXPECT_GE(got, 10.0) << name;
  }
}

// The default model is byte-identical to a policy that never mentions
// consistency: same stats, same values, same timings.
TEST(ConsistencyMatrix, NonstrictIsByteIdenticalToDefault) {
  auto run = [](const char* model, nscc::dsm::DsmStats& out,
                nscc::sim::Time& end) {
    VirtualMachine vm(fast_config(2));
    vm.add_task("writer", [&](Task& t) {
      PropagationPolicy p;
      if (model != nullptr) p.consistency = model;
      SharedSpace dsm(t, p);
      dsm.declare_written(4, {1});
      for (Iteration i = 0; i < 8; ++i) {
        dsm.write(4, i, value_of(static_cast<double>(i)));
        t.compute(kMillisecond);
      }
    });
    vm.add_task("reader", [&](Task& t) {
      PropagationPolicy p;
      if (model != nullptr) p.consistency = model;
      SharedSpace dsm(t, p);
      dsm.declare_read(4, 0);
      for (Iteration i = 0; i < 8; i += 2) {
        (void)dsm.global_read(4, i, 1);
        t.compute(kMillisecond / 2);
      }
      out = dsm.stats();
      end = t.now();
    });
    vm.run();
    EXPECT_FALSE(vm.deadlocked());
  };
  nscc::dsm::DsmStats a;
  nscc::dsm::DsmStats b;
  nscc::sim::Time end_a = 0;
  nscc::sim::Time end_b = 0;
  run(nullptr, a, end_a);
  run("nonstrict", b, end_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(a.global_reads, b.global_reads);
  EXPECT_EQ(a.global_read_blocks, b.global_read_blocks);
  EXPECT_EQ(a.global_read_block_time, b.global_read_block_time);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.updates_parked, 0u);
  EXPECT_EQ(b.updates_parked, 0u);
}

}  // namespace
