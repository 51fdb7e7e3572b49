// Tests for the non-strict coherence core: declaration rules, write
// propagation, plain (slow-memory) reads, the Global_Read staleness
// guarantee and its blocking/flow-control behaviour, coalescing policy,
// and the DSM statistics the experiments report.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsm/shared_space.hpp"
#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sim/time.hpp"

namespace {

using nscc::dsm::Iteration;
using nscc::dsm::LocationId;
using nscc::dsm::Mode;
using nscc::dsm::PropagationPolicy;
using nscc::dsm::SharedSpace;
using nscc::rt::MachineConfig;
using nscc::rt::Packet;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sim::Time;
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

TEST(ModeName, AllModesNamed) {
  EXPECT_STREQ(nscc::dsm::mode_name(Mode::kSynchronous), "sync");
  EXPECT_STREQ(nscc::dsm::mode_name(Mode::kAsynchronous), "async");
  EXPECT_STREQ(nscc::dsm::mode_name(Mode::kPartialAsync), "partial");
}

TEST(SharedSpace, WritePropagatesToReader) {
  VirtualMachine vm(fast_config(2));
  double got = 0.0;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(7, {1});
    dsm.write(7, 0, value_of(3.5));
    t.compute(kMillisecond);  // Let the update drain before we exit.
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(7, 0);
    const auto& v = dsm.global_read(7, 0, 0);
    got = as_double(v);
    EXPECT_EQ(v.iteration, 0);
    EXPECT_TRUE(v.valid);
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_DOUBLE_EQ(got, 3.5);
}

TEST(SharedSpace, PlainReadReturnsStaleWithoutBlocking) {
  VirtualMachine vm(fast_config(2));
  std::vector<Iteration> seen;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    for (Iteration i = 0; i < 5; ++i) {
      t.compute(10 * kMillisecond);
      dsm.write(1, i, value_of(static_cast<double>(i)));
    }
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    // Before anything arrives, the read does not block and is invalid.
    const auto& v0 = dsm.read(1);
    EXPECT_FALSE(v0.valid);
    seen.push_back(v0.iteration);
    t.compute(25 * kMillisecond);
    const auto& v1 = dsm.read(1);
    EXPECT_TRUE(v1.valid);
    seen.push_back(v1.iteration);
  });
  vm.run();
  EXPECT_EQ(seen[0], -1);
  // After 25ms, writes for iterations 0 and 1 (at 10/20ms) have arrived.
  EXPECT_EQ(seen[1], 1);
}

TEST(SharedSpace, GlobalReadSatisfiedLocallyDoesNotBlock) {
  VirtualMachine vm(fast_config(2));
  Time read_duration = -1;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    dsm.write(1, 10, value_of(1.0));
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    t.compute(5 * kMillisecond);  // The update is already queued locally.
    const Time before = t.now();
    const auto& v = dsm.global_read(1, 12, 2);  // Needs iteration >= 10.
    read_duration = t.now() - before;
    EXPECT_EQ(v.iteration, 10);
  });
  vm.run();
  EXPECT_EQ(read_duration, 0);
}

TEST(SharedSpace, GlobalReadBlocksUntilFreshEnough) {
  VirtualMachine vm(fast_config(2));
  Time unblocked_at = -1;
  Iteration got_iter = -1;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    for (Iteration i = 0; i <= 3; ++i) {
      t.compute(10 * kMillisecond);
      dsm.write(1, i, value_of(static_cast<double>(i)));
    }
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    // Needs iteration >= 3, which is written only at t=40ms.
    const auto& v = dsm.global_read(1, 5, 2);
    unblocked_at = t.now();
    got_iter = v.iteration;
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(got_iter, 3);
  EXPECT_GE(unblocked_at, 40 * kMillisecond);
}

TEST(SharedSpace, GlobalReadAgeZeroDemandsCurrentIteration) {
  VirtualMachine vm(fast_config(2));
  std::vector<Iteration> iters;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    for (Iteration i = 0; i < 3; ++i) {
      t.compute(10 * kMillisecond);
      dsm.write(1, i, value_of(0.0));
    }
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    for (Iteration i = 0; i < 3; ++i) {
      iters.push_back(dsm.global_read(1, i, 0).iteration);
    }
  });
  vm.run();
  ASSERT_EQ(iters.size(), 3u);
  for (Iteration i = 0; i < 3; ++i) EXPECT_GE(iters[static_cast<std::size_t>(i)], i);
}

TEST(SharedSpace, GlobalReadImplementsReceiverFlowControl) {
  // A fast reader iterating with Global_Read(age) can never run more than
  // `age` iterations ahead of the writer - the paper's partial asynchrony.
  VirtualMachine vm(fast_config(2));
  Iteration max_lead = 0;
  constexpr Iteration kAge = 3;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    for (Iteration i = 0; i < 20; ++i) {
      t.compute(10 * kMillisecond);  // Slow producer.
      dsm.write(1, i, value_of(0.0));
    }
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    for (Iteration i = 0; i < 20; ++i) {
      const auto& v = dsm.global_read(1, i, kAge);
      max_lead = std::max(max_lead, i - v.iteration);
      t.compute(kMillisecond);  // Fast consumer.
    }
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_LE(max_lead, kAge);
}

TEST(SharedSpace, StaleUpdatesAreDropped) {
  // Out-of-order application: a newer value must never be overwritten by an
  // older in-flight one (here forced via a local write racing the network).
  VirtualMachine vm(fast_config(2));
  std::uint64_t stale_drops = 0;
  Iteration final_iter = -1;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    dsm.write(1, 0, value_of(0.0));
    dsm.write(1, 5, value_of(5.0));
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    const auto& v = dsm.global_read(1, 5, 0);
    final_iter = v.iteration;
    // Now drain anything left and check the old iteration-0 update (which
    // arrived first, in order) did not regress the copy.
    dsm.poll();
    EXPECT_EQ(dsm.local_iteration(1), 5);
    stale_drops = dsm.stats().updates_stale_dropped;
  });
  vm.run();
  EXPECT_EQ(final_iter, 5);
  // FIFO bus: iteration 0 arrives first and is applied, then 5. No drops.
  EXPECT_EQ(stale_drops, 0u);
}

TEST(SharedSpace, UndeclaredAccessThrows) {
  VirtualMachine vm(fast_config(1));
  vm.add_task("solo", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {0});
    EXPECT_THROW(dsm.write(2, 0, Packet{}), std::logic_error);
    EXPECT_THROW((void)dsm.read(3), std::logic_error);
    EXPECT_THROW((void)dsm.global_read(3, 0, 0), std::logic_error);
    EXPECT_THROW(dsm.declare_written(1, {0}), std::logic_error);
    EXPECT_THROW(dsm.declare_read(1, 0), std::logic_error);
    // A read location keeps its role: no writes, no second declaration.
    dsm.declare_read(5, 0);
    EXPECT_THROW(dsm.write(5, 0, Packet{}), std::logic_error);
    EXPECT_THROW(dsm.declare_written(5, {0}), std::logic_error);
  });
  vm.run();
}

TEST(SharedSpace, WriterReadsOwnCopyWithoutMessages) {
  VirtualMachine vm(fast_config(1));
  vm.add_task("solo", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {0});
    dsm.write(1, 4, value_of(2.25));
    const auto& v = dsm.read(1);
    EXPECT_EQ(v.iteration, 4);
    EXPECT_DOUBLE_EQ(as_double(v), 2.25);
  });
  vm.run();
  EXPECT_EQ(vm.bus().stats().frames_sent, 0u);
}

TEST(SharedSpace, RepeatedReadsRewindPayload) {
  VirtualMachine vm(fast_config(1));
  vm.add_task("solo", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {0});
    dsm.write(1, 0, value_of(7.0));
    for (int i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(as_double(dsm.read(1)), 7.0);
    }
  });
  vm.run();
}

TEST(SharedSpace, CoalescingMergesBurstsOfWrites) {
  auto cfg = fast_config(2);
  // Slow bus so several writes land while the first update is in flight:
  // 8-byte payload + headers take ~multiple ms per update.
  cfg.bus.bandwidth_bps = 100e3;
  PropagationPolicy coalesce{.coalesce = true};
  VirtualMachine vm(cfg);
  std::uint64_t sent = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t writes = 0;
  Iteration reader_final = -1;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace dsm(t, coalesce);
    dsm.declare_written(1, {1});
    for (Iteration i = 0; i < 50; ++i) {
      dsm.write(1, i, value_of(static_cast<double>(i)));
      t.compute(100 * nscc::sim::kMicrosecond);
    }
    t.compute(200 * kMillisecond);  // Let deliveries drain.
    sent = dsm.stats().updates_sent;
    coalesced = dsm.stats().updates_coalesced;
    writes = dsm.stats().writes;
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    // Wait for the last iteration to arrive.
    const auto& v = dsm.global_read(1, 49, 0);
    reader_final = v.iteration;
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(writes, 50u);
  EXPECT_LT(sent, 50u);          // Bursts merged.
  EXPECT_GT(coalesced, 0u);      // Some intermediate values skipped.
  EXPECT_EQ(reader_final, 49);   // Latest value still arrives.
}

TEST(SharedSpace, WithoutCoalescingEveryWriteIsSent) {
  auto cfg = fast_config(2);
  cfg.bus.bandwidth_bps = 100e3;
  VirtualMachine vm(cfg);
  std::uint64_t sent = 0;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    for (Iteration i = 0; i < 20; ++i) {
      dsm.write(1, i, value_of(0.0));
    }
    sent = dsm.stats().updates_sent;
  });
  vm.add_task("reader", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    (void)dsm.global_read(1, 19, 0);
  });
  vm.run();
  EXPECT_EQ(sent, 20u);
}

TEST(SharedSpace, MultipleReadersAllReceive) {
  VirtualMachine vm(fast_config(4));
  std::vector<double> got(4, 0.0);
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1, 2, 3});
    dsm.write(1, 0, value_of(6.5));
    t.compute(10 * kMillisecond);
  });
  for (int i = 1; i < 4; ++i) {
    vm.add_task("reader" + std::to_string(i), [&got, i](Task& t) {
      SharedSpace dsm(t);
      dsm.declare_read(1, 0);
      got[static_cast<std::size_t>(i)] = as_double(dsm.global_read(1, 0, 0));
    });
  }
  vm.run();
  for (int i = 1; i < 4; ++i) EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)], 6.5);
}

TEST(SharedSpace, MultipleLocationsAreIndependent) {
  VirtualMachine vm(fast_config(3));
  double a = 0.0;
  double b = 0.0;
  vm.add_task("hub", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(10, 1);
    dsm.declare_read(20, 2);
    a = as_double(dsm.global_read(10, 0, 0));
    b = as_double(dsm.global_read(20, 0, 0));
  });
  vm.add_task("w1", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(10, {0});
    t.compute(5 * kMillisecond);
    dsm.write(10, 0, value_of(1.0));
    t.compute(5 * kMillisecond);
  });
  vm.add_task("w2", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(20, {0});
    t.compute(2 * kMillisecond);
    dsm.write(20, 0, value_of(2.0));
    t.compute(5 * kMillisecond);
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 2.0);
}

TEST(SharedSpace, StatsTrackBlocksAndStaleness) {
  VirtualMachine vm(fast_config(2));
  nscc::dsm::DsmStats snap;
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    t.compute(10 * kMillisecond);
    dsm.write(1, 0, value_of(0.0));
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    (void)dsm.global_read(1, 0, 0);  // Blocks ~10ms.
    (void)dsm.global_read(1, 2, 5);  // Satisfied, staleness 2.
    snap = dsm.stats();
  });
  vm.run();
  EXPECT_EQ(snap.global_reads, 2u);
  EXPECT_EQ(snap.global_read_blocks, 1u);
  EXPECT_GE(snap.global_read_block_time, 10 * kMillisecond);
  ASSERT_NE(snap.staleness_on_read, nullptr);
  EXPECT_EQ(snap.staleness_on_read->count(), 2u);
  EXPECT_DOUBLE_EQ(snap.staleness_on_read->max(), 2.0);
  // DsmStats reads from the obs registry, so the machine-wide histogram is
  // the same accounting and can never disagree with the per-task view.
  const nscc::obs::Histogram& machine =
      vm.obs().registry().histogram("dsm.staleness");
  EXPECT_EQ(machine.count(), snap.staleness_on_read->count());
  EXPECT_DOUBLE_EQ(machine.max(), snap.staleness_on_read->max());
  EXPECT_DOUBLE_EQ(machine.mean(), snap.staleness_on_read->mean());
}

TEST(SharedSpace, RequestImplCountsDemandTraffic) {
  // kRequest path counters: a reader that blocks issues a demand
  // (requests_sent); the writer sees it as a starvation hint
  // (hints_received) and, if it already holds a fresh-enough copy when it
  // drains the request, resends it (request_replies).
  //
  // The writer stores iteration 0 immediately, so when the reader's demand
  // (need = 0) is drained during the writer's later poll(), the copy
  // qualifies and a demand-driven resend goes out.  Default (non-zeroed)
  // network costs keep the update in flight at t=0, so the reader's
  // Global_Read genuinely blocks and sends the request.
  MachineConfig cfg;
  cfg.ntasks = 2;
  VirtualMachine vm(cfg);
  nscc::dsm::DsmStats writer_stats;
  nscc::dsm::DsmStats reader_stats;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(7, {1});
    dsm.write(7, 0, value_of(1.0));
    t.compute(100 * kMillisecond);  // Request arrives while we sleep...
    dsm.poll();                     // ...and is served here.
    writer_stats = dsm.stats();
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t, PropagationPolicy{
                           .coalesce = false,
                           .read_impl = nscc::dsm::GlobalReadImpl::kRequest});
    dsm.declare_read(7, 0);
    (void)dsm.global_read(7, 0, 0);
    t.compute(200 * kMillisecond);  // Outlive the writer's reply.
    dsm.poll();                     // Absorb the (stale) demand resend.
    reader_stats = dsm.stats();
  });
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  EXPECT_EQ(reader_stats.requests_sent, 1u);
  EXPECT_EQ(reader_stats.global_read_blocks, 1u);
  EXPECT_EQ(writer_stats.hints_received, 1u);
  EXPECT_EQ(writer_stats.request_replies, 1u);
  // The resend carries iteration 0 again; the reader already has it.
  EXPECT_EQ(reader_stats.updates_stale_dropped, 1u);
}

TEST(SharedSpace, WaitImplSendsNoRequests) {
  MachineConfig cfg;
  cfg.ntasks = 2;
  VirtualMachine vm(cfg);
  nscc::dsm::DsmStats writer_stats;
  nscc::dsm::DsmStats reader_stats;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(7, {1});
    dsm.write(7, 0, value_of(1.0));
    t.compute(100 * kMillisecond);
    dsm.poll();
    writer_stats = dsm.stats();
  });
  vm.add_task("reader", [&](Task& t) {
    SharedSpace dsm(t);  // Default policy: GlobalReadImpl::kWait.
    dsm.declare_read(7, 0);
    (void)dsm.global_read(7, 0, 0);
    reader_stats = dsm.stats();
  });
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  EXPECT_EQ(reader_stats.global_read_blocks, 1u);
  EXPECT_EQ(reader_stats.requests_sent, 0u);
  EXPECT_EQ(writer_stats.hints_received, 0u);
  EXPECT_EQ(writer_stats.request_replies, 0u);
}

TEST(SharedSpace, GlobalReadUnsatisfiableDeadlocksDetectably) {
  VirtualMachine vm(fast_config(2));
  vm.add_task("writer", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_written(1, {1});
    dsm.write(1, 0, value_of(0.0));  // Writer stops at iteration 0.
    t.compute(kMillisecond);
  });
  vm.add_task("reader", [](Task& t) {
    SharedSpace dsm(t);
    dsm.declare_read(1, 0);
    (void)dsm.global_read(1, 100, 0);  // Can never be satisfied.
  });
  vm.run();
  EXPECT_TRUE(vm.deadlocked());
}

// ---- One frame per version, shared by every reader -------------------------

/// The value written at `iteration`: 64 doubles no other iteration packs.
std::vector<double> block_at(Iteration iteration) {
  std::vector<double> v(64);
  for (std::size_t k = 0; k < v.size(); ++k) {
    v[k] = static_cast<double>(iteration) * 1000.0 + static_cast<double>(k);
  }
  return v;
}

std::vector<double> block_of(const SharedSpace::Value& v) {
  Packet copy = v.data;
  return copy.unpack_double_vec();
}

TEST(SharedFrame, DamagedDeliveriesNeverReachAnotherCopy) {
  // One writer, three readers, reliable updates over a link that damages
  // a third of its frames.  Every reader's delivery is a share of the
  // writer's frame until the damage copies it, so a flip or a cut that
  // landed in place would show up in another reader's stored value, in
  // the writer's own copy, or in the bytes a retransmit resends: every
  // value seen here must be exactly the one packed at its iteration.
  MachineConfig config = fast_config(4);
  config.fault.seed = 0xA11A5;
  config.fault.link.corrupt_prob = 0.3;
  config.transport.enabled = true;
  config.transport.ack_timeout = 5 * kMillisecond;
  VirtualMachine vm(config);
  PropagationPolicy policy;
  policy.reliable_updates = true;
  constexpr Iteration kVersions = 30;
  int checked = 0;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace space(t, policy);
    space.declare_written(1, {1, 2, 3});
    for (Iteration i = 0; i < kVersions; ++i) {
      Packet p;
      p.pack_double_vec(block_at(i));
      space.write(1, i, std::move(p));
      t.compute(20 * kMillisecond);  // Deliveries, damage and resends.
      EXPECT_EQ(block_of(space.read(1)), block_at(i)) << "writer, " << i;
      ++checked;
    }
  });
  for (int r = 1; r <= 3; ++r) {
    vm.add_task("reader", [&, r](Task& t) {
      SharedSpace space(t, policy);
      space.declare_read(1, 0);
      for (Iteration i = 0; i < kVersions; ++i) {
        const SharedSpace::Value& v = space.global_read(1, i, 0);
        EXPECT_EQ(block_of(v), block_at(v.iteration)) << "reader " << r;
        ++checked;
        t.compute(7 * kMillisecond);
      }
      EXPECT_EQ(space.stats().integrity_dropped, 0u);
    });
  }
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  EXPECT_EQ(checked, 4 * kVersions);
  EXPECT_GT(vm.transport_stats().crc_drops, 0u) << "frames were damaged";
  EXPECT_GT(vm.transport_stats().retransmissions, 0u) << "and resent";
}

TEST(SharedFrame, LossFreeFanOutSharesTheWritersFrame) {
  // On a perfect network the three readers' stored copies are windows onto
  // the one buffer the writer packed its frame into: zero copies past the
  // frame, checked rather than assumed.
  VirtualMachine vm(fast_config(4));
  Packet writers_copy;
  std::vector<Packet> readers_copies;
  vm.add_task("writer", [&](Task& t) {
    SharedSpace space(t);
    space.declare_written(1, {1, 2, 3});
    for (Iteration i = 0; i < 3; ++i) {
      Packet p;
      p.pack_double_vec(block_at(i));
      space.write(1, i, std::move(p));
      t.compute(10 * kMillisecond);
    }
    writers_copy = space.read(1).data;
  });
  for (int r = 1; r <= 3; ++r) {
    vm.add_task("reader", [&](Task& t) {
      SharedSpace space(t);
      space.declare_read(1, 0);
      const SharedSpace::Value& v = space.global_read(1, 2, 0);
      EXPECT_EQ(block_of(v), block_at(2));
      readers_copies.push_back(v.data);
      t.compute(50 * kMillisecond);  // Outlive the writer's capture.
    });
  }
  vm.run();
  ASSERT_FALSE(vm.deadlocked());
  ASSERT_EQ(readers_copies.size(), 3u);
  Packet standalone;
  standalone.pack_double_vec(block_at(2));
  EXPECT_EQ(writers_copy.crc32(), standalone.crc32());
  for (const Packet& copy : readers_copies) {
    EXPECT_TRUE(copy.shares_buffer_with(writers_copy));
    EXPECT_EQ(copy.byte_size(), standalone.byte_size());
    EXPECT_EQ(copy.crc32(), standalone.crc32());
  }
}

}  // namespace
