// Tests for the PVM-like runtime: packet round-trips, send/recv semantics,
// tag matching, blocking behaviour and timing, barrier correctness, warp
// instrumentation, broadcast, and per-task statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sim/time.hpp"

namespace {

using nscc::rt::kAnyTag;
using nscc::rt::MachineConfig;
using nscc::rt::Message;
using nscc::rt::Packet;
using nscc::rt::PacketPool;
using nscc::rt::Task;
using nscc::rt::VirtualMachine;
using nscc::sim::Time;
using nscc::sim::kMillisecond;
using nscc::sim::kSecond;

MachineConfig fast_config(int ntasks) {
  MachineConfig c;
  c.ntasks = ntasks;
  c.bus.propagation_delay = 0;
  c.bus.frame_overhead_bytes = 0;
  c.send_sw_overhead = 0;
  c.recv_sw_overhead = 0;
  return c;
}

TEST(Packet, RoundTripsAllTypes) {
  Packet p;
  p.pack_u8(7)
      .pack_i32(-5)
      .pack_u32(123u)
      .pack_i64(-1234567890123LL)
      .pack_u64(987654321ULL)
      .pack_double(3.25)
      .pack_string("hello")
      .pack_u64_vec({1, 2, 3})
      .pack_double_vec({0.5, -0.5});
  EXPECT_EQ(p.unpack_u8(), 7);
  EXPECT_EQ(p.unpack_i32(), -5);
  EXPECT_EQ(p.unpack_u32(), 123u);
  EXPECT_EQ(p.unpack_i64(), -1234567890123LL);
  EXPECT_EQ(p.unpack_u64(), 987654321ULL);
  EXPECT_DOUBLE_EQ(p.unpack_double(), 3.25);
  EXPECT_EQ(p.unpack_string(), "hello");
  EXPECT_EQ(p.unpack_u64_vec(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(p.unpack_double_vec(), (std::vector<double>{0.5, -0.5}));
  EXPECT_TRUE(p.fully_consumed());
}

TEST(Packet, OverrunThrows) {
  Packet p;
  p.pack_i32(1);
  (void)p.unpack_i32();
  EXPECT_THROW((void)p.unpack_i32(), std::out_of_range);
}

TEST(Packet, RewindRereads) {
  Packet p;
  p.pack_i32(42);
  EXPECT_EQ(p.unpack_i32(), 42);
  p.rewind();
  EXPECT_EQ(p.unpack_i32(), 42);
}

TEST(Packet, ByteSizeCountsPayload) {
  Packet p;
  p.pack_double(1.0);
  p.pack_i32(2);
  EXPECT_EQ(p.byte_size(), 12u);
}

TEST(Packet, UnpackDoubleVecIntoCopiesAndLeavesCursor) {
  Packet p;
  p.pack_i32(7).pack_double_vec({1.5, -2.0, 3.25}).pack_u8(9);
  ASSERT_EQ(p.unpack_i32(), 7);
  const std::size_t before = p.remaining();
  std::vector<double> out(5, 0.0);
  EXPECT_EQ(p.unpack_double_vec_into(out), 3u);
  EXPECT_EQ(out, (std::vector<double>{1.5, -2.0, 3.25, 0.0, 0.0}));
  EXPECT_EQ(p.remaining(), before);
  // A const packet reads the same way, into a span of exactly its size.
  const Packet& stored = p;
  std::vector<double> exact(3, 0.0);
  EXPECT_EQ(stored.unpack_double_vec_into(exact), 3u);
  EXPECT_EQ(exact, (std::vector<double>{1.5, -2.0, 3.25}));
  // The cursor still sits on the vector, so ordinary unpacking goes on.
  EXPECT_EQ(p.unpack_double_vec(), (std::vector<double>{1.5, -2.0, 3.25}));
  EXPECT_EQ(p.unpack_u8(), 9);
  EXPECT_TRUE(p.fully_consumed());
}

TEST(Packet, UnpackDoubleVecIntoRejectsBadPrefixWithoutWriting) {
  // The target span is the middle of a guarded buffer; nothing may change.
  const std::vector<double> guarded = {-7.0, 0.0, 0.0, 0.0, -7.0};
  auto expect_rejected = [&](const Packet& p) {
    std::vector<double> buf = guarded;
    EXPECT_THROW((void)p.unpack_double_vec_into(
                     std::span<double>(buf).subspan(1, 3)),
                 std::out_of_range);
    EXPECT_EQ(buf, guarded);
  };
  Packet longer;  // Prefix longer than the span.
  longer.pack_double_vec({1.0, 2.0, 3.0, 4.0});
  expect_rejected(longer);
  Packet cut;  // Prefix fits the span but not the buffer.
  cut.pack_u64(3).pack_double(1.0);
  expect_rejected(cut);
  // Hostile prefixes whose byte count wraps: 2^61 * 8 == 0 and
  // (2^61 + 1) * 8 == 8 modulo 2^64.
  for (const std::uint64_t n : {1ULL << 61, (1ULL << 61) + 1, ~0ULL}) {
    Packet hostile;
    hostile.pack_u64(n).pack_double(1.0);
    expect_rejected(hostile);
  }
  expect_rejected(Packet{});  // No prefix at all.
}

TEST(Packet, SkipPacketStepsOverAnEmbeddedPacket) {
  Packet inner;
  inner.pack_double(2.5).pack_i32(9);
  Packet frame;
  frame.pack_i32(1).pack_packet(inner).pack_u64(77);
  EXPECT_EQ(frame.unpack_i32(), 1);
  frame.skip_packet();
  EXPECT_EQ(frame.unpack_u64(), 77u);
  EXPECT_TRUE(frame.fully_consumed());

  // A frame cut inside the embedded packet throws, as unpack_packet does.
  Packet cut = frame.truncated(frame.byte_size() - 12);
  (void)cut.unpack_i32();
  EXPECT_THROW(cut.skip_packet(), std::out_of_range);
}

TEST(PacketPool, ReusesAReturnedBufferEmptied) {
  PacketPool pool;
  Packet p = pool.acquire();
  EXPECT_EQ(p.capacity(), 0u) << "a new pool keeps nothing";
  p.reserve(100);
  p.pack_u64(5);
  (void)p.unpack_u64();
  const std::size_t capacity = p.capacity();
  pool.release(std::move(p));
  EXPECT_EQ(pool.kept(), 1u);

  Packet q = pool.acquire();
  EXPECT_EQ(pool.kept(), 0u);
  EXPECT_EQ(q.capacity(), capacity);
  EXPECT_EQ(q.byte_size(), 0u) << "no bytes of the last use survive";
  EXPECT_EQ(q.remaining(), 0u);
  q.pack_i32(3);
  EXPECT_EQ(q.unpack_i32(), 3) << "the read cursor starts at the front";
}

TEST(PacketPool, KeepsNeitherEmptyNorOversizedBuffersNorTooMany) {
  PacketPool pool;
  pool.release(Packet{});
  EXPECT_EQ(pool.kept(), 0u) << "a buffer with no capacity";
  Packet big;
  big.reserve(PacketPool::kMaxCapacity + 1);
  pool.release(std::move(big));
  EXPECT_EQ(pool.kept(), 0u) << "a buffer above the capacity cap";
  for (std::size_t i = 0; i < PacketPool::kMaxBuffers + 5; ++i) {
    Packet p;
    p.reserve(8);
    pool.release(std::move(p));
  }
  EXPECT_EQ(pool.kept(), PacketPool::kMaxBuffers);
}

TEST(Vm, PingPongDeliversPayload) {
  VirtualMachine vm(fast_config(2));
  std::string got;
  vm.add_task("ping", [](Task& t) {
    Packet p;
    p.pack_string("marco");
    t.send(1, 5, std::move(p));
    Message reply = t.recv(6);
    EXPECT_EQ(reply.payload.unpack_string(), "polo");
  });
  vm.add_task("pong", [&](Task& t) {
    Message m = t.recv(5);
    got = m.payload.unpack_string();
    EXPECT_EQ(m.src, 0);
    Packet p;
    p.pack_string("polo");
    t.send(0, 6, std::move(p));
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(got, "marco");
}

TEST(Vm, RecvBlocksUntilMessageArrives) {
  auto cfg = fast_config(2);
  Time recv_time = -1;
  VirtualMachine vm(cfg);
  vm.add_task("receiver", [&](Task& t) {
    (void)t.recv(1);
    recv_time = t.now();
  });
  vm.add_task("sender", [](Task& t) {
    t.compute(10 * kMillisecond);
    t.send(0, 1, Packet{});
  });
  vm.run();
  // Blocked for the sender's compute plus the (zero-overhead) wire time.
  EXPECT_GE(recv_time, 10 * kMillisecond);
  EXPECT_EQ(vm.task(0).stats().blocked_time, recv_time);
}

TEST(Vm, OffloadedComputeChargesItsDelayAndJoinsItsKernel) {
  auto cfg = fast_config(2);
  std::vector<double> sums(2, 0.0);
  std::vector<Time> resumed(2, -1);
  bool rethrown = false;
  VirtualMachine vm(cfg);
  for (int id = 0; id < 2; ++id) {
    vm.add_task("worker" + std::to_string(id), [&, id](Task& t) {
      double& sum = sums[static_cast<std::size_t>(id)];
      t.compute(5 * kMillisecond, [&sum, id] {
        for (int i = 1; i <= 1000; ++i) sum += id + 1.0 / i;
      });
      resumed[static_cast<std::size_t>(id)] = t.now();
      try {
        t.compute(kMillisecond, [] { throw std::runtime_error("bad row"); });
      } catch (const std::runtime_error&) {
        rethrown = true;
      }
    });
  }
  vm.run();
  // Both kernels ran (and were joined) before their tasks resumed.
  EXPECT_GT(sums[0], 7.0);
  EXPECT_GT(sums[1], sums[0]);
  EXPECT_EQ(resumed[0], 5 * kMillisecond);
  EXPECT_EQ(resumed[1], 5 * kMillisecond);
  EXPECT_TRUE(rethrown) << "a kernel's exception reaches its task";
  EXPECT_EQ(vm.task(0).stats().compute_time, 6 * kMillisecond);
}

TEST(Vm, TagMatchingIsSelective) {
  VirtualMachine vm(fast_config(2));
  std::vector<int> order;
  vm.add_task("receiver", [&](Task& t) {
    Message b = t.recv(2);  // Skips the queued tag-1 message.
    order.push_back(b.tag);
    Message a = t.recv(1);
    order.push_back(a.tag);
  });
  vm.add_task("sender", [](Task& t) {
    t.send(0, 1, Packet{});
    t.send(0, 2, Packet{});
  });
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Vm, AnyTagReceivesInArrivalOrder) {
  VirtualMachine vm(fast_config(2));
  std::vector<int> tags;
  vm.add_task("receiver", [&](Task& t) {
    for (int i = 0; i < 3; ++i) tags.push_back(t.recv(kAnyTag).tag);
  });
  vm.add_task("sender", [](Task& t) {
    for (int tag : {7, 9, 8}) t.send(0, tag, Packet{});
  });
  vm.run();
  EXPECT_EQ(tags, (std::vector<int>{7, 9, 8}));
}

TEST(Vm, TryRecvDoesNotBlock) {
  VirtualMachine vm(fast_config(2));
  bool first_empty = false;
  bool later_full = false;
  vm.add_task("receiver", [&](Task& t) {
    first_empty = !t.try_recv(1).has_value();
    t.compute(20 * kMillisecond);
    later_full = t.try_recv(1).has_value();
  });
  vm.add_task("sender", [](Task& t) { t.send(0, 1, Packet{}); });
  vm.run();
  EXPECT_TRUE(first_empty);
  EXPECT_TRUE(later_full);
}

TEST(Vm, ProbeSeesQueuedMessage) {
  VirtualMachine vm(fast_config(2));
  bool probed = false;
  vm.add_task("receiver", [&](Task& t) {
    t.compute(5 * kMillisecond);
    probed = t.probe(3);
    (void)t.recv(3);
  });
  vm.add_task("sender", [](Task& t) { t.send(0, 3, Packet{}); });
  vm.run();
  EXPECT_TRUE(probed);
}

TEST(Vm, SelfSendDeliversLocally) {
  VirtualMachine vm(fast_config(1));
  int got = 0;
  vm.add_task("solo", [&](Task& t) {
    Packet p;
    p.pack_i32(11);
    t.send(0, 1, std::move(p));
    got = t.recv(1).payload.unpack_i32();
  });
  vm.run();
  EXPECT_EQ(got, 11);
  EXPECT_EQ(vm.bus().stats().frames_sent, 0u);  // No wire traffic.
}

TEST(Vm, BarrierSynchronisesAllTasks) {
  auto cfg = fast_config(4);
  VirtualMachine vm(cfg);
  std::vector<Time> after(4);
  for (int i = 0; i < 4; ++i) {
    vm.add_task("t" + std::to_string(i), [&after, i](Task& t) {
      t.compute((i + 1) * 10 * kMillisecond);  // Skewed arrival.
      t.barrier();
      after[static_cast<std::size_t>(i)] = t.now();
    });
  }
  vm.run();
  EXPECT_FALSE(vm.deadlocked());
  // Nobody may pass the barrier before the slowest task arrived.
  for (int i = 0; i < 4; ++i) EXPECT_GE(after[static_cast<std::size_t>(i)], 40 * kMillisecond);
}

TEST(Vm, BarrierCostsMessages) {
  auto cfg = fast_config(3);
  VirtualMachine vm(cfg);
  for (int i = 0; i < 3; ++i) {
    vm.add_task("t" + std::to_string(i), [](Task& t) { t.barrier(); });
  }
  vm.run();
  // 2 arrive + 2 release messages on the wire.
  EXPECT_EQ(vm.bus().stats().frames_sent, 4u);
}

TEST(Vm, BroadcastReachesEveryoneElse) {
  VirtualMachine vm(fast_config(4));
  std::vector<int> received(4, 0);
  vm.add_task("root", [](Task& t) {
    Packet p;
    p.pack_i32(99);
    t.broadcast(4, p);
  });
  for (int i = 1; i < 4; ++i) {
    vm.add_task("leaf" + std::to_string(i), [&received, i](Task& t) {
      received[static_cast<std::size_t>(i)] = t.recv(4).payload.unpack_i32();
    });
  }
  vm.run();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], 99);
}

TEST(Vm, SoftwareOverheadsAreCharged) {
  auto cfg = fast_config(2);
  cfg.send_sw_overhead = 3 * kMillisecond;
  cfg.recv_sw_overhead = 2 * kMillisecond;
  VirtualMachine vm(cfg);
  Time sender_done = -1;
  Time receiver_done = -1;
  vm.add_task("receiver", [&](Task& t) {
    (void)t.recv(1);
    receiver_done = t.now();
  });
  vm.add_task("sender", [&](Task& t) {
    t.send(0, 1, Packet{});
    sender_done = t.now();
  });
  vm.run();
  EXPECT_EQ(sender_done, 3 * kMillisecond);
  // Wire time zero bytes/overhead -> delivery at 3ms; +2ms recv overhead.
  EXPECT_EQ(receiver_done, 5 * kMillisecond);
}

TEST(Vm, WarpMeterObservesSteadyTrafficAsUnity) {
  auto cfg = fast_config(2);
  VirtualMachine vm(cfg);
  vm.add_task("receiver", [](Task& t) {
    for (int i = 0; i < 10; ++i) (void)t.recv(1);
  });
  vm.add_task("sender", [](Task& t) {
    for (int i = 0; i < 10; ++i) {
      t.compute(10 * kMillisecond);
      t.send(0, 1, Packet{});
    }
  });
  vm.run();
  ASSERT_GE(vm.warp_meter().samples(), 9u);
  EXPECT_NEAR(vm.warp_meter().overall().mean(), 1.0, 1e-6);
}

TEST(Vm, StatsCountTraffic) {
  VirtualMachine vm(fast_config(2));
  vm.add_task("receiver", [](Task& t) { (void)t.recv(1); });
  vm.add_task("sender", [](Task& t) {
    Packet p;
    p.pack_double_vec(std::vector<double>(10, 1.0));
    t.send(0, 1, std::move(p));
  });
  vm.run();
  EXPECT_EQ(vm.task(1).stats().messages_sent, 1u);
  EXPECT_EQ(vm.task(1).stats().bytes_sent, 88u);
  EXPECT_EQ(vm.task(0).stats().messages_received, 1u);
}

TEST(Vm, DeadlockDetectedWhenRecvNeverSatisfied) {
  VirtualMachine vm(fast_config(2));
  vm.add_task("stuck", [](Task& t) { (void)t.recv(42); });
  vm.add_task("quiet", [](Task&) {});
  vm.run();
  EXPECT_TRUE(vm.deadlocked());
}

TEST(Vm, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto cfg = fast_config(3);
    cfg.seed = 77;
    VirtualMachine vm(cfg);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 3; ++i) {
      vm.add_task("t" + std::to_string(i), [&draws](Task& t) {
        t.compute(static_cast<Time>(t.rng().below(1000)) * kMillisecond);
        t.barrier();
        draws.push_back(t.rng()());
      });
    }
    vm.run();
    return draws;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Vm, KilledReceiveWatchdogDoesNotFireIntoTheRespawn) {
  // Task 1 enters a 1 s timed receive at 0, is killed at 0.1 s and
  // respawned at 0.2 s, and its second incarnation enters a 5 s timed
  // receive that nothing satisfies.  The first incarnation's watchdog
  // (due at 1 s) died with it, so the second receive times out on its own
  // watchdog, at 5.2 s.
  VirtualMachine vm(fast_config(2));
  std::vector<Time> gave_up;
  vm.add_task("bystander", [](Task& t) { t.compute(10 * kSecond); });
  vm.add_task("victim", [&](Task& t) {
    const Time timeout = t.epoch() == 0 ? kSecond : 5 * kSecond;
    if (!t.recv_timeout(1, timeout)) gave_up.push_back(t.now());
  });
  vm.add_start_hook([&] {
    vm.engine().schedule(100 * kMillisecond, [&] { vm.kill_task(1); });
    vm.engine().schedule(200 * kMillisecond, [&] { vm.respawn_task(1); });
  });
  vm.run();
  ASSERT_EQ(gave_up.size(), 1u);
  EXPECT_EQ(gave_up[0], 5200 * kMillisecond);
}

}  // namespace
