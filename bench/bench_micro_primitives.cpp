// Micro-benchmarks (google-benchmark) for the substrate primitives: event
// engine throughput, fiber context switches, packet serialisation, shared
// bus arbitration, DSM write/global_read fast paths, GA crossover, migrant
// codec and generation step, belief-network sampling, the MLP gradient
// and loss kernels, and one Jacobi sweep over a row block.  These quantify the *host* cost of the
// simulator (virtual time is free), i.e. how fast experiments run.
#include <benchmark/benchmark.h>

#include "bayes/generators.hpp"
#include "dsm/shared_space.hpp"
#include "ga/deme.hpp"
#include "net/shared_bus.hpp"
#include "nn/mlp.hpp"
#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sim/engine.hpp"
#include "solver/linear_system.hpp"
#include "util/bitvec.hpp"

namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    nscc::sim::Engine eng;
    long count = 0;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule(i, [&count] { ++count; });
    }
    eng.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_FiberSwitch(benchmark::State& state) {
  nscc::sim::Engine eng;
  // One process ping-ponging with the engine via zero-delays.
  auto& proc = eng.spawn("spin", [](nscc::sim::Process& p) {
    for (;;) p.delay(1);
  });
  (void)proc;
  std::int64_t t = 0;
  for (auto _ : state) {
    eng.run(++t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSwitch);

void BM_PacketPackUnpack(benchmark::State& state) {
  std::vector<double> payload(64, 1.5);
  for (auto _ : state) {
    nscc::rt::Packet p;
    p.pack_i32(7);
    p.pack_i64(42);
    p.pack_double_vec(payload);
    benchmark::DoNotOptimize(p.unpack_i32());
    benchmark::DoNotOptimize(p.unpack_i64());
    benchmark::DoNotOptimize(p.unpack_double_vec());
  }
}
BENCHMARK(BM_PacketPackUnpack);

void BM_SharedBusTransmit(benchmark::State& state) {
  for (auto _ : state) {
    nscc::sim::Engine eng;
    nscc::net::SharedBus bus(eng, {});
    for (int i = 0; i < 256; ++i) {
      bus.transmit(-1, -1, 512, [](nscc::sim::Time, bool, std::uint64_t) {});
    }
    eng.run();
    benchmark::DoNotOptimize(bus.stats().frames_sent);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SharedBusTransmit);

void BM_DsmWriteGlobalRead(benchmark::State& state) {
  for (auto _ : state) {
    nscc::rt::MachineConfig cfg;
    cfg.ntasks = 2;
    cfg.send_sw_overhead = 0;
    cfg.recv_sw_overhead = 0;
    nscc::rt::VirtualMachine vm(cfg);
    vm.add_task("w", [](nscc::rt::Task& t) {
      nscc::dsm::SharedSpace space(t);
      space.declare_written(1, {1});
      for (int i = 0; i < 128; ++i) {
        nscc::rt::Packet p;
        p.pack_double(i);
        space.write(1, i, std::move(p));
        t.compute(nscc::sim::kMillisecond);
      }
    });
    vm.add_task("r", [](nscc::rt::Task& t) {
      nscc::dsm::SharedSpace space(t);
      space.declare_read(1, 0);
      for (int i = 0; i < 128; ++i) {
        benchmark::DoNotOptimize(space.global_read(1, i, 2).iteration);
      }
    });
    vm.run();
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DsmWriteGlobalRead);

void BM_BitVecCrossoverMutate(benchmark::State& state) {
  nscc::util::Xoshiro256 rng(1);
  nscc::util::BitVec a(240);
  nscc::util::BitVec b(240);
  a.randomize(rng);
  b.randomize(rng);
  for (auto _ : state) {
    nscc::util::BitVec::crossover(a, b, 1 + rng.below(239));
    a.flip(rng.below(240));
    benchmark::DoNotOptimize(a.hash());
  }
}
BENCHMARK(BM_BitVecCrossoverMutate);

// One island-GA migrant buffer through the codec: 25 f6 (200-bit) migrants
// packed as a deme publishes them, then decoded into a reused pool as the
// read loop does.
void BM_MigrantCodec(benchmark::State& state) {
  const auto& fn = nscc::ga::test_function(6);
  nscc::util::Xoshiro256 rng(7);
  std::vector<nscc::ga::Individual> migrants(25);
  for (auto& m : migrants) {
    m.genome = nscc::util::BitVec(static_cast<std::size_t>(fn.genome_bits()));
    m.genome.randomize(rng);
    m.fitness = rng.uniform01();
    m.evaluated = true;
  }
  std::vector<nscc::ga::Individual> pool(migrants.size());
  for (auto _ : state) {
    nscc::rt::Packet p;
    p.reserve(sizeof(std::uint32_t) +
              migrants.size() * nscc::ga::migrant_bytes(fn));
    p.pack_u32(static_cast<std::uint32_t>(migrants.size()));
    for (const auto& m : migrants) nscc::ga::pack_individual(p, m, fn);
    const std::uint32_t count = p.unpack_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      nscc::ga::unpack_individual(p, fn, pool[i]);
    }
    benchmark::DoNotOptimize(pool.back().fitness);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(migrants.size()));
}
BENCHMARK(BM_MigrantCodec);

void BM_GaGenerationStep(benchmark::State& state) {
  const auto& fn = nscc::ga::test_function(static_cast<int>(state.range(0)));
  nscc::ga::Deme deme(fn, {}, nscc::util::Xoshiro256(3));
  deme.initialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(deme.step().evaluations);
  }
}
BENCHMARK(BM_GaGenerationStep)->Arg(1)->Arg(6);

void BM_BeliefNetworkSample(benchmark::State& state) {
  const auto net = nscc::bayes::make_network_a();
  const auto order = net.topological_order();
  nscc::util::Xoshiro256 rng(5);
  std::vector<int> assignment(static_cast<std::size_t>(net.size()), 0);
  for (auto _ : state) {
    for (auto id : order) {
      assignment[static_cast<std::size_t>(id)] =
          net.sample_node(id, assignment, rng);
    }
    benchmark::DoNotOptimize(assignment);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net.size()));
}
BENCHMARK(BM_BeliefNetworkSample);

// The nn-partial kernels: a batch-16 gradient on the 2-16-16-1 net,
// striding through the 120 spirals examples as a worker does, and one
// loss pass over all 120.
void BM_MlpGradient(benchmark::State& state) {
  const nscc::nn::Mlp net({2, 16, 16, 1}, 7);
  const auto data = nscc::nn::make_two_spirals(60, 0.02, 7);
  constexpr std::size_t kBatch = 16;
  std::vector<double> grad;
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.gradient(data.inputs, data.targets, cursor, kBatch, grad));
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
    cursor = (cursor + kBatch) % data.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MlpGradient);

void BM_MlpLoss(benchmark::State& state) {
  const nscc::nn::Mlp net({2, 16, 16, 1}, 7);
  const auto data = nscc::nn::make_two_spirals(60, 0.02, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.loss(data.inputs, data.targets));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_MlpLoss);

// The jacobi-lossy-sp2 kernel: one sweep of one block task, 1,600 rows
// (a sixteenth) of the 160x160 Poisson system, from the middle of it.
void BM_JacobiRows(benchmark::State& state) {
  const auto sys = nscc::solver::make_poisson_2d(160, 7);
  constexpr int kLo = 8 * 1600;
  constexpr int kHi = kLo + 1600;
  std::vector<double> x(sys.x_true.size(), 0.5);
  std::vector<double> out(kHi - kLo);
  for (auto _ : state) {
    sys.a.jacobi_rows(kLo, kHi, sys.b, x, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (kHi - kLo));
}
BENCHMARK(BM_JacobiRows);

}  // namespace

BENCHMARK_MAIN();
