/// \file micro_primitives.cpp
/// google-benchmark microbenchmarks of the simulator's primitives: these
/// measure *host* cost of the simulation machinery (events/second, fiber
/// switches, BF16 arithmetic, PCIe staging, the host grid images, a
/// row-chunk batch and its engine events per point, a solve on a fresh
/// card, a sharded solve over host threads), which bounds how large an
/// experiment the reproduction can run. They complement the table benches,
/// which report *simulated* time.

#include <benchmark/benchmark.h>

#include "ttsim/bfloat/bfloat16.hpp"
#include "ttsim/common/rng.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/problem.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/sim/fpu.hpp"
#include "ttsim/sim/sync.hpp"
#include "ttsim/stream/stream_bench.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace {

using namespace ttsim;

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber* self = nullptr;
  bool done = false;
  sim::Fiber fiber(
      [&] {
        while (!done) self->yield();
      },
      64 * 1024);
  self = &fiber;
  for (auto _ : state) {
    fiber.resume();  // one switch in, one out
  }
  done = true;
  fiber.resume();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

void BM_EngineEventDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(i, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineEventDispatch)->Arg(1000)->Arg(100000);

void BM_ProcessDelayLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn("p", [&engine] {
      for (int i = 0; i < 1000; ++i) engine.delay(10);
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ProcessDelayLoop);

// N processes that all delay by the same cost: the lockstep pattern of the
// convection and Table VIII kernels (324 = 108 cores x reader, compute and
// writer). Every wakeup but the last of a round hands off from one process
// to the next. Items are wakeups, spawning included.
void BM_EngineLockstep(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  constexpr int kDelays = 100;
  for (auto _ : state) {
    sim::Engine engine;
    for (int p = 0; p < processes; ++p) {
      engine.spawn(
          "p",
          [&engine] {
            for (int i = 0; i < kDelays; ++i) engine.delay(10);
          },
          64 * 1024);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * processes * kDelays);
}
BENCHMARK(BM_EngineLockstep)->Arg(16)->Arg(324);

void BM_CbProducerConsumer(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<std::byte> storage(64 * 4);
    sim::CircularBuffer cb(engine, storage.data(), 64, 4);
    engine.spawn("producer", [&] {
      for (int i = 0; i < 500; ++i) {
        cb.reserve_back(1);
        cb.push_back(1);
      }
    });
    engine.spawn("consumer", [&] {
      for (int i = 0; i < 500; ++i) {
        cb.wait_front(1);
        cb.pop_front(1);
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_CbProducerConsumer);

void BM_Bf16RoundTrip(benchmark::State& state) {
  Rng rng{42};
  std::vector<float> src(4096);
  for (auto& v : src) v = static_cast<float>(rng.next_double(-100, 100));
  std::vector<bfloat16_t> dst(4096);
  for (auto _ : state) {
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = bfloat16_t{src[i]};
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Bf16RoundTrip);

// The FPU's tile kernel as the simulator runs it, one instantiation at a
// time, over a tile's first range(0) elements: 1024 is a full tile, 64 the
// live extent of a 64-wide row chunk. Items are BF16 elements.
void BM_Bf16Tile(benchmark::State& state, sim::Fpu::BinaryOp op, bool avx2) {
  if (avx2 && !sim::Fpu::cpu_has_avx2()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const sim::Fpu::TileKernel kernel =
      avx2 ? &sim::Fpu::tile_kernel_avx2 : &sim::Fpu::tile_kernel_baseline;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng{42};
  std::vector<bfloat16_t> a(sim::Fpu::kTileElems), b(sim::Fpu::kTileElems),
      c(sim::Fpu::kTileElems);
  for (auto& v : a) v = bfloat16_t{static_cast<float>(rng.next_double(-100, 100))};
  for (auto& v : b) v = bfloat16_t{static_cast<float>(rng.next_double(-100, 100))};
  for (auto _ : state) {
    kernel(op, a.data(), b.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_Bf16Tile, add_baseline, sim::Fpu::BinaryOp::kAdd, false)->Arg(1024)->Arg(64);
BENCHMARK_CAPTURE(BM_Bf16Tile, add_avx2, sim::Fpu::BinaryOp::kAdd, true)->Arg(1024)->Arg(64);
BENCHMARK_CAPTURE(BM_Bf16Tile, mul_baseline, sim::Fpu::BinaryOp::kMul, false)->Arg(1024)->Arg(64);
BENCHMARK_CAPTURE(BM_Bf16Tile, mul_avx2, sim::Fpu::BinaryOp::kMul, true)->Arg(1024)->Arg(64);

void BM_StreamingBenchmarkHostCost(benchmark::State& state) {
  // Host seconds per simulated streaming row — the simulator's "speed".
  for (auto _ : state) {
    stream::StreamParams p;
    p.rows = 32;
    p.verify = false;
    const auto r = stream::run_streaming_benchmark(p);
    benchmark::DoNotOptimize(r.kernel_time);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_StreamingBenchmarkHostCost);

// The host staging cost of one Table VIII device image (the padded
// 9216x1024 BF16 grid): a blocking write then read, as a whole solve does
// around its kernels. Bytes count both directions.
void BM_PcieRoundTrip(benchmark::State& state, bool checksum) {
  ttmetal::DeviceConfig config;
  config.checksum_transfers = checksum;
  auto dev = ttmetal::Device::open({}, config);
  const std::uint64_t bytes = core::PaddedLayout(9216, 1024).bytes();
  auto buf = dev->create_buffer({.size = bytes});
  std::vector<std::byte> image(bytes, std::byte{0x3F});
  std::vector<std::byte> back(bytes);
  for (auto _ : state) {
    dev->write_buffer(*buf, image);
    dev->read_buffer(*buf, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * 2 * static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_PcieRoundTrip, checksum_off, false);
BENCHMARK_CAPTURE(BM_PcieRoundTrip, checksum_on, true);

// The host data path around one Table VIII solve (the padded 9216x1024
// BF16 image): building the initial image, reading the grid back into an
// image that already exists (the copy alone, no allocation), and widening
// the interior to floats. per_elem is the time per padded element for the
// first two steps and per interior element for the extraction.
enum class HostImageStep { kInitialImage, kReadback, kExtractInterior };

void BM_HostImage(benchmark::State& state, HostImageStep step) {
  core::JacobiProblem p;
  p.width = 9216;
  p.height = 1024;
  p.bc_left = 1.0f;
  const core::PaddedLayout layout(p.width, p.height);
  auto dev = ttmetal::Device::open();
  auto buf = dev->create_buffer({.size = layout.bytes()});
  auto image = layout.initial_image(p);
  dev->write_buffer(*buf, std::as_bytes(std::span(image)));
  for (auto _ : state) {
    if (step == HostImageStep::kInitialImage) {
      benchmark::DoNotOptimize(layout.initial_image(p).data());
    } else if (step == HostImageStep::kReadback) {
      dev->read_buffer(*buf, std::as_writable_bytes(std::span(image)));
      benchmark::DoNotOptimize(image.data());
      benchmark::ClobberMemory();
    } else {
      benchmark::DoNotOptimize(layout.extract_interior(image).data());
    }
  }
  const double elems = static_cast<double>(
      step == HostImageStep::kExtractInterior ? p.points() : layout.elems());
  state.counters["per_elem"] = benchmark::Counter(
      elems, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_HostImage, initial_image, HostImageStep::kInitialImage)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HostImage, readback, HostImageStep::kReadback)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HostImage, extract_interior, HostImageStep::kExtractInterior)
    ->Unit(benchmark::kMillisecond);

// Host cost of a solve on a fresh card: open an e150 and run the 108-core
// row-chunk Jacobi (Table VIII's full-card decomposition) on a grid only 24
// rows tall, so each core's first touch of its SRAM and the card's setup
// weigh as much as the sweep itself. Items are grid-point updates.
void BM_FreshCardSolve(benchmark::State& state) {
  core::JacobiProblem p;
  p.width = 9216;
  p.height = 24;
  p.iterations = 1;
  p.bc_left = 1.0f;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kRowChunk;
  cfg.cores_y = 12;
  cfg.cores_x = 9;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  cfg.verify = false;
  for (auto _ : state) {
    auto dev = ttmetal::Device::open();
    const auto r = core::run_jacobi_on_device(*dev, p, cfg);
    benchmark::DoNotOptimize(r.kernel_time);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.total_updates()));
}
BENCHMARK(BM_FreshCardSolve)->Unit(benchmark::kMillisecond);

// Host cost of one classic-Jacobi row-chunk batch on one core: a 1024-wide,
// one-row grid is one batch through the reader, compute and writer kernels,
// plus its PCIe staging. events_per_pt is engine events per point update.
// The compute kernel's private work (FPU ops, accumulator CB ops, loop
// ticks) runs ahead of the event queue, so it counts shared operations only.
void BM_RowChunkBatch(benchmark::State& state) {
  core::JacobiProblem p;
  p.width = 1024;
  p.height = 1;
  p.iterations = 1;
  p.bc_left = 1.0f;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kRowChunk;
  cfg.verify = false;
  auto dev = ttmetal::Device::open();
  const std::uint64_t events0 = dev->hw().engine().events_processed();
  for (auto _ : state) {
    const auto r = core::run_jacobi_on_device(*dev, p, cfg);
    benchmark::DoNotOptimize(r.kernel_time);
  }
  const auto points = state.iterations() * static_cast<std::int64_t>(p.total_updates());
  state.counters["events_per_pt"] = static_cast<double>(
      dev->hw().engine().events_processed() - events0) / static_cast<double>(points);
  state.SetItemsProcessed(points);
}
BENCHMARK(BM_RowChunkBatch);

// Host cost of one small deep-halo sharded Jacobi solve (cluster open,
// staging, 4 epochs with halo exchanges, readback) over N cards, each card
// on its own host thread. Items are grid-point updates per wall second.
void BM_ShardedSolve(benchmark::State& state) {
  const int cards = static_cast<int>(state.range(0));
  core::JacobiProblem p;
  p.width = 512;
  p.height = 256;
  p.iterations = 4;
  p.bc_left = 1.0f;
  core::ShardedRunConfig cfg;
  cfg.run.cores_x = 4;
  cfg.run.cores_y = 4;
  cfg.exchange_every = 1;
  for (auto _ : state) {
    const auto r = core::run_jacobi_sharded(p, cards, cfg);
    benchmark::DoNotOptimize(r.total_time);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.total_updates()));
}
BENCHMARK(BM_ShardedSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
