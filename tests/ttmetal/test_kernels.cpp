#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ttsim/bfloat/convert.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::ttmetal {
namespace {

/// End-to-end kernel tests: the canonical tt-metal pipeline of Fig. 3 —
/// reader data mover -> CBs -> compute/FPU -> CB -> writer data mover.

TEST(Kernels, ReaderMoverCopiesDramToDram) {
  auto dev = Device::open();
  const std::uint32_t n = 8192;
  auto src = dev->create_buffer({.size = n});
  auto dst = dev->create_buffer({.size = n});
  std::vector<std::byte> in(n);
  for (std::uint32_t i = 0; i < n; ++i) in[i] = static_cast<std::byte>(i * 31);
  dev->write_buffer(*src, in);

  Program prog;
  const std::vector<int> cores{0};
  auto l1 = prog.create_l1_buffer(cores, n);
  auto reader = prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [](DataMoverCtx& ctx) {
        const std::uint64_t src_addr = ctx.arg64(0);
        const std::uint64_t dst_addr = ctx.arg64(2);
        const std::uint32_t size = ctx.arg(4);
        const std::uint32_t l1_addr = ctx.arg(5);
        ctx.noc_async_read(ctx.get_noc_addr(src_addr), l1_addr, size);
        ctx.noc_async_read_barrier();
        ctx.noc_async_write(l1_addr, ctx.get_noc_addr(dst_addr), size);
        ctx.noc_async_write_barrier();
      },
      "copy");
  std::vector<std::uint32_t> args;
  Program::push_arg64(args, src->address());
  Program::push_arg64(args, dst->address());
  args.push_back(n);
  args.push_back(prog.l1_buffer_address(l1));
  prog.set_runtime_args(reader, 0, args);
  dev->run_program(prog);

  std::vector<std::byte> out(n);
  dev->read_buffer(*dst, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), n), 0);
  EXPECT_GT(dev->last_kernel_duration(), 0);
}

TEST(Kernels, FullPipelineComputesJacobiStyleAverage) {
  // Mirrors Listing 2 on a single tile: out = 0.25*(a+b+c+d).
  auto dev = Device::open();
  const std::uint32_t elems = 1024;
  const std::uint32_t bytes = elems * 2;
  std::vector<std::shared_ptr<Buffer>> inputs;
  std::vector<float> expect(elems);
  for (int k = 0; k < 4; ++k) {
    auto buf = dev->create_buffer({.size = bytes});
    std::vector<float> vals(elems);
    for (std::uint32_t i = 0; i < elems; ++i) vals[i] = static_cast<float>(k + 1);
    const auto bf = to_bf16(vals);
    dev->write_buffer(*buf, std::as_bytes(std::span{bf}));
    inputs.push_back(buf);
  }
  for (std::uint32_t i = 0; i < elems; ++i) expect[i] = 0.25f * (1 + 2 + 3 + 4);
  auto out_buf = dev->create_buffer({.size = bytes});

  Program prog;
  const std::vector<int> cores{0};
  for (int cb = 0; cb < 4; ++cb) prog.create_cb(cb, cores, bytes, 4);
  prog.create_cb(4, cores, bytes, 1);   // cb_scalar (0.25)
  prog.create_cb(5, cores, bytes, 2);   // cb_intermediate
  prog.create_cb(16, cores, bytes, 4);  // cb_out0

  auto reader = prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [bytes](DataMoverCtx& ctx) {
        // Fill the scalar CB once at startup, then feed the four inputs.
        ctx.cb_reserve_back(4, 1);
        auto* s = reinterpret_cast<bfloat16_t*>(ctx.l1_ptr(ctx.get_write_ptr(4)));
        for (std::uint32_t i = 0; i < 1024; ++i) s[i] = bfloat16_t{0.25f};
        ctx.cb_push_back(4, 1);
        for (int cb = 0; cb < 4; ++cb) {
          ctx.cb_reserve_back(cb, 1);
          ctx.noc_async_read(ctx.arg64(static_cast<std::size_t>(cb) * 2),
                             ctx.get_write_ptr(cb), bytes);
          ctx.noc_async_read_barrier();
          ctx.cb_push_back(cb, 1);
        }
      },
      "reader");
  auto compute = prog.create_kernel(
      cores,
      [](ComputeCtx& ctx) {
        constexpr int dst0 = 0;
        ctx.binary_op_init_common(0, 1);
        ctx.add_tiles_init(0, 1);
        // (a+b) -> intermediate
        ctx.cb_wait_front(0, 1);
        ctx.cb_wait_front(1, 1);
        ctx.add_tiles(0, 1, 0, 0, dst0);
        ctx.cb_pop_front(1, 1);
        ctx.cb_pop_front(0, 1);
        ctx.cb_reserve_back(5, 1);
        ctx.pack_tile(dst0, 5);
        ctx.cb_push_back(5, 1);
        // (+c) -> intermediate
        ctx.cb_wait_front(2, 1);
        ctx.cb_wait_front(5, 1);
        ctx.add_tiles(2, 5, 0, 0, dst0);
        ctx.cb_pop_front(5, 1);
        ctx.cb_pop_front(2, 1);
        ctx.cb_reserve_back(5, 1);
        ctx.pack_tile(dst0, 5);
        ctx.cb_push_back(5, 1);
        // (+d) -> intermediate
        ctx.cb_wait_front(3, 1);
        ctx.cb_wait_front(5, 1);
        ctx.add_tiles(3, 5, 0, 0, dst0);
        ctx.cb_pop_front(5, 1);
        ctx.cb_pop_front(3, 1);
        ctx.cb_reserve_back(5, 1);
        ctx.pack_tile(dst0, 5);
        ctx.cb_push_back(5, 1);
        // * 0.25 -> out
        ctx.cb_wait_front(4, 1);
        ctx.cb_wait_front(5, 1);
        ctx.mul_tiles(4, 5, 0, 0, dst0);
        ctx.cb_pop_front(5, 1);
        ctx.cb_reserve_back(16, 1);
        ctx.pack_tile(dst0, 16);
        ctx.cb_push_back(16, 1);
      },
      "compute");
  auto writer = prog.create_kernel(
      KernelKind::kDataMover1, cores,
      [bytes](DataMoverCtx& ctx) {
        ctx.cb_wait_front(16, 1);
        ctx.noc_async_write(ctx.get_read_ptr(16), ctx.arg64(0), bytes);
        ctx.noc_async_write_barrier();
        ctx.cb_pop_front(16, 1);
      },
      "writer");

  std::vector<std::uint32_t> rargs;
  for (const auto& b : inputs) Program::push_arg64(rargs, b->address());
  prog.set_runtime_args(reader, 0, rargs);
  std::vector<std::uint32_t> wargs;
  Program::push_arg64(wargs, out_buf->address());
  prog.set_runtime_args(writer, 0, wargs);
  (void)compute;
  dev->run_program(prog);

  std::vector<bfloat16_t> result(elems);
  dev->read_buffer(*out_buf, std::as_writable_bytes(std::span{result}));
  for (std::uint32_t i = 0; i < elems; ++i) {
    EXPECT_EQ(static_cast<float>(result[i]), expect[i]) << "i=" << i;
  }
}

TEST(Kernels, SemaphoreCoordinatesMovers) {
  auto dev = Device::open();
  Program prog;
  const std::vector<int> cores{0};
  prog.create_semaphore(0, cores, 0);
  std::vector<SimTime> when(2, -1);
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [&when](DataMoverCtx& ctx) {
        ctx.semaphore_wait(0);
        when[0] = ctx.now();
      },
      "waiter");
  prog.create_kernel(
      KernelKind::kDataMover1, cores,
      [&when](DataMoverCtx& ctx) {
        ctx.spin(5 * kMicrosecond);
        when[1] = ctx.now();
        ctx.semaphore_post(0);
      },
      "poster");
  dev->run_program(prog);
  EXPECT_GE(when[0], when[1]);
  EXPECT_GT(when[0], 0);
}

TEST(Kernels, Listing4AlignedReadHandlesUnalignedAddresses) {
  // The paper's read_data fix: on faithful-alignment hardware, a direct
  // unaligned read corrupts; read_data_aligned recovers the right bytes.
  auto dev = Device::open();
  auto buf = dev->create_buffer({.size = 4096});
  std::vector<std::byte> in(4096);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::byte>(i & 0xFF);
  dev->write_buffer(*buf, in);

  Program prog;
  const std::vector<int> cores{0};
  auto l1 = prog.create_l1_buffer(cores, 1024);
  std::vector<std::byte> direct(68), fixed(68);
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [&, base = buf->address()](DataMoverCtx& ctx) {
        const std::uint32_t l1_addr = ctx.arg(0);
        // Direct unaligned read (the paper's first attempt).
        ctx.noc_async_read(base + 34, l1_addr, 68);
        ctx.noc_async_read_barrier();
        std::memcpy(direct.data(), ctx.l1_ptr(l1_addr), 68);
        // Listing 4's aligned read.
        const std::uint32_t off =
            ctx.read_data_aligned(base + 34, base, 68, l1_addr);
        std::memcpy(fixed.data(), ctx.l1_ptr(l1_addr + off), 68);
      },
      "reader");
  prog.set_runtime_args(0, 0, {prog.l1_buffer_address(l1)});
  dev->run_program(prog);

  EXPECT_NE(std::memcmp(direct.data(), in.data() + 34, 68), 0)
      << "unaligned read should corrupt on faithful hardware";
  EXPECT_EQ(std::memcmp(fixed.data(), in.data() + 34, 68), 0)
      << "Listing 4 must recover the intended bytes";
}

TEST(Kernels, L1MemcpyCostsSimulatedTime) {
  auto dev = Device::open();
  Program prog;
  const std::vector<int> cores{0};
  auto l1 = prog.create_l1_buffer(cores, 32 * KiB);
  SimTime cost = -1;
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [&cost](DataMoverCtx& ctx) {
        const std::uint32_t a = ctx.arg(0);
        const SimTime t0 = ctx.now();
        ctx.l1_memcpy(a + 16 * KiB, a, 16 * KiB);
        cost = ctx.now() - t0;
      },
      "copier");
  prog.set_runtime_args(0, 0, {prog.l1_buffer_address(l1)});
  dev->run_program(prog);
  // ~0.5us call + 16384 * 1.39ns ≈ 23.3 us — the Section V finding.
  EXPECT_NEAR(to_seconds(cost), 23.3e-6, 2e-6);
}

TEST(Kernels, MultiCoreKernelsRunConcurrently) {
  auto dev = Device::open();
  Program prog;
  std::vector<int> cores{0, 1, 2, 3};
  std::vector<int> positions;
  std::vector<SimTime> end_times(4);
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [&](DataMoverCtx& ctx) {
        positions.push_back(ctx.position());
        ctx.spin(1 * kMillisecond);
        end_times[static_cast<std::size_t>(ctx.position())] = ctx.now();
      },
      "spinner");
  dev->run_program(prog);
  EXPECT_EQ(positions.size(), 4u);
  // Concurrent: total runtime ~1 ms, not 4 ms.
  EXPECT_NEAR(to_seconds(dev->last_kernel_duration()), 1e-3, 1e-5);
}

TEST(Kernels, RuntimeArgsPerCore) {
  auto dev = Device::open();
  Program prog;
  std::vector<int> cores{0, 1, 2};
  std::vector<std::uint32_t> seen(3);
  auto k = prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [&seen](DataMoverCtx& ctx) {
        seen[static_cast<std::size_t>(ctx.position())] = ctx.arg(0);
      },
      "args");
  for (int c : cores) prog.set_runtime_args(k, c, {static_cast<std::uint32_t>(c * 100)});
  dev->run_program(prog);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 100, 200}));
}

TEST(Kernels, MissingArgThrows) {
  auto dev = Device::open();
  Program prog;
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { (void)ctx.arg(0); },  // no args set
      "bad");
  EXPECT_THROW(dev->run_program(prog), ApiError);
}

TEST(Kernels, DeadlockedCbReportsProcessName) {
  auto dev = Device::open();
  Program prog;
  prog.create_cb(0, {0}, 64, 2);
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.cb_wait_front(0, 1); },  // never produced
      "starved_reader");
  try {
    dev->run_program(prog);
    FAIL() << "expected deadlock";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("starved_reader"), std::string::npos);
  }
}

// --- the run-ahead clock: private work is lag, realised at shared ops ---

constexpr std::uint32_t kTile = 32 * 32 * 2;  // one BF16 tile
constexpr int kRounds = 5;

/// A compute kernel doing only private work on two kernel-local CBs:
/// `kRounds` rounds of 8 CB ops, an add, a pack and a loop tick.
void private_rounds(ComputeCtx& ctx) {
  for (int i = 0; i < kRounds; ++i) {
    ctx.cb_reserve_back(0, 1);
    ctx.cb_push_back(0, 1);
    ctx.cb_wait_front(0, 1);
    ctx.add_tiles(0, 0, 0, 0, 0);
    ctx.cb_reserve_back(1, 1);
    ctx.pack_tile(0, 1);
    ctx.cb_push_back(1, 1);
    ctx.cb_wait_front(1, 1);
    ctx.cb_pop_front(1, 1);
    ctx.cb_pop_front(0, 1);
    ctx.loop_tick();
  }
}

SimTime private_rounds_cost(const sim::GrayskullSpec& spec) {
  return kRounds * (8 * spec.cb_op_cost + spec.tile_math_cost + spec.tile_pack_cost +
                    spec.loop_overhead);
}

Program private_program(bool fault) {
  Program prog;
  prog.create_cb(0, {0}, kTile, 2, /*kernel_local=*/true);
  prog.create_cb(1, {0}, kTile, 2, /*kernel_local=*/true);
  prog.create_kernel(
      {0},
      [fault](ComputeCtx& ctx) {
        private_rounds(ctx);
        if (fault) throw std::runtime_error("kernel fault");
      },
      "private");
  return prog;
}

TEST(RunAhead, KernelFaultAfterPrivateWorkSurfacesAtItsChargedTime) {
  // The throwing kernel realises its lag before the exception leaves it, so
  // the failure surfaces at start + charged time, as it does eagerly (the
  // race detector keeps a launch eager) — but in a handful of events.
  auto fast = Device::open();
  auto eager = Device::open({}, {.enable_verify = true});
  const SimTime end = fast->spec().program_dispatch + private_rounds_cost(fast->spec());
  for (Device* dev : {fast.get(), eager.get()}) {
    Program prog = private_program(/*fault=*/true);
    EXPECT_THROW(dev->run_program(prog), std::runtime_error);
    EXPECT_EQ(dev->now(), end);
    ASSERT_EQ(dev->last_profile().size(), 1u);
    EXPECT_FALSE(dev->last_profile()[0].finished);
  }
  EXPECT_LT(fast->hw().engine().events_processed() + 4 * kRounds,
            eager->hw().engine().events_processed());
}

TEST(RunAhead, KernelEndingAfterPrivateWorkCountsItInItsLifetime) {
  auto dev = Device::open();
  Program prog = private_program(/*fault=*/false);
  dev->run_program(prog);
  const SimTime cost = private_rounds_cost(dev->spec());
  ASSERT_EQ(dev->last_profile().size(), 1u);
  const KernelProfile& p = dev->last_profile()[0];
  EXPECT_TRUE(p.finished);
  EXPECT_EQ(p.lifetime, cost);
  EXPECT_EQ(p.active, cost);
  EXPECT_EQ(p.fpu_busy, kRounds * (dev->spec().tile_math_cost + dev->spec().tile_pack_cost));
  EXPECT_EQ(dev->last_kernel_duration(), cost);
}

TEST(RunAhead, SecondKernelOnAKernelLocalCbIsRejectedAtFirstTouch) {
  // Kernel-local is declared, and checked: the wait-for registry sees every
  // kernel's first use of each CB.
  auto dev = Device::open();
  Program prog;
  prog.create_cb(0, {0}, kTile, 2, /*kernel_local=*/true);
  bool consumed = false;
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) {
        ctx.cb_reserve_back(0, 1);
        ctx.cb_push_back(0, 1);
      },
      "producer");
  prog.create_kernel(
      {0},
      [&consumed](ComputeCtx& ctx) {
        ctx.cb_wait_front(0, 1);
        consumed = true;
      },
      "consumer");
  try {
    dev->run_program(prog);
    FAIL() << "expected ApiError";
  } catch (const ApiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel-local"), std::string::npos) << what;
    EXPECT_NE(what.find("producer@0"), std::string::npos) << what;
    EXPECT_NE(what.find("consumer@0"), std::string::npos) << what;
  }
  EXPECT_FALSE(consumed);
}

TEST(RunAhead, EqualTimeWakeupsKeepSpawnOrderWhenPrivateWorkRunsAhead) {
  // Two readers on different cores reach their read of one DRAM bank at the
  // same instant; the bank serves in issue order. Eagerly, `late` was woken
  // for its last private op by an older wakeup than `early` was, so under
  // push-order tie-breaking `late` would issue first; running ahead, `early`
  // syncs first and would. Spawn order decides both ways.
  const auto run = [](bool eager) {
    auto dev = Device::open({}, {.enable_trace = eager});
    auto buf = dev->create_buffer({.size = 2 * kTile, .bank = 0});
    Program prog;
    const auto l1 = prog.create_l1_buffer({0, 1}, kTile);
    std::vector<SimTime> done(2);
    const auto reader = [&done](int who, SimTime lead, int ticks, bool store) {
      return [&done, who, lead, ticks, store](DataMoverCtx& ctx) {
        const std::uint32_t l1_addr = ctx.arg(0);
        ctx.spin(lead);
        for (int i = 0; i < ticks; ++i) ctx.loop_tick();
        if (store) ctx.l1_store_u16(l1_addr, 0);
        ctx.noc_async_read(ctx.arg64(1) + static_cast<std::uint64_t>(who) * kTile,
                           l1_addr, kTile);
        ctx.noc_async_read_barrier();
        done[static_cast<std::size_t>(who)] = ctx.now();
      };
    };
    // 10 + 2 * 40 + 2 ns and 52 + 40 ns: both issue at 92 ns.
    const auto early = prog.create_kernel(KernelKind::kDataMover0, {0},
                                          reader(0, 10 * kNanosecond, 2, true), "early");
    const auto late = prog.create_kernel(KernelKind::kDataMover0, {1},
                                         reader(1, 52 * kNanosecond, 1, false), "late");
    for (const auto k : {early, late}) {
      std::vector<std::uint32_t> args{prog.l1_buffer_address(l1)};
      Program::push_arg64(args, buf->address());
      prog.set_common_runtime_args(k, args);
    }
    dev->run_program(prog);
    return done;
  };
  const std::vector<SimTime> eager = run(true);
  EXPECT_EQ(run(false), eager);
  EXPECT_LT(eager[0], eager[1]);  // the first-spawned reader's read is served first
}

}  // namespace
}  // namespace ttsim::ttmetal
