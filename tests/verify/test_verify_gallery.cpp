/// \file test_verify_gallery.cpp
/// A gallery of deliberately broken kernels, one per protocol violation the
/// verifier exists to catch. Each test asserts the *specific* diagnostic —
/// the right Finding::Kind with the right explanation, or a deadlock report
/// naming the actual wait cycle — not just "something was flagged".

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ttsim/common/check.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/verify/race.hpp"

namespace ttsim::ttmetal {
namespace {

DeviceConfig verify_config() {
  DeviceConfig dc;
  dc.enable_verify = true;
  return dc;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// 1. Missing read barrier: the producer pushes a CB page whose contents are
/// still in flight from DRAM; the consumer's use of the data is flagged as a
/// read-before-barrier.
TEST(VerifyGallery, MissingReadBarrier) {
  auto dev = Device::open({}, verify_config());
  const std::uint32_t bytes = 2048;
  auto src = dev->create_buffer({.size = bytes});
  auto dst = dev->create_buffer({.size = bytes});

  Program prog;
  const std::vector<int> cores{0};
  prog.create_cb(0, cores, bytes, 1);
  auto reader = prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [bytes](DataMoverCtx& ctx) {
        ctx.cb_reserve_back(0, 1);
        ctx.noc_async_read(ctx.get_noc_addr(ctx.arg64(0)), ctx.get_write_ptr(0),
                           bytes);
        // BUG: no noc_async_read_barrier() before publishing the page.
        ctx.cb_push_back(0, 1);
      },
      "leaky_reader");
  auto writer = prog.create_kernel(
      KernelKind::kDataMover1, cores,
      [bytes](DataMoverCtx& ctx) {
        ctx.cb_wait_front(0, 1);
        ctx.noc_async_write(ctx.get_read_ptr(0), ctx.get_noc_addr(ctx.arg64(0)),
                            bytes);
        ctx.noc_async_write_barrier();
        ctx.cb_pop_front(0, 1);
      },
      "writer");
  std::vector<std::uint32_t> rargs, wargs;
  Program::push_arg64(rargs, src->address());
  Program::push_arg64(wargs, dst->address());
  prog.set_runtime_args(reader, 0, rargs);
  prog.set_runtime_args(writer, 0, wargs);
  dev->run_program(prog);

  const auto& fs = dev->verifier()->findings();
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].kind, verify::Finding::Kind::kReadBeforeBarrier);
  EXPECT_TRUE(contains(fs[0].what, "has no completed barrier"))
      << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "leaky_reader")) << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "writer")) << fs[0].what;
}

/// 2. Misaligned DRAM read: the source address breaks the 256-bit rule of
/// Listing 4 (read_data_aligned exists precisely because of this).
TEST(VerifyGallery, MisalignedDramRead) {
  auto dev = Device::open({}, verify_config());
  auto src = dev->create_buffer({.size = 4096});

  Program prog;
  const std::vector<int> cores{0};
  auto l1 = prog.create_l1_buffer(cores, 2048);
  auto k = prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [l1_addr = prog.l1_buffer_address(l1)](DataMoverCtx& ctx) {
        // BUG: source offset by 2 bytes from the aligned buffer base.
        ctx.noc_async_read(ctx.get_noc_addr(ctx.arg64(0) + 2), l1_addr, 512);
        ctx.noc_async_read_barrier();
      },
      "misaligned_reader");
  std::vector<std::uint32_t> args;
  Program::push_arg64(args, src->address());
  prog.set_runtime_args(k, 0, args);
  dev->run_program(prog);

  const auto& fs = dev->verifier()->findings();
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].kind, verify::Finding::Kind::kMisalignedDramRead);
  EXPECT_TRUE(contains(fs[0].what, "256-bit DRAM alignment rule"))
      << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "misaligned_reader")) << fs[0].what;
}

/// 3. Unpaired semaphore wait: a kernel waits on a semaphore nothing ever
/// posts. The deadlock diagnoser must name the kernel and the semaphore, not
/// just report "kernel stuck".
TEST(VerifyGallery, UnpairedSemaphoreWait) {
  auto dev = Device::open({}, verify_config());
  Program prog;
  const std::vector<int> cores{0};
  prog.create_semaphore(7, cores, 0);
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [](DataMoverCtx& ctx) { ctx.semaphore_wait(7); }, "lonely_waiter");
  try {
    dev->run_program(prog);
    FAIL() << "deadlocked program completed";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "wait-for diagnosis")) << msg;
    EXPECT_TRUE(contains(msg, "stuck with no possible waker")) << msg;
    EXPECT_TRUE(contains(msg, "lonely_waiter")) << msg;
    EXPECT_TRUE(contains(msg, "semaphore 7")) << msg;
  }
}

/// 4. CB push/pop imbalance: the producer publishes one page, the consumer
/// demands two — it starves forever and the diagnosis says which CB and why.
TEST(VerifyGallery, CbPushPopImbalance) {
  auto dev = Device::open({}, verify_config());
  Program prog;
  const std::vector<int> cores{0};
  prog.create_cb(3, cores, 2048, 2);
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [](DataMoverCtx& ctx) {
        ctx.cb_reserve_back(3, 1);
        ctx.cb_push_back(3, 1);  // BUG: one page, consumer expects two
      },
      "half_producer");
  prog.create_kernel(
      KernelKind::kDataMover1, cores,
      [](DataMoverCtx& ctx) {
        ctx.cb_wait_front(3, 2);
        ctx.cb_pop_front(3, 2);
      },
      "greedy_consumer");
  try {
    dev->run_program(prog);
    FAIL() << "deadlocked program completed";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "wait-for diagnosis")) << msg;
    EXPECT_TRUE(contains(msg, "greedy_consumer")) << msg;
    EXPECT_TRUE(contains(msg, "CB 3 empty")) << msg;
    EXPECT_TRUE(contains(msg, "needs a producer push")) << msg;
  }
}

/// 5. Cross-core barrier-id mismatch: two kernels arrive at *different*
/// barriers, each expecting two participants. Neither rendezvous can ever
/// complete; the diagnosis names both kernels and both barrier ids.
TEST(VerifyGallery, BarrierIdMismatch) {
  auto dev = Device::open({}, verify_config());
  Program prog;
  prog.create_global_barrier(0, 2);
  prog.create_global_barrier(1, 2);
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.global_barrier(0); }, "group_a");
  prog.create_kernel(
      KernelKind::kDataMover0, {1},
      [](DataMoverCtx& ctx) { ctx.global_barrier(1); }, "group_b");
  try {
    dev->run_program(prog);
    FAIL() << "deadlocked program completed";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "wait-for diagnosis")) << msg;
    EXPECT_TRUE(contains(msg, "group_a")) << msg;
    EXPECT_TRUE(contains(msg, "group_b")) << msg;
    EXPECT_TRUE(contains(msg, "global barrier 0")) << msg;
    EXPECT_TRUE(contains(msg, "global barrier 1")) << msg;
  }
}

/// Builds the classic two-CB ping-pong where dm1 "forgets" one push: dm0
/// ends up waiting for a page only dm1 can produce while dm1 waits for a
/// page only dm0 can produce — a true wait cycle, visible through the CB
/// registry because both kernels produced and consumed earlier iterations.
void build_pingpong_deadlock(Program& prog) {
  const std::vector<int> cores{0};
  prog.create_cb(0, cores, 2048, 1);
  prog.create_cb(1, cores, 2048, 1);
  prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [](DataMoverCtx& ctx) {
        for (int it = 0;; ++it) {
          ctx.cb_reserve_back(0, 1);
          ctx.cb_push_back(0, 1);
          ctx.cb_wait_front(1, 1);  // blocks forever once dm1 skips a push
          ctx.cb_pop_front(1, 1);
          if (it >= 8) break;
        }
      },
      "pingpong_a");
  prog.create_kernel(
      KernelKind::kDataMover1, cores,
      [](DataMoverCtx& ctx) {
        for (int it = 0;; ++it) {
          ctx.cb_wait_front(0, 1);  // blocks forever after the skipped push
          ctx.cb_pop_front(0, 1);
          if (it != 5) {  // BUG: iteration 5 consumes without replying
            ctx.cb_reserve_back(1, 1);
            ctx.cb_push_back(1, 1);
          }
          if (it >= 8) break;
        }
      },
      "pingpong_b");
}

/// 6. Two-kernel CB deadlock: the diagnosis reports the actual cycle with
/// both kernels and the CB each is blocked on.
TEST(VerifyGallery, TwoKernelCbDeadlockCycle) {
  auto dev = Device::open({}, verify_config());
  Program prog;
  build_pingpong_deadlock(prog);
  try {
    dev->run_program(prog);
    FAIL() << "deadlocked program completed";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "wait cycle 1 (2 kernels)")) << msg;
    EXPECT_TRUE(contains(msg, "pingpong_a")) << msg;
    EXPECT_TRUE(contains(msg, "pingpong_b")) << msg;
    EXPECT_TRUE(contains(msg, "CB 1 empty")) << msg;
    EXPECT_TRUE(contains(msg, "CB 0 empty")) << msg;
  }
}

/// The same cycle under a watchdog timeout instead of quiescence: a third
/// kernel keeps the engine busy so the deadline fires mid-flight, and
/// DeviceTimeoutError must still carry the wait-cycle report (from registry
/// edges alone — structural guesses are not sound while events are pending).
TEST(VerifyGallery, TimeoutErrorCarriesWaitCycle) {
  DeviceConfig dc = verify_config();
  dc.sim_time_limit = 2 * kMillisecond;
  auto dev = Device::open({}, dc);
  auto scratch = dev->create_buffer({.size = 4096});

  Program prog;
  build_pingpong_deadlock(prog);
  auto spinner = prog.create_kernel(
      KernelKind::kDataMover0, {1},
      [](DataMoverCtx& ctx) {
        for (;;) {  // keeps DRAM events pending until the watchdog fires
          ctx.noc_async_read(ctx.get_noc_addr(ctx.arg64(0)), 0, 1024);
          ctx.noc_async_read_barrier();
        }
      },
      "spinner");
  std::vector<std::uint32_t> args;
  Program::push_arg64(args, scratch->address());
  prog.set_runtime_args(spinner, 1, args);
  try {
    dev->run_program(prog);
    FAIL() << "watchdog did not fire";
  } catch (const DeviceTimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "wait cycle 1 (2 kernels)")) << msg;
    EXPECT_TRUE(contains(msg, "pingpong_a")) << msg;
    EXPECT_TRUE(contains(msg, "pingpong_b")) << msg;
  }
}

/// 7. Read-ahead slot recycle (the PR 3 prologue hazard, distilled): a slot
/// is re-targeted by a new noc_async_read while a consumer's reads of the
/// previous landing are not yet ordered behind the issue. This is the exact
/// pattern the row-chunk program's continuous slot rotation rules out —
/// the detector must keep catching the pre-fix shape.
TEST(VerifyGallery, ReadAheadSlotRecycle) {
  auto dev = Device::open({}, verify_config());
  const std::uint32_t bytes = 1024;
  auto src = dev->create_buffer({.size = 8192});

  Program prog;
  const std::vector<int> cores{0};
  prog.create_cb(0, cores, bytes, 1);
  auto slot = prog.create_l1_buffer(cores, bytes);
  auto scratch = prog.create_l1_buffer(cores, bytes);
  auto burn = prog.create_l1_buffer(cores, 4096);
  const std::uint32_t slot_addr = prog.l1_buffer_address(slot);
  const std::uint32_t scratch_addr = prog.l1_buffer_address(scratch);
  const std::uint32_t burn_addr = prog.l1_buffer_address(burn);
  const std::uint32_t consumed = 256;  // short copy: finishes within the burn
  auto reader = prog.create_kernel(
      KernelKind::kDataMover0, cores,
      [slot_addr, burn_addr, bytes](DataMoverCtx& ctx) {
        const std::uint64_t a = ctx.arg64(0);
        ctx.cb_reserve_back(0, 1);
        ctx.noc_async_read(ctx.get_noc_addr(a), slot_addr, bytes, /*tag=*/0);
        ctx.noc_async_read_barrier(0);
        ctx.cb_push_back(0, 1);  // consumer may now read the slot
        // Burn a long DRAM round trip so the consumer's (short) read
        // definitely executes before the recycle below…
        ctx.noc_async_read(ctx.get_noc_addr(a + 4096), burn_addr, 4096);
        ctx.noc_async_read_barrier();
        // …then BUG: recycle the slot without any flow control proving the
        // consumer is done with it (the pre-fix column-boundary prologue).
        ctx.noc_async_read(ctx.get_noc_addr(a + 2048), slot_addr, bytes,
                           /*tag=*/1);
        ctx.noc_async_read_barrier(1);
      },
      "recycling_reader");
  prog.create_kernel(
      KernelKind::kDataMover1, cores,
      [slot_addr, scratch_addr, consumed](DataMoverCtx& ctx) {
        ctx.cb_wait_front(0, 1);
        ctx.l1_memcpy(scratch_addr, slot_addr, consumed);  // consumes the slot
        ctx.cb_pop_front(0, 1);
      },
      "slot_consumer");
  std::vector<std::uint32_t> args;
  Program::push_arg64(args, src->address());
  prog.set_runtime_args(reader, 0, args);
  dev->run_program(prog);

  const auto& fs = dev->verifier()->findings();
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].kind, verify::Finding::Kind::kInFlightClobber);
  EXPECT_TRUE(contains(fs[0].what, "slot recycled")) << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "recycling_reader")) << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "slot_consumer")) << fs[0].what;
}

/// 8. Conway with a missing halo barrier: the gallery's Life workload splits
/// the grid across cores and ships edge rows into the neighbour's halo slot
/// (noc_async_write_core + noc_semaphore_inc arrival post). The correct cell
/// update waits on the arrival semaphore before tapping the halo row for its
/// neighbour count; this one doesn't. The detector must name both kernels
/// and the unsynchronised landing — and the same program with the wait put
/// back must be clean, proving the diagnostic is about the missing barrier
/// and nothing else.
constexpr int kHaloSem = 3;

void build_conway_halo_program(Program& prog, std::uint64_t stall_dram_addr,
                               bool wait_for_halo) {
  const std::uint32_t row_bytes = 64 * 2;  // one 64-cell BF16 halo row
  const std::vector<int> cores{0, 1};
  prog.create_semaphore(kHaloSem, cores, 0);
  auto halo = prog.create_l1_buffer(cores, row_bytes);
  auto edge = prog.create_l1_buffer(cores, row_bytes);
  auto scratch = prog.create_l1_buffer(cores, row_bytes);
  const std::uint32_t halo_addr = prog.l1_buffer_address(halo);
  const std::uint32_t edge_addr = prog.l1_buffer_address(edge);
  const std::uint32_t scratch_addr = prog.l1_buffer_address(scratch);
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [halo_addr, edge_addr, row_bytes](DataMoverCtx& ctx) {
        // Ship this core's bottom interior row into the neighbour's halo
        // slot, then post the arrival semaphore (the sender is correct).
        ctx.noc_async_write_core(1, halo_addr, edge_addr, row_bytes);
        ctx.noc_semaphore_inc(1, kHaloSem);
      },
      "conway_halo_sender");
  prog.create_kernel(
      KernelKind::kDataMover0, {1},
      [halo_addr, scratch_addr, stall_dram_addr, row_bytes,
       wait_for_halo](DataMoverCtx& ctx) {
        // A DRAM round trip stands in for loading the core's own rows — and
        // guarantees the halo landing is recorded before the tap below, so
        // the broken variant exercises the write-then-read direction.
        ctx.noc_async_read(ctx.get_noc_addr(stall_dram_addr), scratch_addr,
                           row_bytes);
        ctx.noc_async_read_barrier();
        if (wait_for_halo) ctx.semaphore_wait(kHaloSem);
        // BUG (when !wait_for_halo): taps the halo row for the neighbour
        // count without waiting on the arrival semaphore.
        ctx.l1_memcpy(scratch_addr, halo_addr, row_bytes);
      },
      "conway_cell_update");
}

TEST(VerifyGallery, ConwayMissingHaloBarrier) {
  auto dev = Device::open({}, verify_config());
  auto stall = dev->create_buffer({.size = 4096});
  Program prog;
  build_conway_halo_program(prog, stall->address(), /*wait_for_halo=*/false);
  dev->run_program(prog);

  const auto& fs = dev->verifier()->findings();
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].kind, verify::Finding::Kind::kDataRace);
  EXPECT_TRUE(contains(fs[0].what, "noc_async_write_core landing"))
      << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "is not ordered before read")) << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "conway_halo_sender")) << fs[0].what;
  EXPECT_TRUE(contains(fs[0].what, "conway_cell_update")) << fs[0].what;
}

TEST(VerifyGallery, ConwayHaloBarrierRestoredIsClean) {
  auto dev = Device::open({}, verify_config());
  auto stall = dev->create_buffer({.size = 4096});
  Program prog;
  build_conway_halo_program(prog, stall->address(), /*wait_for_halo=*/true);
  dev->run_program(prog);
  EXPECT_TRUE(dev->verifier()->findings().empty());
}

}  // namespace
}  // namespace ttsim::ttmetal
