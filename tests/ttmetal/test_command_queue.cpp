/// Async command queues: overlap, event ordering, error surfacing on the
/// enqueued (non-blocking) paths, timeline determinism, and the PCIe
/// transfer chain's checksum/retry contract.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ttsim/sim/fault.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::ttmetal {
namespace {

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 31 + 7);
  return v;
}

TEST(CommandQueue, AsyncTransferOverlapsKernel) {
  // Serial reference: program then write, blocking.
  auto serial = Device::open();
  Program prog_a;
  prog_a.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.spin(2 * kMillisecond); }, "spin");
  const auto data = pattern(4 * MiB);
  auto buf_a = serial->create_buffer({.size = data.size()});
  const SimTime serial_start = serial->now();
  serial->run_program(prog_a);
  serial->write_buffer(*buf_a, data);
  const SimTime serial_span = serial->now() - serial_start;

  // Async: the same work on two queues; the PCIe write rides under the
  // kernel, so the makespan shrinks by (almost) the transfer time.
  auto async = Device::open();
  Program prog_b;
  prog_b.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.spin(2 * kMillisecond); }, "spin");
  auto buf_b = async->create_buffer({.size = data.size()});
  const SimTime async_start = async->now();
  async->command_queue(1).enqueue_program(prog_b, /*blocking=*/false);
  async->command_queue(0).enqueue_write_buffer(*buf_b, data, /*blocking=*/false);
  async->command_queue(0).finish();
  async->command_queue(1).finish();
  const SimTime async_span = async->now() - async_start;

  EXPECT_LT(async_span, serial_span);
  // The write landed intact despite running concurrently.
  std::vector<std::byte> back(data.size());
  async->read_buffer(*buf_b, back);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(CommandQueue, EventsOrderAcrossQueues) {
  auto dev = Device::open();
  const auto data = pattern(1 * MiB);
  auto buf = dev->create_buffer({.size = data.size()});

  auto& cq_write = dev->command_queue(0);
  auto& cq_kernel = dev->command_queue(1);
  cq_write.enqueue_write_buffer(*buf, data, /*blocking=*/false);
  Event write_done = cq_write.record_event();

  Program prog;
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.spin(1 * kMicrosecond); }, "gated");
  cq_kernel.wait_for_event(write_done);
  cq_kernel.enqueue_program(prog, /*blocking=*/false);
  Event kernel_done = cq_kernel.record_event();

  EXPECT_FALSE(write_done.completed());
  EXPECT_FALSE(kernel_done.completed());
  dev->synchronize(kernel_done);
  ASSERT_TRUE(write_done.completed());
  ASSERT_TRUE(kernel_done.completed());
  // The gated program ran strictly after the transfer completed.
  EXPECT_GE(kernel_done.completed_at(),
            write_done.completed_at() + 1 * kMicrosecond);
}

TEST(CommandQueue, SynchronizeOnCompletedEventIsImmediate) {
  auto dev = Device::open();
  auto& cq = dev->command_queue(0);
  Event e = cq.record_event();  // empty queue: completes inline
  EXPECT_TRUE(e.completed());
  dev->synchronize(e);  // no-op, must not deadlock
  EXPECT_EQ(e.completed_at(), 0u);
}

TEST(CommandQueue, InvalidEventQueriesThrow) {
  Event e;
  EXPECT_FALSE(e.valid());
  EXPECT_FALSE(e.completed());
  EXPECT_THROW(e.completed_at(), ApiError);
  auto dev = Device::open();
  EXPECT_THROW(dev->synchronize(e), CheckError);
}

TEST(CommandQueue, CrossDeviceEventRejected) {
  auto a = Device::open();
  auto b = Device::open();
  Event e = a->command_queue(0).record_event();
  EXPECT_THROW(b->command_queue(0).wait_for_event(e), CheckError);
  EXPECT_THROW(b->synchronize(e), CheckError);
}

TEST(CommandQueue, EnqueuedProgramTimeoutSurfacesAtFinish) {
  // The watchdog contract holds on the enqueued path too: the error arrives
  // at finish(), typed, naming the stuck kernel.
  auto dev = Device::open({}, {.sim_time_limit = 50 * kMillisecond});
  Program prog;
  prog.create_semaphore(0, {0}, 0);
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) {
        ctx.spin(1 * kMicrosecond);
        ctx.semaphore_wait(0);
      },
      "stuck_async");
  auto& cq = dev->command_queue(0);
  cq.enqueue_program(prog, /*blocking=*/false);
  try {
    cq.finish();
    FAIL() << "expected watchdog timeout";
  } catch (const DeviceTimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck_async@0"), std::string::npos);
  }
  // Partial-profile contract: the entry is retained, unfinished, with the
  // activity charged before the hang.
  ASSERT_EQ(dev->last_profile().size(), 1u);
  EXPECT_FALSE(dev->last_profile()[0].finished);
  EXPECT_GE(dev->last_profile()[0].active, 1 * kMicrosecond);
  EXPECT_LT(dev->last_profile()[0].active, 2 * kMicrosecond);
  // The watchdog fires at drain time, so the unfinished kernel's lifetime is
  // clamped there — at (not before) the activity charged so far.
  EXPECT_GE(dev->last_profile()[0].lifetime, dev->last_profile()[0].active);
}

TEST(Watchdog, PrivateWorkThatNeverSyncsTimesOutAtTheDeadline) {
  // A fault-free kernel looping on private work reaches no shared op, so
  // only the lag bound makes it yield: the watchdog then stops it at the
  // deadline like any other stuck kernel. Without the bound the loop never
  // returns to the engine (the ctest TIMEOUT turns that hang into a failure).
  // The kernel syncs half-way first, so a bound on the lag alone, rather
  // than on the clock, would let it count work past the deadline.
  const SimTime limit = 10 * kMicrosecond;  // a whole number of loop ticks
  auto dev = Device::open({}, {.sim_time_limit = limit});
  Program prog;
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [limit](DataMoverCtx& ctx) {
        ctx.spin(limit / 2);
        while (true) ctx.loop_tick();
      },
      "livelock");
  try {
    dev->run_program(prog);
    FAIL() << "expected watchdog timeout";
  } catch (const DeviceTimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("livelock@0"), std::string::npos) << e.what();
  }
  EXPECT_EQ(dev->now(), dev->spec().program_dispatch + limit);
  ASSERT_EQ(dev->last_profile().size(), 1u);
  const KernelProfile& p = dev->last_profile()[0];
  EXPECT_FALSE(p.finished);
  // Every tick up to the deadline, and the one in flight across it.
  EXPECT_EQ(p.active, limit + dev->spec().loop_overhead);
}

TEST(CommandQueue, WedgedDeviceRejectsQueuedPrograms) {
  auto dev = Device::open({}, {.sim_time_limit = 50 * kMillisecond});
  Program hang;
  hang.create_semaphore(0, {0}, 0);
  hang.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.semaphore_wait(0); }, "hang");
  auto& cq = dev->command_queue(0);
  cq.enqueue_program(hang, /*blocking=*/false);
  EXPECT_THROW(cq.finish(), DeviceTimeoutError);

  Program after;
  after.create_kernel(
      KernelKind::kDataMover0, {1}, [](DataMoverCtx&) {}, "after");
  cq.enqueue_program(after, /*blocking=*/false);
  try {
    cq.finish();
    FAIL() << "expected wedged rejection";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("wedged"), std::string::npos);
  }
}

TEST(CommandQueue, ValidationErrorNamesBufferOnEnqueuedPath) {
  auto dev = Device::open();
  auto buf = dev->create_buffer({.size = 512, .name = "grid-async"});
  std::vector<std::byte> big(1024);
  try {
    dev->command_queue(0).enqueue_write_buffer(*buf, big, /*blocking=*/false);
    FAIL() << "expected range validation";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("grid-async"), std::string::npos);
  }
}

TEST(CommandQueue, TimelineIsDeterministic) {
  // The same enqueue sequence on two fresh devices produces identical
  // simulated completion times — the property the serving layer builds on.
  auto run = [] {
    auto dev = Device::open();
    const auto data = pattern(2 * MiB);
    auto buf = dev->create_buffer({.size = data.size()});
    Program prog;
    prog.create_kernel(
        KernelKind::kDataMover0, {0, 1, 2},
        [](DataMoverCtx& ctx) { ctx.spin(300 * kMicrosecond); }, "work");
    auto& cq_write = dev->command_queue(0);
    auto& cq_kernel = dev->command_queue(1);
    cq_write.enqueue_write_buffer(*buf, data, false);
    Event w = cq_write.record_event();
    cq_kernel.wait_for_event(w);
    cq_kernel.enqueue_program(prog, false);
    Event k = cq_kernel.record_event();
    dev->synchronize(k);
    return std::make_pair(w.completed_at(), k.completed_at());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

TEST(CommandQueue, QueueIdValidated) {
  auto dev = Device::open();
  EXPECT_THROW(dev->command_queue(-1), CheckError);
  EXPECT_THROW(dev->command_queue(64), CheckError);
  EXPECT_EQ(dev->command_queue(63).id(), 63);
}

TEST(CommandQueue, CancelQueuesDropsUnstartedWorkOnStuckDevice) {
  // A deadlocked program leaves a backlog parked behind it. Failure
  // handling completes the hung head and pumps the queue, so a record
  // directly behind the hang still fires — the durable backlog is whatever
  // sits behind the NEXT command the pump starts (here a second hang) plus
  // any queue parked on an event that will now never be recorded. The owner
  // — the serving layer — cancels that backlog before tearing the device
  // down; cancelled commands never run and parked waits are unregistered.
  auto dev = Device::open();  // no watchdog: the hang surfaces as a deadlock
  auto make_hang = [] {
    Program p;
    p.create_semaphore(0, {0}, 0);
    p.create_kernel(
        KernelKind::kDataMover0, {0},
        [](DataMoverCtx& ctx) { ctx.semaphore_wait(0); }, "hang");
    return p;
  };
  Program hang1 = make_hang();
  Program hang2 = make_hang();
  auto& cq0 = dev->command_queue(0);
  auto& cq1 = dev->command_queue(1);
  cq0.enqueue_program(hang1, /*blocking=*/false);
  cq0.enqueue_program(hang2, /*blocking=*/false);
  Event gate = cq0.record_event();  // unstarted behind the second hang
  cq1.wait_for_event(gate);         // parks cq1 on the doomed event
  Program after;
  after.create_kernel(
      KernelKind::kDataMover0, {1}, [](DataMoverCtx&) {}, "after");
  cq1.enqueue_program(after, /*blocking=*/false);
  Event never = cq1.record_event();

  EXPECT_THROW(cq0.finish(), DeadlockError);

  // cq0's record + cq1's wait/program/record; the started hang stays.
  EXPECT_EQ(dev->cancel_queues(), 4u);
  EXPECT_FALSE(gate.completed());
  EXPECT_FALSE(never.completed());
  // With the backlog gone the other queues are empty: finish() returns
  // without replaying the hang.
  cq1.finish();
}

// --- PCIe staging -----------------------------------------------------------
// The transfer state machine's checksum/retry contract and payload
// ownership, pinned byte for byte. Device contents are seeded and inspected
// through the DRAM model's functional host access, so the only FaultPlan
// rolls in each test are those of the transfer under test.

constexpr std::size_t kStagedBytes = 64 * KiB;

// With pcie_corrupt_prob = 0.5 this seed corrupts the first transfer
// attempt and spares the second.
constexpr std::uint64_t kCorruptOnceSeed = 5;

std::unique_ptr<Device> open_faulty(std::uint64_t seed, double corrupt_prob,
                                    bool checksum) {
  sim::FaultConfig fc;
  fc.seed = seed;
  fc.pcie_corrupt_prob = corrupt_prob;
  DeviceConfig dc;
  dc.checksum_transfers = checksum;
  dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  return Device::open({}, dc);
}

std::vector<const sim::FaultEvent*> pcie_corruptions(const sim::FaultPlan& plan) {
  std::vector<const sim::FaultEvent*> hits;
  for (const auto& e : plan.trace()) {
    if (e.kind == sim::FaultKind::kPcieCorrupt) hits.push_back(&e);
  }
  return hits;
}

// One attempt on the bus: setup latency plus the payload at PCIe bandwidth.
SimTime attempt_time(const Device& dev, std::size_t bytes) {
  return dev.spec().pcie_latency + transfer_time(bytes, dev.spec().pcie_gbs);
}

std::vector<std::byte> device_bytes(Device& dev, const Buffer& buf) {
  std::vector<std::byte> v(buf.size());
  dev.hw().dram().host_read(buf.address(), v.data(), v.size());
  return v;
}

std::vector<std::size_t> differing_offsets(const std::vector<std::byte>& a,
                                           const std::vector<std::byte>& b) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) at.push_back(i);
  }
  return at;
}

// A blocking write lands straight from the caller's bytes and only reads
// them: here they sit on a read-only page, so a write into them (say, of the
// corrupted byte) would fault.
TEST(PcieTransfer, ChecksummedWriteRetriesPastOneCorruption) {
  auto dev = open_faulty(kCorruptOnceSeed, 0.5, /*checksum=*/true);
  const auto data = pattern(kStagedBytes);
  void* page = mmap(nullptr, kStagedBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  std::memcpy(page, data.data(), kStagedBytes);
  ASSERT_EQ(mprotect(page, kStagedBytes, PROT_READ), 0);
  auto buf = dev->create_buffer({.size = kStagedBytes});
  dev->write_buffer(*buf, {static_cast<const std::byte*>(page), kStagedBytes});
  munmap(page, kStagedBytes);

  ASSERT_EQ(pcie_corruptions(*dev->fault_plan()).size(), 1u)
      << dev->fault_plan()->trace_string();
  EXPECT_EQ(dev->transfer_retries(), 1u);
  // Two acknowledged attempts with the first backoff between them.
  const SimTime acked = attempt_time(*dev, kStagedBytes) + dev->spec().pcie_latency;
  EXPECT_EQ(dev->pcie_time(), 2 * acked + dev->config().transfer_retry_backoff);
  EXPECT_EQ(device_bytes(*dev, *buf), data);
}

TEST(PcieTransfer, ChecksummedReadRetriesPastOneCorruption) {
  auto dev = open_faulty(kCorruptOnceSeed, 0.5, /*checksum=*/true);
  const auto data = pattern(kStagedBytes);
  auto buf = dev->create_buffer({.size = kStagedBytes});
  dev->hw().dram().host_write(buf->address(), data.data(), data.size());
  std::vector<std::byte> out(kStagedBytes);
  dev->read_buffer(*buf, out);

  ASSERT_EQ(pcie_corruptions(*dev->fault_plan()).size(), 1u)
      << dev->fault_plan()->trace_string();
  EXPECT_EQ(dev->transfer_retries(), 1u);
  // Two acknowledged attempts with the first backoff between them.
  const SimTime acked = attempt_time(*dev, kStagedBytes) + dev->spec().pcie_latency;
  EXPECT_EQ(dev->pcie_time(), 2 * acked + dev->config().transfer_retry_backoff);
  EXPECT_EQ(out, data);
  EXPECT_EQ(device_bytes(*dev, *buf), data);
}

// Without checksums a corrupted transfer is delivered as is: one byte off by
// 0x40, at the offset the fault trace names, and no retry.
TEST(PcieTransfer, UncheckedTransfersDeliverTheCorruptedByte) {
  auto dev = open_faulty(/*seed=*/9, 1.0, /*checksum=*/false);
  const auto data = pattern(kStagedBytes);
  auto buf = dev->create_buffer({.size = kStagedBytes});

  dev->write_buffer(*buf, data);
  const auto landed = device_bytes(*dev, *buf);
  const auto write_diff = differing_offsets(landed, data);
  ASSERT_EQ(write_diff.size(), 1u);
  EXPECT_EQ(landed[write_diff[0]] ^ data[write_diff[0]], std::byte{0x40});

  std::vector<std::byte> out(kStagedBytes);
  dev->read_buffer(*buf, out);
  const auto read_diff = differing_offsets(out, landed);
  ASSERT_EQ(read_diff.size(), 1u);
  EXPECT_EQ(out[read_diff[0]] ^ landed[read_diff[0]], std::byte{0x40});
  EXPECT_EQ(device_bytes(*dev, *buf), landed);  // a read leaves the card alone

  const auto hits = pcie_corruptions(*dev->fault_plan());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->addr, write_diff[0]);
  EXPECT_EQ(hits[1]->addr, read_diff[0]);
  EXPECT_EQ(dev->transfer_retries(), 0u);
  EXPECT_EQ(dev->pcie_time(), 2 * attempt_time(*dev, kStagedBytes));
}

// Once a blocking write has thrown, nothing holds the caller's bytes: they
// are freed before the queues are cancelled and the card is torn down (a
// stray read is a heap-use-after-free under the sanitize preset).
TEST(PcieTransfer, FailedBlockingWriteKeepsNoHoldOnTheCallersBytes) {
  auto dev = open_faulty(/*seed=*/9, 1.0, /*checksum=*/true);
  auto buf = dev->create_buffer({.size = kStagedBytes});
  auto data = std::make_unique<std::vector<std::byte>>(pattern(kStagedBytes));
  EXPECT_THROW(dev->write_buffer(*buf, *data), TransferError);
  EXPECT_EQ(dev->transfer_retries(),
            static_cast<std::uint64_t>(dev->config().transfer_max_retries));
  data.reset();
  EXPECT_EQ(dev->cancel_queues(), 0u);
  EXPECT_EQ(dev->command_queue(0).pending(), 0u);
  buf.reset();
  dev.reset();
}

// Another command's error can surface while a blocking write is still on the
// bus. The write then outlives the call, so it lands a copy of the payload,
// not whatever the caller's memory holds afterwards.
TEST(PcieTransfer, BlockingWriteCutShortByAnotherErrorLandsItsPayload) {
  auto dev = Device::open();
  // Longer on the bus than the program's dispatch delay plus its spin.
  const std::size_t bytes = 16 * MiB;
  ASSERT_GT(attempt_time(*dev, bytes), dev->spec().program_dispatch + kMicrosecond);
  auto data = pattern(bytes);
  const auto original = data;
  auto buf = dev->create_buffer({.size = bytes});
  Program faulty;
  faulty.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) {
        ctx.spin(1 * kMicrosecond);
        throw std::runtime_error("kernel fault");
      },
      "faulty");
  dev->command_queue(1).enqueue_program(faulty, /*blocking=*/false);
  EXPECT_THROW(dev->write_buffer(*buf, data), std::runtime_error);
  auto& cq = dev->command_queue(0);
  ASSERT_EQ(cq.pending(), 1u);  // the write is still in flight
  std::fill(data.begin(), data.end(), std::byte{0});
  cq.finish();
  EXPECT_EQ(device_bytes(*dev, *buf), original);
}

TEST(PcieTransfer, NonBlockingWriteLandsThePayloadAsEnqueued) {
  auto dev = Device::open();
  auto data = pattern(kStagedBytes);
  const auto original = data;
  auto buf = dev->create_buffer({.size = kStagedBytes});
  auto& cq = dev->command_queue(0);
  cq.enqueue_write_buffer(*buf, data, /*blocking=*/false);
  std::fill(data.begin(), data.end(), std::byte{0});
  ASSERT_EQ(cq.pending(), 1u);  // still on the bus when the source changed
  cq.finish();
  EXPECT_EQ(device_bytes(*dev, *buf), original);
}

// The engine hands each wakeup straight from the blocking kernel to the next
// one. The host driver must not notice: errors, watchdog verdicts, teardown
// and every simulated time stay as they were with one switch back to the
// scheduler per event.

TEST(EngineHandoff, KernelFaultAfterAHandoffSurfacesFromSynchronize) {
  auto dev = Device::open();
  Program prog;
  prog.create_kernel(
      KernelKind::kDataMover0, {0},
      [](DataMoverCtx& ctx) { ctx.spin(2 * kMicrosecond); }, "spinner");
  // Started by the spinner's handoff, then woken by its own delay.
  prog.create_kernel(
      KernelKind::kDataMover0, {1},
      [](DataMoverCtx& ctx) {
        ctx.spin(1 * kMicrosecond);
        throw std::runtime_error("kernel fault");
      },
      "faulty");
  auto& cq = dev->command_queue(0);
  cq.enqueue_program(prog, /*blocking=*/false);
  const Event done = cq.record_event();
  EXPECT_THROW(dev->synchronize(done), std::runtime_error);
  // The failed program's partial profile: neither kernel ran to its end.
  ASSERT_EQ(dev->last_profile().size(), 2u);
  EXPECT_FALSE(dev->last_profile()[0].finished);
  EXPECT_FALSE(dev->last_profile()[1].finished);
  EXPECT_EQ(dev->now(), dev->spec().program_dispatch + 1 * kMicrosecond);
}

TEST(EngineHandoff, WedgedDeviceTeardownUnwindsEveryParkedKernel) {
  struct CountsDestruction {
    int* count;
    ~CountsDestruction() { ++*count; }
  };
  int destroyed = 0;
  {
    auto dev = Device::open({}, {.sim_time_limit = 50 * kMillisecond});
    Program hang;
    hang.create_semaphore(0, {0, 1}, 0);
    // The first kernel to block hands off to the second and stays parked
    // in that switch; the second finds nothing left to run and yields.
    for (const int core : {0, 1}) {
      hang.create_kernel(
          KernelKind::kDataMover0, {core},
          [&destroyed](DataMoverCtx& ctx) {
            const CountsDestruction guard{&destroyed};
            ctx.semaphore_wait(0);
          },
          "hang");
    }
    EXPECT_THROW(dev->run_program(hang), DeviceTimeoutError);
    EXPECT_TRUE(dev->wedged());
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(EngineHandoff, WatchdogBetweenLockstepDelaysFiresAtThePinnedTime) {
  // Two kernels delay in lockstep, so every wakeup is a handoff; the
  // deadline falls half-way between two of their delays.
  auto dev = Device::open({}, {.sim_time_limit = 10 * kMicrosecond + 500});
  Program prog;
  for (const int core : {0, 1}) {
    prog.create_kernel(
        KernelKind::kDataMover0, {core},
        [](DataMoverCtx& ctx) {
          for (int i = 0; i < 100; ++i) ctx.spin(1 * kMicrosecond);
        },
        "lockstep");
  }
  EXPECT_THROW(dev->run_program(prog), DeviceTimeoutError);
  EXPECT_EQ(dev->now(), 510 * kMicrosecond);
  EXPECT_EQ(dev->hw().engine().events_processed(), 23u);
}

TEST(EngineHandoff, MixedTimelineIsPinned) {
  // Kernel wakeups (lockstep and staggered delays, self-wakes) interleave
  // with the PCIe transfer's callbacks on another queue.
  auto dev = Device::open();
  const auto data = pattern(1 * MiB);
  auto buf = dev->create_buffer({.size = data.size()});
  Program prog;
  prog.create_kernel(
      KernelKind::kDataMover0, {0, 1, 2, 3},
      [](DataMoverCtx& ctx) {
        const SimTime step = (1 + ctx.core_id() % 2) * 10 * kMicrosecond;
        for (int i = 0; i < 8; ++i) ctx.spin(step);
      },
      "mixed");
  auto& cq_write = dev->command_queue(0);
  auto& cq_kernel = dev->command_queue(1);
  cq_write.enqueue_write_buffer(*buf, data, /*blocking=*/false);
  const Event written = cq_write.record_event();
  cq_kernel.enqueue_program(prog, /*blocking=*/false);
  const Event ran = cq_kernel.record_event();
  dev->synchronize(ran);
  EXPECT_EQ(dev->now(), 660 * kMicrosecond);
  EXPECT_EQ(dev->hw().engine().events_processed(), 38u);
  EXPECT_TRUE(written.completed());
}

}  // namespace
}  // namespace ttsim::ttmetal
