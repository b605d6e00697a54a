/// \file test_lint.cpp
/// Static linter unit tests: one hand-built ProgramInfo/DeviceInfo scenario
/// per LintError::Code, plus integration through Program::verify_info() /
/// Device::lint_program on real programs (clean program stays clean; a
/// fault-plan-killed core is reported before launch).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ttsim/sim/fault.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/ttmetal/program.hpp"
#include "ttsim/verify/lint.hpp"

namespace ttsim {
namespace {

using verify::DeviceInfo;
using verify::LintError;
using verify::ProgramInfo;

DeviceInfo small_device() {
  DeviceInfo d;
  d.num_workers = 4;
  d.sram_bytes = 1024 * 1024;
  d.dram_align_bytes = 32;
  return d;
}

/// A minimal well-formed program: dm0 + compute on core 0, so CBs and
/// semaphores placed there have a producer/consumer pair available.
ProgramInfo base_program() {
  ProgramInfo p;
  p.kernels.push_back({/*kind=*/0, {0}, "reader"});
  p.kernels.push_back({/*kind=*/2, {0}, "compute"});
  return p;
}

bool has(const std::vector<LintError>& errors, LintError::Code code) {
  return std::any_of(errors.begin(), errors.end(),
                     [code](const LintError& e) { return e.code == code; });
}

std::string dump(const std::vector<LintError>& errors) {
  return verify::format_lint(errors);
}

TEST(Lint, CleanProgramHasNoFindings) {
  ProgramInfo p = base_program();
  p.cbs.push_back({/*cb_id=*/0, {0}, /*page_size=*/1024, /*num_pages=*/2,
                   /*planned_address=*/0});
  p.semaphores.push_back({/*sem_id=*/0, {0}, /*initial=*/0});
  p.barriers.push_back({/*barrier_id=*/0, /*participants=*/2});
  p.l1_buffers.push_back({{0}, /*size=*/256, /*align=*/32,
                          /*planned_address=*/2048});
  const auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(errors.empty()) << dump(errors);
}

TEST(Lint, BadCoreId) {
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/1, {9}, "off-grid"});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kBadCoreId)) << dump(errors);
  const auto& e = errors.front();
  EXPECT_EQ(e.core, 9);
  EXPECT_NE(e.message.find("off-grid"), std::string::npos) << e.message;
  EXPECT_NE(e.message.find("outside the worker grid"), std::string::npos);
}

TEST(Lint, NegativeCoreIdIsAlsoBad) {
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/1, {-3}, "negative"});
  const auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(has(errors, LintError::Code::kBadCoreId)) << dump(errors);
}

TEST(Lint, DeadCore) {
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/1, {2}, "doomed"});
  DeviceInfo d = small_device();
  d.failed_cores = {2};
  const auto errors = verify::lint(p, d);
  ASSERT_TRUE(has(errors, LintError::Code::kDeadCore)) << dump(errors);
  EXPECT_NE(errors.front().message.find("fault plan has killed"),
            std::string::npos);
}

TEST(Lint, DuplicateCb) {
  ProgramInfo p = base_program();
  p.cbs.push_back({/*cb_id=*/3, {0}, 1024, 2, 0});
  p.cbs.push_back({/*cb_id=*/3, {0}, 1024, 2, 4096});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kDuplicateCb)) << dump(errors);
}

TEST(Lint, BadCbGeometry) {
  // Zero pages, zero page size, and a page size off the 32 B DRAM granule
  // are each rejected.
  for (const auto& [page_size, num_pages] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0u, 2u}, {1024u, 0u}, {48u, 2u}}) {
    ProgramInfo p = base_program();
    p.cbs.push_back({/*cb_id=*/1, {0}, page_size, num_pages, 0});
    const auto errors = verify::lint(p, small_device());
    EXPECT_TRUE(has(errors, LintError::Code::kBadCbGeometry))
        << page_size << " x " << num_pages << "\n"
        << dump(errors);
  }
}

TEST(Lint, OrphanCb) {
  // CB on core 1, where only a single kernel runs: no producer/consumer
  // pair can exist there.
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/0, {1}, "lonely"});
  p.cbs.push_back({/*cb_id=*/0, {1}, 1024, 2, 0});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kOrphanCb)) << dump(errors);
  EXPECT_NE(errors.front().message.find("producer and a consumer"),
            std::string::npos);
}

TEST(Lint, KernelLocalCbNeedsOnlyItsKernel) {
  // A kernel-local CB is one kernel's scratch: a compute-only core is a
  // valid home. The same CB undeclared still needs a producer/consumer
  // pair, and a kernel-local CB on a core with no kernel is still orphaned.
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/0, {1}, "compute-only"});
  p.cbs.push_back({/*cb_id=*/5, {1}, 1024, 2, 0, /*kernel_local=*/true});
  auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(errors.empty()) << dump(errors);

  p.cbs.back().kernel_local = false;
  errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kOrphanCb)) << dump(errors);
  EXPECT_NE(errors.front().message.find("producer and a consumer"),
            std::string::npos);

  p.cbs.back() = {/*cb_id=*/5, {2}, 1024, 2, 0, /*kernel_local=*/true};
  errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kOrphanCb)) << dump(errors);
  EXPECT_NE(errors.front().message.find("needs its kernel"), std::string::npos);
}

TEST(Lint, DuplicateSemaphore) {
  ProgramInfo p = base_program();
  p.semaphores.push_back({/*sem_id=*/5, {0}, 0});
  p.semaphores.push_back({/*sem_id=*/5, {0}, 1});
  const auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(has(errors, LintError::Code::kDuplicateSemaphore)) << dump(errors);
}

TEST(Lint, OrphanSemaphore) {
  ProgramInfo p = base_program();
  p.semaphores.push_back({/*sem_id=*/2, {3}, 0});  // no kernel on core 3
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kOrphanSemaphore)) << dump(errors);
  EXPECT_NE(errors.front().message.find("no kernel runs there"),
            std::string::npos);
}

TEST(Lint, DuplicateBarrier) {
  ProgramInfo p = base_program();
  p.barriers.push_back({/*barrier_id=*/0, 2});
  p.barriers.push_back({/*barrier_id=*/0, 1});
  const auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(has(errors, LintError::Code::kDuplicateBarrier)) << dump(errors);
}

TEST(Lint, BadBarrierNonPositiveParticipants) {
  ProgramInfo p = base_program();
  p.barriers.push_back({/*barrier_id=*/1, 0});
  const auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(has(errors, LintError::Code::kBadBarrier)) << dump(errors);
}

TEST(Lint, BadBarrierMoreParticipantsThanKernels) {
  ProgramInfo p = base_program();  // 2 kernel instances total
  p.barriers.push_back({/*barrier_id=*/1, 3});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kBadBarrier)) << dump(errors);
  EXPECT_NE(errors.front().message.find("can never complete"),
            std::string::npos);
}

TEST(Lint, SramOverflow) {
  ProgramInfo p = base_program();
  p.cbs.push_back({/*cb_id=*/0, {0}, /*page_size=*/512 * 1024,
                   /*num_pages=*/4, /*planned_address=*/0});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kSramOverflow)) << dump(errors);
  EXPECT_NE(errors.front().message.find("core SRAM"), std::string::npos);
}

TEST(Lint, BufferOverlap) {
  ProgramInfo p = base_program();
  p.cbs.push_back({/*cb_id=*/0, {0}, 1024, 2, /*planned_address=*/0});
  p.l1_buffers.push_back({{0}, /*size=*/256, 32, /*planned_address=*/1024});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kBufferOverlap)) << dump(errors);
  EXPECT_NE(errors.front().message.find("overlap on core 0"),
            std::string::npos);
}

TEST(Lint, DuplicateKernel) {
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/0, {0}, "second-reader"});
  const auto errors = verify::lint(p, small_device());
  ASSERT_TRUE(has(errors, LintError::Code::kDuplicateKernel)) << dump(errors);
  EXPECT_NE(errors.front().message.find("second-reader"), std::string::npos);
  EXPECT_NE(errors.front().message.find("exactly one kernel"),
            std::string::npos);
}

TEST(Lint, EmptyCoreList) {
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/1, {}, "nowhere"});
  const auto errors = verify::lint(p, small_device());
  EXPECT_TRUE(has(errors, LintError::Code::kEmptyCoreList)) << dump(errors);
}

TEST(Lint, FormatOnePerLineWithCodeSlug) {
  ProgramInfo p = base_program();
  p.kernels.push_back({/*kind=*/1, {9}, "off-grid"});
  p.kernels.push_back({/*kind=*/1, {}, "nowhere"});
  const auto errors = verify::lint(p, small_device());
  const std::string text = verify::format_lint(errors);
  EXPECT_NE(text.find("lint: bad-core-id: "), std::string::npos) << text;
  EXPECT_NE(text.find("lint: empty-core-list: "), std::string::npos) << text;
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            errors.size());
}

TEST(Lint, CodeSlugsAreDistinct) {
  const LintError::Code codes[] = {
      LintError::Code::kBadCoreId,          LintError::Code::kDeadCore,
      LintError::Code::kDuplicateCb,        LintError::Code::kBadCbGeometry,
      LintError::Code::kOrphanCb,           LintError::Code::kDuplicateSemaphore,
      LintError::Code::kOrphanSemaphore,    LintError::Code::kDuplicateBarrier,
      LintError::Code::kBadBarrier,         LintError::Code::kSramOverflow,
      LintError::Code::kBufferOverlap,      LintError::Code::kDuplicateKernel,
      LintError::Code::kEmptyCoreList,      LintError::Code::kCbCreditImbalance,
      LintError::Code::kCbOvercommit,       LintError::Code::kSemImbalance,
      LintError::Code::kSlotReuse,          LintError::Code::kWaitCycle,
  };
  std::vector<std::string> names;
  for (const auto c : codes) names.emplace_back(verify::to_string(c));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// --- integration: real Program + Device snapshots ---

TEST(LintDevice, RealCleanProgramPasses) {
  auto dev = ttmetal::Device::open({}, {});
  ttmetal::Program prog;
  prog.create_cb(0, {0}, 1024, 2);
  prog.create_semaphore(0, {0}, 0);
  prog.create_global_barrier(0, 2);
  prog.create_kernel(ttmetal::KernelKind::kDataMover0, {0},
                     [](ttmetal::DataMoverCtx&) {}, "reader");
  prog.create_kernel({0}, [](ttmetal::ComputeCtx&) {}, "compute");
  const auto errors = dev->lint_program(prog);
  EXPECT_TRUE(errors.empty()) << dump(errors);
}

TEST(LintDevice, KilledCoreIsReportedBeforeLaunch) {
  sim::FaultConfig fc;
  fc.core_kills.push_back({/*core=*/1, /*at=*/0});
  ttmetal::DeviceConfig dc;
  dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  auto dev = ttmetal::Device::open({}, dc);
  ttmetal::Program prog;
  prog.create_kernel(ttmetal::KernelKind::kDataMover0, {1},
                     [](ttmetal::DataMoverCtx&) {}, "doomed");
  const auto errors = dev->lint_program(prog);
  ASSERT_TRUE(has(errors, LintError::Code::kDeadCore)) << dump(errors);
  EXPECT_EQ(errors.front().core, 1);
}

TEST(LintDevice, PlannedAddressesFeedOverlapCheck) {
  // Program's bump-allocator mirror assigns disjoint addresses, so a real
  // program never self-overlaps — the planned addresses must round-trip
  // through verify_info() intact.
  auto dev = ttmetal::Device::open({}, {});
  ttmetal::Program prog;
  prog.create_cb(0, {0, 1}, 2048, 4);
  prog.create_cb(1, {0, 1}, 2048, 4);
  prog.create_l1_buffer({0, 1}, 4096);
  prog.create_kernel(ttmetal::KernelKind::kDataMover0, {0, 1},
                     [](ttmetal::DataMoverCtx&) {}, "reader");
  prog.create_kernel({0, 1}, [](ttmetal::ComputeCtx&) {}, "compute");
  const auto info = prog.verify_info();
  ASSERT_EQ(info.cbs.size(), 2u);
  EXPECT_NE(info.cbs[0].planned_address, info.cbs[1].planned_address);
  const auto errors = dev->lint_program(prog);
  EXPECT_TRUE(errors.empty()) << dump(errors);
}

}  // namespace
}  // namespace ttsim
