#pragma once
/// \file lint.hpp
/// Static program linter: walks a snapshot of a ttmetal Program's declared
/// resources (CBs, semaphores, barriers, L1 buffers, kernel placements)
/// against a device snapshot, before anything is launched, and reports
/// protocol violations that would otherwise surface as hangs, silent
/// corruption or launch-time check failures deep inside the simulator.
///
/// The linter sees declarations, not kernel bodies (kernels are opaque
/// closures); body-level bugs — a missing noc_async_read_barrier, an
/// unpaired semaphore wait — are the dynamic race detector's and deadlock
/// diagnoser's jobs (race.hpp, deadlock.hpp).
///
/// The snapshot types are plain data so this library depends only on
/// ttsim::sim; ttmetal::Program::verify_info() / Device fill them in.

#include <cstdint>
#include <string>
#include <vector>

namespace ttsim::verify {

/// One typed lint finding. `core` / `id` are -1 when not applicable.
struct LintError {
  enum class Code {
    kBadCoreId,          ///< core index outside the worker grid
    kDeadCore,           ///< kernel/resource placed on a fault-plan-killed core
    kDuplicateCb,        ///< same CB id configured twice on one core
    kBadCbGeometry,      ///< zero pages, zero page size, or page size not
                         ///< a multiple of the 256-bit DRAM/NoC granule
    kOrphanCb,           ///< CB on a core with fewer than two kernels (one
                         ///< for a kernel-local CB) — nothing can use it
    kDuplicateSemaphore, ///< same semaphore id configured twice on one core
    kOrphanSemaphore,    ///< semaphore on a core with no kernels at all
    kDuplicateBarrier,   ///< barrier id declared twice with different groups
    kBadBarrier,         ///< non-positive participant count, or more
                         ///< participants than kernel instances exist —
                         ///< the rendezvous can never complete
    kSramOverflow,       ///< planned L1 address range exceeds core SRAM
    kBufferOverlap,      ///< two planned L1 regions overlap on one core
    kDuplicateKernel,    ///< two kernels of the same kind on one core
                         ///< (each baby core runs exactly one)
    kEmptyCoreList,      ///< resource or kernel declared over zero cores
    // ---- codes emitted by the static IR protocol checker (ir/check) ----
    kCbCreditImbalance,  ///< CB push/pop or reserve/push totals differ for
                         ///< some loop trip count — a kernel starves or the
                         ///< producer leaks reserved pages
    kCbOvercommit,       ///< a single reserve/wait asks for more pages than
                         ///< the CB holds — it can never be satisfied
    kSemImbalance,       ///< a core can wait on a semaphore more times than
                         ///< posts (plus the initial value) can ever arrive
    kSlotReuse,          ///< slot-ring reuse distance too short: a rotation
                         ///< slot is rewritten while an in-flight batch may
                         ///< still read it (the PR 3/PR 7 clobber class)
    kWaitCycle,          ///< static wait-for cycle with no initial credit —
                         ///< every participant needs another to move first
  };

  Code code;
  int core = -1;
  int id = -1;          ///< cb/semaphore/barrier id when applicable
  std::string message;  ///< full human-readable diagnosis with names
};

const char* to_string(LintError::Code code);

/// Snapshot of one Program's declarations (ttmetal::Program::verify_info()).
struct ProgramInfo {
  struct Cb {
    int cb_id;
    std::vector<int> cores;
    std::uint32_t page_size;
    std::uint32_t num_pages;
    std::uint32_t planned_address;
    /// One kernel alone uses it on each core (ttmetal::Program::create_cb).
    bool kernel_local = false;
  };
  struct Semaphore {
    int sem_id;
    std::vector<int> cores;
    std::int64_t initial;
  };
  struct Barrier {
    int barrier_id;
    int participants;
  };
  struct L1Buffer {
    std::vector<int> cores;
    std::uint32_t size;
    std::uint32_t align;
    std::uint32_t planned_address;
  };
  struct Kernel {
    int kind;  ///< ttmetal::KernelKind as int (0=dm0, 1=dm1, 2=compute)
    std::vector<int> cores;
    std::string name;
  };

  std::vector<Cb> cbs;
  std::vector<Semaphore> semaphores;
  std::vector<Barrier> barriers;
  std::vector<L1Buffer> l1_buffers;
  std::vector<Kernel> kernels;
};

/// Snapshot of the target device (Device::verify_info()).
struct DeviceInfo {
  int num_workers = 0;
  std::uint64_t sram_bytes = 0;
  /// Worker ids the fault plan has killed (or remapped away) at lint time.
  std::vector<int> failed_cores;
  /// 256-bit rule: DRAM/NoC transfer granule in bytes (32 on Grayskull).
  /// CB page sizes must be multiples of it.
  std::uint32_t dram_align_bytes = 32;
};

/// Run every check; returns all findings (empty = clean). Deterministic
/// order: declaration order within each check, checks in enum order per
/// declaration.
std::vector<LintError> lint(const ProgramInfo& program, const DeviceInfo& device);

/// Format findings one per line ("lint: <code>: <message>").
std::string format_lint(const std::vector<LintError>& errors);

}  // namespace ttsim::verify
