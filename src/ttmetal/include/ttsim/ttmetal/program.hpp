#pragma once
/// \file program.hpp
/// A Program collects per-core configuration (circular buffers, semaphores,
/// L1 scratch buffers) and kernels (two data movers + one compute kernel per
/// core, mirroring the Tensix baby cores) for one launch on a Device.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ttsim/ttmetal/kernel_ctx.hpp"
#include "ttsim/verify/lint.hpp"

namespace ttsim::ttmetal {

using DataMoverFn = std::function<void(DataMoverCtx&)>;
using ComputeFn = std::function<void(ComputeCtx&)>;

enum class KernelKind {
  kDataMover0,  ///< RISCV_0, NoC 0 — conventionally reads data in
  kDataMover1,  ///< RISCV_1, NoC 1 — conventionally writes data out
  kCompute,     ///< unpack/math/pack trio, one logical kernel
};

using KernelHandle = int;
using L1BufferHandle = int;

class Program {
 public:
  Program() = default;

  /// Configure a circular buffer on every core in `cores`. L1 addresses are
  /// assigned deterministically in creation order (identical on all cores).
  /// `kernel_local` declares that on each core one kernel alone uses the CB
  /// (sim::CircularBuffer::kernel_local): its ops run ahead of the engine,
  /// and a second kernel touching it raises ApiError.
  void create_cb(int cb_id, const std::vector<int>& cores, std::uint32_t page_size,
                 std::uint32_t num_pages, bool kernel_local = false);

  /// Configure an inter-baby-core semaphore on every core in `cores`.
  void create_semaphore(int sem_id, const std::vector<int>& cores, std::int64_t initial);

  /// Configure a device-wide barrier: `participants` kernel processes call
  /// KernelCtxBase::global_barrier(barrier_id) to rendezvous. On hardware
  /// this is built from NoC multicast semaphores; the simulator charges one
  /// NoC round-trip per arrival.
  void create_global_barrier(int barrier_id, int participants);

  /// Reserve a raw L1 scratch buffer on every core in `cores`; its L1
  /// address (same on every core) is available immediately for runtime args.
  L1BufferHandle create_l1_buffer(const std::vector<int>& cores, std::uint32_t size,
                                  std::uint32_t align = 32);
  std::uint32_t l1_buffer_address(L1BufferHandle h) const;

  KernelHandle create_kernel(KernelKind kind, const std::vector<int>& cores,
                             DataMoverFn fn, std::string name = {});
  KernelHandle create_kernel(const std::vector<int>& cores, ComputeFn fn,
                             std::string name = {});

  /// Per-core runtime args (uint32 slots, as in tt-metal). `core` must be in
  /// the kernel's core list.
  void set_runtime_args(KernelHandle kernel, int core, std::vector<std::uint32_t> args);
  /// Same args for every core of the kernel.
  void set_common_runtime_args(KernelHandle kernel, std::vector<std::uint32_t> args);

  /// Helper: append a 64-bit value as two uint32 slots (lo, hi).
  static void push_arg64(std::vector<std::uint32_t>& args, std::uint64_t v) {
    args.push_back(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
    args.push_back(static_cast<std::uint32_t>(v >> 32));
  }

  /// Snapshot of every declaration for the static linter (verify/lint.hpp);
  /// pair with Device::verify_info() and verify::lint, or use
  /// Device::lint_program.
  verify::ProgramInfo verify_info() const;

 private:
  friend class Device;

  struct CbConfig {
    int cb_id;
    std::vector<int> cores;
    std::uint32_t page_size;
    std::uint32_t num_pages;
    std::uint32_t planned_address;
    std::size_t order;  ///< global creation order across CBs and L1 buffers
    bool kernel_local;
  };
  struct SemConfig {
    int sem_id;
    std::vector<int> cores;
    std::int64_t initial;
  };
  struct BarrierConfig {
    int barrier_id;
    int participants;
  };
  struct L1Config {
    std::vector<int> cores;
    std::uint32_t size;
    std::uint32_t align;
    std::uint32_t planned_address;
    std::size_t order;  ///< global creation order across CBs and L1 buffers
  };
  struct KernelConfig {
    KernelKind kind;
    std::vector<int> cores;
    DataMoverFn mover_fn;   // set for data movers
    ComputeFn compute_fn;   // set for compute
    std::string name;
    std::map<int, std::vector<std::uint32_t>> args;  // per core
    std::vector<std::uint32_t> common_args;
  };

  /// Mirrors sim::Sram's per-core bump allocator so L1 addresses are known
  /// before launch. The plan tracks one bump top per core: allocations on
  /// disjoint core groups (batched programs) restart at each group's own
  /// top, exactly as the real per-core SRAM allocators will at launch. The
  /// planned address is the aligned maximum over the core set's tops.
  std::uint32_t plan_allocate(const std::vector<int>& cores, std::uint32_t size,
                              std::uint32_t align);

  std::vector<CbConfig> cbs_;
  std::vector<SemConfig> semaphores_;
  std::vector<BarrierConfig> barriers_;
  std::vector<L1Config> l1_buffers_;
  std::vector<KernelConfig> kernels_;
  std::map<int, std::uint64_t> planned_tops_;  // per-core L1 bump mirror
  std::size_t next_order_ = 0;  // creation order shared by CBs and L1 buffers
};

}  // namespace ttsim::ttmetal
