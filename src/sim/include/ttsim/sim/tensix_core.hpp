#pragma once
/// \file tensix_core.hpp
/// One Tensix core: five RISC-V baby cores (two data movers + three compute
/// cores presented to the programmer as one), 1 MB SRAM, the FPU, circular
/// buffers, and inter-core semaphores (paper Fig. 1 / Fig. 3). Kernel
/// processes are attached by the ttmetal layer; this class owns the
/// per-core hardware state.

#include <array>
#include <map>
#include <memory>

#include "ttsim/sim/circular_buffer.hpp"
#include "ttsim/sim/dram.hpp"
#include "ttsim/sim/fault.hpp"
#include "ttsim/sim/fpu.hpp"
#include "ttsim/sim/noc.hpp"
#include "ttsim/sim/sram.hpp"
#include "ttsim/sim/sync.hpp"

namespace ttsim::sim {

class TensixCore {
 public:
  /// tt-metal indexes CBs 0..kMaxCbs-1.
  static constexpr int kMaxCbs = 32;

  TensixCore(Engine& engine, const GrayskullSpec& spec, int core_id, NocCoord coord);

  int id() const { return id_; }
  NocCoord coord() const { return coord_; }

  Sram& sram() { return sram_; }
  Fpu& fpu() { return fpu_; }

  /// Create circular buffer `cb_id` backed by core SRAM. Page geometry is
  /// fixed by the host code (paper Section II-A). See
  /// CircularBuffer::kernel_local for `kernel_local`.
  CircularBuffer& create_cb(int cb_id, std::uint32_t page_size, std::uint32_t num_pages,
                            bool kernel_local = false);
  /// Throws ApiError unless `cb_id` was created.
  CircularBuffer& cb(int cb_id);
  bool has_cb(int cb_id) const {
    return cb_id >= 0 && cb_id < kMaxCbs && cbs_[static_cast<std::size_t>(cb_id)] != nullptr;
  }

  /// Create/fetch an inter-baby-core semaphore (paper Fig. 3's green line).
  SimSemaphore& create_semaphore(int sem_id, std::int64_t initial);
  SimSemaphore& semaphore(int sem_id);

  /// DMA engine timeline for one NoC direction (0 = read NoC, 1 = write NoC).
  ResourceTimeline& dma(int noc_id);

  /// Install a trace sink propagated to CBs created from now on (Grayskull
  /// wires this before kernels attach). Pass nullptr to disable.
  void set_trace(TraceSink* trace) { trace_ = trace; }
  TraceSink* trace() { return trace_; }

  /// Clear CBs/semaphores and the SRAM allocator between program launches.
  void reset();

  /// Park the calling process forever — the behaviour of a kernel whose core
  /// has failed (FaultPlan core kill): it simply stops executing. The wait
  /// queue is never notified, so the process stays blocked; Engine::run()
  /// reports it in the deadlock diagnostic and Device watchdogs convert it
  /// into a DeviceTimeoutError.
  [[noreturn]] void halt_current_process();

 private:
  Engine& engine_;
  const GrayskullSpec& spec_;
  int id_;
  NocCoord coord_;
  Sram sram_;
  Fpu fpu_;
  std::array<std::unique_ptr<CircularBuffer>, kMaxCbs> cbs_;  // indexed by CB id
  std::map<int, std::unique_ptr<SimSemaphore>> semaphores_;
  ResourceTimeline dma_[2];
  std::unique_ptr<WaitQueue> halt_queue_;  // created on first halt
  TraceSink* trace_ = nullptr;
};

/// The whole accelerator: engine + DRAM + NoCs + Tensix grid. One Grayskull
/// object is one simulated e150 card.
class Grayskull {
 public:
  explicit Grayskull(GrayskullSpec spec = {});

  Engine& engine() { return engine_; }
  const GrayskullSpec& spec() const { return spec_; }
  DramModel& dram() { return dram_; }
  Noc& noc(int id);

  int worker_count() const { return spec_.worker_cores; }
  /// Worker Tensix core by dense index [0, worker_count()).
  TensixCore& worker(int idx);

  /// NoC coordinate of worker `idx`: workers fill rows bottom-up, leaving the
  /// final row's 12 cores as storage-only (120 cores, 108 workers).
  NocCoord worker_coord(int idx) const;
  /// NoC coordinate of a DRAM bank: banks flank the worker grid on the west
  /// (even banks) and east (odd banks) columns.
  NocCoord bank_coord(int bank) const;

  /// NoC hop count from a core to the bank serving `addr` (a representative
  /// mid-grid distance for interleaved regions).
  int hops_to_dram(const TensixCore& core, std::uint64_t addr, int noc_id);

  /// Install a deterministic fault plan consulted by the DRAM model and by
  /// the ttmetal kernel layer. Shared ownership: the same plan can span
  /// several device generations (a failed core stays failed across reopen).
  void install_fault_plan(std::shared_ptr<FaultPlan> plan);
  FaultPlan* fault_plan() { return fault_plan_.get(); }
  const std::shared_ptr<FaultPlan>& fault_plan_ptr() const { return fault_plan_; }

  /// Create (idempotently) the card-wide trace sink and wire it into the
  /// DRAM model, every worker core and the installed fault plan. Tracing
  /// observes state but never schedules events, so enabling it does not
  /// change simulated behaviour.
  TraceSink& enable_trace();
  /// The sink, or nullptr when tracing was never enabled.
  TraceSink* trace() { return trace_.get(); }

 private:
  GrayskullSpec spec_;
  Engine engine_;
  DramModel dram_;
  Noc noc0_;
  Noc noc1_;
  std::vector<std::unique_ptr<TensixCore>> workers_;
  std::shared_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<TraceSink> trace_;
};

}  // namespace ttsim::sim
