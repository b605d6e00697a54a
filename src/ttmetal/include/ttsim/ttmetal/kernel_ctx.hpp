#pragma once
/// \file kernel_ctx.hpp
/// Device-kernel APIs in tt-metal style. Data mover kernels receive a
/// DataMoverCtx (NoC reads/writes, CB producer/consumer ops, L1 memcpy,
/// semaphores — paper Listings 3 & 4); compute kernels receive a ComputeCtx
/// (CB ops plus FPU tile operations — paper Listing 2 — and the paper's
/// Section VI cb_set_rd_ptr extension).
///
/// Local memory is addressed with 32-bit L1 addresses exactly as on the
/// hardware; get_write_ptr/get_read_ptr return L1 addresses into CB pages.
///
/// Every kernel keeps its own clock. Work that no other process can observe
/// (loop ticks, FPU math and pack, read/write-pointer overrides, L1 copies
/// and stores, the ops on a kernel-local CB that do not block) is charged
/// as *lag* on the context instead of as an engine delay. The kernel
/// realises its lag, as one delay, just before any operation another
/// process could observe: an op on any other CB, a semaphore post or wait,
/// a global barrier, a NoC issue or barrier, spin(), a fault plan's kill or
/// stall, and at kernel end. Because equal-time wakeups run in
/// spawn order (engine.hpp), the skipped intermediate wakeups change no
/// simulated time. Lag never carries a kernel's clock past its launch's
/// watchdog deadline (see advance()).

#include <cstdint>
#include <vector>

#include "ttsim/sim/tensix_core.hpp"

namespace ttsim::verify {
class Verifier;  // verify/race.hpp
}

namespace ttsim::ttmetal {

class Device;

/// Read tags a data mover tracks: tagged reads take tags in
/// [0, kMaxReadTags).
inline constexpr int kMaxReadTags = 256;
struct KernelProfile;  // device.hpp

/// State shared by both kernel contexts on one core.
class KernelCtxBase {
 public:
  KernelCtxBase(Device& device, sim::TensixCore& core,
                std::vector<std::uint32_t> args, int position, int group_size);

  // --- runtime arguments (uint32 slots, as in tt-metal) ---
  std::uint32_t arg(std::size_t i) const;
  /// 64-bit argument occupying slots i (low) and i+1 (high).
  std::uint64_t arg64(std::size_t i) const;
  std::size_t arg_count() const { return args_.size(); }

  /// This kernel's index within its launch group, and the group size
  /// (host-side decomposition helpers).
  int position() const { return position_; }
  int group_size() const { return group_size_; }
  /// Physical worker id of the core this kernel runs on.
  int core_id() const { return core_.id(); }

  // --- circular buffers (both movers and compute use these) ---
  void cb_reserve_back(int cb_id, std::uint32_t pages);
  void cb_push_back(int cb_id, std::uint32_t pages);
  void cb_wait_front(int cb_id, std::uint32_t pages);
  void cb_pop_front(int cb_id, std::uint32_t pages);
  /// L1 address of the producer page `page_offset` pages past the write point.
  std::uint32_t get_write_ptr(int cb_id, std::uint32_t page_offset = 0);
  /// L1 address of the consumer front page.
  std::uint32_t get_read_ptr(int cb_id);

  // --- local SRAM ---
  std::byte* l1_ptr(std::uint32_t l1_addr);
  const std::byte* l1_ptr(std::uint32_t l1_addr) const;
  std::uint32_t l1_address_of(const std::byte* p) const;

  // --- semaphores (paper Fig. 3) ---
  void semaphore_post(int sem_id, std::int64_t n = 1);
  void semaphore_wait(int sem_id, std::int64_t n = 1);

  /// Rendezvous with every other participant of a device-wide barrier
  /// configured via Program::create_global_barrier (multi-core iteration
  /// synchronisation for the Section VII scaling runs).
  void global_barrier(int barrier_id);

  /// Charge per-iteration scalar bookkeeping (address arithmetic, loop
  /// control) — the simulator's stand-in for baby-core instruction time.
  /// Private work: it only adds lag, so it is no way to poll raw L1 for
  /// another kernel's writes. Poll with spin() or a sync primitive.
  void loop_tick();
  /// Busy-wait for `dt`: a yield point (charge, then sync), so it paces a
  /// pipeline against other kernels.
  void spin(SimTime dt);

  sim::TensixCore& core() { return core_; }
  Device& device() { return device_; }
  /// This kernel's clock: engine time plus its unrealised lag.
  SimTime now() const;
  /// Realise the lag as one engine delay. Every shared operation calls it
  /// first, so kernels need not.
  void sync();

  /// Simulated time this kernel actively spent executing charged operations
  /// (issue overheads, FPU ops, memcpys, loop ticks) — the remainder of its
  /// lifetime was stalling on CBs, semaphores, barriers or NoC completions.
  SimTime active_time() const { return active_; }
  /// FPU occupancy (tile math/pack); included in active_time().
  SimTime fpu_time() const { return fpu_busy_; }
  /// Time blocked inside cb_wait_front / cb_reserve_back; part of the
  /// non-active remainder.
  SimTime cb_wait_time() const { return cb_wait_; }

  /// Attach the Device-owned profile entry for live write-through, so a
  /// program that fails mid-run still has per-kernel activity recorded.
  void set_profile(KernelProfile* profile) { profile_ = profile; }

  /// Attach this kernel's launch identity: its process name (for the
  /// wait-for registry) and, when DeviceConfig::enable_verify is set, the
  /// race detector and this kernel's thread id. Called by Device at spawn,
  /// like set_profile.
  void set_identity(std::string name, verify::Verifier* verifier, int vtid) {
    kernel_name_ = std::move(name);
    verify_ = verifier;
    vtid_ = vtid;
  }

 protected:
  /// Account `cost` as active work and advance this kernel's clock by it.
  void charge(SimTime cost);
  /// Advance this kernel's clock by `dt` as lag. A step that would carry
  /// the clock past the watchdog deadline first realises the lag before it
  /// and is then realised itself, so the watchdog stops the engine where it
  /// would stop a kernel that synced every step, and private work that never
  /// ends still times out.
  void advance(SimTime dt);
  /// Before an op on `cb`: sync unless the CB is kernel-local and the op
  /// cannot block (`ready`); a local op that would block syncs too.
  void sync_unless_local(const sim::CircularBuffer& cb, bool ready) {
    if (!cb.kernel_local() || !ready) sync();
  }
  /// If the fault plan killed this kernel's core, record the failure and
  /// park the kernel forever (it shows up as a stuck process to the
  /// watchdog / deadlock detector). Called from every charged operation.
  void maybe_halt();
  /// Account a blocked interval ending now as CB-wait stall.
  void note_cb_wait(SimTime waited);
  /// Trace a CB push or pop of `pages` (its occupancy after the op).
  void record_cb(sim::TraceEventKind kind, int cb_id, const sim::CircularBuffer& cb,
                 std::uint32_t pages);
  SimTime active_ = 0;
  SimTime fpu_busy_ = 0;
  SimTime cb_wait_ = 0;

  /// Record a kernel SRAM access with the race detector (no-op with verify
  /// off). Pure host bookkeeping — never charges, delays or schedules.
  void verify_read(std::uint32_t l1_addr, std::uint32_t size, const char* what);
  void verify_write(std::uint32_t l1_addr, std::uint32_t size, const char* what);
  /// Register this kernel in the device's wait-for registry as a poster of
  /// `sem_id` on `dst_core` (Device friendship does not extend to the
  /// derived mover context, hence the base-class forwarder).
  void note_remote_sem_post(int dst_core, int sem_id);
  /// Register this kernel as a producer/consumer of `cb_id` in the device's
  /// wait-for registry. Only the first call per CB reaches the device: the
  /// registry keeps each kernel once, and this runs on every CB operation.
  void note_cb_producer(int cb_id);
  void note_cb_consumer(int cb_id);

  Device& device_;
  sim::TensixCore& core_;
  std::vector<std::uint32_t> args_;
  int position_;
  int group_size_;
  KernelProfile* profile_ = nullptr;
  sim::TraceSink* trace_ = nullptr;  ///< device sink, nullptr when disabled
  std::string kernel_name_;          ///< process name ("<kernel>@<core>")
  verify::Verifier* verify_ = nullptr;  ///< nullptr unless enable_verify
  int vtid_ = -1;                       ///< detector thread id
  std::uint32_t cb_produced_ = 0;  ///< bit i: CB i already noted as produced
  std::uint32_t cb_consumed_ = 0;  ///< bit i: CB i already noted as consumed
  SimTime lag_ = 0;  ///< charged work not yet realised as engine time
  SimTime deadline_;  ///< the launch's watchdog deadline, or never
};

/// API surface for the two data mover baby cores.
class DataMoverCtx : public KernelCtxBase {
 public:
  DataMoverCtx(Device& device, sim::TensixCore& core, int noc_id,
               std::vector<std::uint32_t> args, int position, int group_size);

  /// tt-metal's get_noc_addr: on real hardware combines the bank's NoC
  /// coordinates with the in-bank address. Our device addresses already
  /// identify the bank, so the coordinates are accepted for source
  /// compatibility and validated lazily.
  std::uint64_t get_noc_addr(std::uint64_t dram_addr) const { return dram_addr; }
  std::uint64_t get_noc_addr(std::uint32_t noc_x, std::uint32_t noc_y,
                             std::uint64_t dram_addr) const {
    (void)noc_x;
    (void)noc_y;
    return dram_addr;
  }

  /// Non-blocking DRAM -> L1 read (issue cost charged; completion counted
  /// towards noc_async_read_barrier).
  void noc_async_read(std::uint64_t noc_addr, std::uint32_t l1_dst, std::uint32_t size);
  /// Tagged read, in the style of Wormhole tt-metal's transaction-id reads:
  /// also counted towards the per-tag barrier below, so a deep-read-ahead
  /// mover can wait for one batch's reads without draining every later
  /// batch it already issued. Tags are slot ids in [0, kMaxReadTags).
  void noc_async_read(std::uint64_t noc_addr, std::uint32_t l1_dst, std::uint32_t size,
                      int tag);
  /// Non-blocking L1 -> DRAM write (source data captured at issue).
  void noc_async_write(std::uint32_t l1_src, std::uint64_t noc_addr, std::uint32_t size);
  /// Block until every issued read has landed in L1.
  void noc_async_read_barrier();
  /// Block until every read issued with `tag` has landed in L1.
  void noc_async_read_barrier(int tag);
  /// Block until every issued write has drained to DRAM.
  void noc_async_write_barrier();

  /// Baby-core software copy between L1 locations (the expensive operation
  /// the paper's Section V quantifies and Section VI eliminates).
  void l1_memcpy(std::uint32_t l1_dst, std::uint32_t l1_src, std::uint32_t size);

  /// Single scalar store into L1 (one baby-core instruction).
  void l1_store_u16(std::uint32_t l1_addr, std::uint16_t value);

  // --- direct core-to-core transfers (the paper's "direct neighbour to
  // neighbour communications" for SRAM-resident domains) ---

  /// Non-blocking unicast write from this core's L1 into another worker
  /// core's L1 over this mover's NoC; counted towards
  /// noc_async_write_barrier. Data is captured at issue.
  void noc_async_write_core(int dst_core, std::uint32_t dst_l1, std::uint32_t src_l1,
                            std::uint32_t size);

  /// Increment a semaphore on another core once this mover's earlier writes
  /// have been ordered onto the NoC (tt-metal's noc_semaphore_inc).
  void noc_semaphore_inc(int dst_core, int sem_id, std::int64_t n = 1);

  /// Aligned-read helper from the paper's Listing 4: reads [address,
  /// address+size) rounded down to the 256-bit boundary, storing at
  /// l1_buffer; returns the byte offset at which the wanted data starts.
  std::uint32_t read_data_aligned(std::uint64_t address, std::uint64_t starting_address,
                                  std::uint32_t size, std::uint32_t l1_buffer);

  std::uint64_t reads_issued() const { return reads_->issued_total(); }
  std::uint64_t writes_issued() const { return writes_->issued_total(); }

 private:
  /// Shared issue path for tagged and untagged reads; a null tag tracker
  /// means "untagged" (tag -1) and costs nothing extra (the global tracker
  /// is always charged, so untagged timing is bit-identical either way).
  void read_impl(std::uint64_t noc_addr, std::uint32_t l1_dst, std::uint32_t size,
                 std::shared_ptr<sim::CompletionTracker> tag_tracker, int tag);
  /// Lazily-created per-tag tracker (tags are dense small slot ids).
  const std::shared_ptr<sim::CompletionTracker>& read_tag(int tag);
  /// Charge the fault plan's mover stall before a transfer and realise it
  /// at once, so the plan's next draw (the transfer's) falls after it in
  /// engine order.
  void fault_stall(sim::FaultPlan& plan);

  int noc_id_;
  int noc_track_ = -1;  // trace track for kNocTransfer events
  // Shared so in-flight completion callbacks outlive a kernel that returns
  // without a final barrier (the events still drain in the engine).
  std::shared_ptr<sim::CompletionTracker> reads_;
  std::shared_ptr<sim::CompletionTracker> writes_;
  std::vector<std::shared_ptr<sim::CompletionTracker>> read_tags_;
};

/// API surface for the (logically single) compute core driving the FPU.
class ComputeCtx : public KernelCtxBase {
 public:
  using KernelCtxBase::KernelCtxBase;

  // Initialisation stubs kept for tt-metal source compatibility.
  void binary_op_init_common(int, int) {}
  void add_tiles_init(int, int) {}
  void mul_tiles_init(int, int) {}
  void tile_regs_acquire() {}
  void tile_regs_commit() {}
  void tile_regs_wait() {}
  void tile_regs_release() {}

  /// dst = cb_a[tile ia] + cb_b[tile ib], elementwise over 1024 BF16 lanes.
  void add_tiles(int cb_a, int cb_b, std::uint32_t ia, std::uint32_t ib, int dst);
  void sub_tiles(int cb_a, int cb_b, std::uint32_t ia, std::uint32_t ib, int dst);
  void mul_tiles(int cb_a, int cb_b, std::uint32_t ia, std::uint32_t ib, int dst);
  void copy_tile(int cb, std::uint32_t idx, int dst);
  /// Pack dst register into the reserved producer page of `cb`.
  void pack_tile(int dst, int cb, std::uint32_t page_offset = 0);
  /// Elementwise |x| on a dst register (SFPU unary op).
  void abs_tile(int dst);
  /// Elementwise compare-to-scalar: dst[i] = (dst[i] == v) ? 1 : 0 (SFPU
  /// unary op; threshold transitions such as Game of Life).
  void eq_scalar_tile(int dst, bfloat16_t v);
  /// Reduce a dst register to its maximum lane (device-side residuals).
  bfloat16_t reduce_max(int dst);

  /// The paper's Section VI extension (added to tt-metal's cb_api.h /
  /// llk_set_read_ptr): repoint the consumer read pointer of `cb_id` at an
  /// arbitrary L1 address so FPU ops consume data in place. `valid_bytes`
  /// says how much of the aliased page carries meaningful data (0: the whole
  /// page). FPU tile ops fetch a full tile on the simulated clock, but lanes
  /// past `valid_bytes` are don't-care and are never computed on the host.
  /// The race detector bounds the recorded read by it; timing does not
  /// depend on it.
  void cb_set_rd_ptr(int cb_id, std::uint32_t l1_addr, std::uint32_t valid_bytes = 0);

  /// Producer-side counterpart (the paper's API recommendation: CBs that
  /// alias local memory): pack_tile lands directly at `l1_addr` — used by
  /// the SRAM-resident solver to write results into the domain slab.
  void cb_set_wr_ptr(int cb_id, std::uint32_t l1_addr);

  /// Drop a read-pointer override before its page is handed to another
  /// consumer (pop also clears it).
  void cb_clear_rd_ptr(int cb_id);

 private:
  /// Run one FPU operation costing `cost`: advance the clock, run the math,
  /// then account the cost as active and FPU-busy (and trace it when
  /// enabled).
  template <typename Fn>
  void fpu_op(SimTime cost, Fn&& fn);

  /// Record the SRAM read an FPU op performs on tile `idx` of `cb_id` with
  /// the race detector, clipped to the CB's read_valid_bytes() annotation
  /// (tile ops fetch a full tile but only that much is meaningful).
  void verify_tile_read(int cb_id, std::uint32_t idx, const char* what);
};

}  // namespace ttsim::ttmetal
