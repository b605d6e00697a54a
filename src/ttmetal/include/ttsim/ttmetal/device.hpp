#pragma once
/// \file device.hpp
/// Host-side SDK entry point: open a (simulated) Grayskull e150, allocate
/// DRAM buffers, and launch programs. Mirrors tt-metal's Device +
/// CommandQueue in structure; all timing is simulated.
///
/// Resilience (DeviceConfig): the device can bound program execution with a
/// simulated-time watchdog (hangs become DeviceTimeoutError naming the stuck
/// kernels), verify every host<->device transfer with a CRC-32 exchange and
/// retry transient corruption with exponential backoff (exhaustion becomes
/// TransferError naming the original fault), and carry a deterministic
/// sim::FaultPlan that the simulator consults for fault injection.

#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>

#include "ttsim/common/error.hpp"
#include "ttsim/sim/engine.hpp"
#include "ttsim/sim/fault.hpp"
#include "ttsim/sim/metrics.hpp"
#include "ttsim/sim/tensix_core.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/ttmetal/buffer.hpp"
#include "ttsim/ttmetal/command_queue.hpp"
#include "ttsim/ttmetal/program.hpp"
#include "ttsim/verify/deadlock.hpp"
#include "ttsim/verify/lint.hpp"
#include "ttsim/verify/race.hpp"

namespace ttsim::ttmetal {

namespace detail {
/// Rejection text for launching on a device whose cores are still held by a
/// timed-out program. Shared by the blocking wrapper (throws eagerly) and
/// the queued-program path (surfaces via finish()).
inline constexpr const char* kWedgedRunError =
    "run_program on a wedged device: an earlier program timed out and its "
    "kernels still hold cores; open a fresh Device (cores recorded as "
    "failed in the FaultPlan stay failed across the reopen)";
}  // namespace detail

/// Thrown by Device::run_program when the program exceeds
/// DeviceConfig::sim_time_limit; the message names every stuck kernel. The
/// device is wedged afterwards (the hung kernels still hold its cores): open
/// a fresh Device to continue — a failed core recorded in the FaultPlan
/// stays failed across the reopen. Retryable (SimError): a fresh generation
/// minus the dead cores usually completes the work.
class DeviceTimeoutError : public std::runtime_error, public SimError {
 public:
  using std::runtime_error::runtime_error;
  bool retryable() const noexcept override { return true; }
  const char* what() const noexcept override { return std::runtime_error::what(); }
};

/// Thrown when a checksummed transfer still mismatches after
/// DeviceConfig::transfer_max_retries retries; the message carries the first
/// injected fault that hit the transfer so post-mortems see the root cause.
/// Retryable (SimError): the exhaustion is of one bounded backoff window —
/// transient bus corruption may well spare a later re-attempt.
class TransferError : public std::runtime_error, public SimError {
 public:
  using std::runtime_error::runtime_error;
  bool retryable() const noexcept override { return true; }
  const char* what() const noexcept override { return std::runtime_error::what(); }
};

/// Host-side robustness knobs, fixed at Device::open time.
struct DeviceConfig {
  /// Watchdog: bound each run_program invocation in simulated time, measured
  /// from kernel start (dispatch excluded). 0 = unbounded (hangs surface as
  /// the engine's deadlock CheckError only when the event queue drains).
  SimTime sim_time_limit = 0;
  /// Verify every write_buffer/read_buffer with a CRC-32 exchange (one extra
  /// pcie_latency per transfer) and retry corrupted transfers.
  bool checksum_transfers = false;
  /// Bounded retry with exponential backoff: attempt k waits
  /// transfer_retry_backoff << k before re-transferring.
  int transfer_max_retries = 3;
  SimTime transfer_retry_backoff = 50 * kMicrosecond;
  /// Deterministic fault plan consulted by the DRAM model, the kernel layer
  /// and the PCIe path. Shared so a plan can span device generations.
  std::shared_ptr<sim::FaultPlan> fault_plan;
  /// Record a simulator-wide event trace (see sim/trace.hpp): kernel
  /// lifetimes, mover NoC traffic, CB occupancy/waits, DRAM bank activity,
  /// PCIe transfers and fault injections. Observationally neutral — results
  /// and simulated times are identical with tracing on or off — but costs
  /// host memory per event; leave off for long benchmark runs.
  bool enable_trace = false;
  /// Run the happens-before race detector (verify/race.hpp) over every
  /// launched program: kernel SRAM accesses, CB and semaphore edges, and
  /// in-flight noc_async_read landings are checked against the protocol.
  /// Findings accumulate on Device::verifier(). Pure host-side bookkeeping:
  /// results, simulated times and traces are bit-identical with it on or
  /// off; leave off for benchmark runs (host-time cost per access).
  bool enable_verify = false;
};

/// Per-kernel execution profile: how much of the kernel's lifetime was
/// active (charged work) vs stalled (waiting on CBs, semaphores, barriers,
/// NoC/DRAM completions). `active` is written through live by the kernel
/// context, so a program that fails mid-run still leaves a usable partial
/// profile (see Device::last_profile for the contract).
struct KernelProfile {
  std::string name;
  int core = 0;
  SimTime lifetime = 0;
  SimTime active = 0;
  /// FPU occupancy (tile math/pack). Part of `active`, broken out so a
  /// compute kernel's genuine work is separable from its mover/CB overhead.
  SimTime fpu_busy = 0;
  /// Time blocked inside cb_wait_front / cb_reserve_back (pipeline
  /// starvation / back-pressure). Part of the non-active remainder, broken
  /// out so CB stalls are separable from NoC/semaphore/barrier stalls.
  SimTime cb_wait = 0;
  bool finished = false;
  double utilisation() const {
    return lifetime > 0 ? static_cast<double>(active) / static_cast<double>(lifetime)
                        : 0.0;
  }
};

class Device {
 public:
  /// Open a simulated card. Each Device is an independent e150 (multi-card
  /// setups open several; Grayskulls cannot access each other's memory —
  /// paper Section VII).
  static std::unique_ptr<Device> open(sim::GrayskullSpec spec = {},
                                      DeviceConfig config = {});
  ~Device();

  sim::Grayskull& hw() { return hw_; }
  const sim::GrayskullSpec& spec() const { return hw_.spec(); }
  const DeviceConfig& config() const { return config_; }
  sim::FaultPlan* fault_plan() { return hw_.fault_plan(); }
  int num_workers() const { return hw_.worker_count(); }

  /// Worker ids usable right now: all workers minus the ones the fault plan
  /// has killed (the e150's own 108-of-120 harvesting, generalised).
  std::vector<int> usable_workers();

  /// Allocate a DRAM buffer. Single-bank buffers with bank = -1 round-robin
  /// across banks (so distinct buffers land in distinct banks, as the
  /// paper's input/output streaming buffers do).
  std::shared_ptr<Buffer> create_buffer(const BufferConfig& config);

  // --- command queues ---
  /// In-order asynchronous command stream `id` (created on demand, owned by
  /// the device). Commands on distinct queues overlap in simulated time
  /// wherever the hardware allows: PCIe transfers run concurrently with a
  /// program's kernels, so a write queue hides H2D behind a compute queue.
  CommandQueue& command_queue(int id = 0);
  /// Drive the simulator until `event` completes. Rethrows any error an
  /// async command hit in the meantime.
  void synchronize(const Event& event);
  /// Cancel every not-yet-started command on every queue of this device
  /// (CommandQueue::cancel_pending over all queues) and discard any queued
  /// async error. The drain step before abandoning a wedged device: the
  /// queued work can never run, and the count is what the owner lost.
  std::size_t cancel_queues();
  /// Did a watchdog timeout leave kernels holding this device's cores? A
  /// wedged device rejects further program launches; open a fresh Device.
  bool wedged() const { return wedged_; }

  // --- blocking convenience API (one enqueue + finish on queue 0) ---
  /// With DeviceConfig::checksum_transfers, each transfer is CRC-verified
  /// and retried with exponential backoff; throws TransferError when retries
  /// are exhausted.
  void write_buffer(Buffer& buffer, std::span<const std::byte> data,
                    std::uint64_t offset = 0);
  void read_buffer(Buffer& buffer, std::span<std::byte> out, std::uint64_t offset = 0);

  /// Launch `program` and run it to completion in simulated time. With
  /// DeviceConfig::sim_time_limit set, throws DeviceTimeoutError (naming the
  /// stuck kernels) when the program does not finish within the limit.
  void run_program(Program& program);

  /// Simulated duration of the last run_program, excluding dispatch overhead
  /// (the paper's streaming results are "kernel execution time only").
  SimTime last_kernel_duration() const { return last_kernel_duration_; }
  /// Simulated time on this device's clock right now.
  SimTime now() { return hw_.engine().now(); }

  /// Total simulated wall time spent in host<->device transfers so far.
  SimTime pcie_time() const { return pcie_time_; }

  /// Checksummed-transfer retries taken so far (cumulative over the
  /// device's lifetime; callers diff around a region of interest).
  std::uint64_t transfer_retries() const { return transfer_retries_; }

  /// Per-kernel execution profile of the last run_program.
  ///
  /// Contract: cleared on entry to run_program (after argument validation);
  /// on success every entry is `finished` with final lifetime/active; when
  /// run_program throws mid-run (kernel exception, watchdog timeout,
  /// deadlock) the partial profile is retained — finished kernels keep their
  /// final numbers, unfinished ones carry `finished == false`, the activity
  /// charged so far, and a lifetime clamped at the failure time — so faulted
  /// runs can be profiled post-mortem.
  const std::vector<KernelProfile>& last_profile() const { return profile_; }

  /// The card-wide trace sink, or nullptr unless DeviceConfig::enable_trace
  /// was set at open. Events accumulate across the device's lifetime; call
  /// trace()->clear() to scope a capture to a region of interest.
  sim::TraceSink* trace() { return hw_.trace(); }

  /// Aggregate the recorded trace (per-bank utilization & queue depth,
  /// per-kernel stall breakdown, CB occupancy histograms, NoC traffic).
  /// Throws ApiError when the device was opened without enable_trace.
  sim::MetricsReport metrics();

  /// The race detector, or nullptr unless DeviceConfig::enable_verify was
  /// set at open. Findings accumulate across launches; call
  /// verifier()->clear_findings() to scope a check.
  verify::Verifier* verifier() { return verify_.get(); }

  /// Snapshot for the static linter (verify/lint.hpp): worker count, SRAM
  /// capacity, currently-dead cores, DRAM alignment granule.
  verify::DeviceInfo verify_info();

  /// Convenience: lint `program` against this device (verify::lint on the
  /// two snapshots). Usable with or without enable_verify.
  std::vector<verify::LintError> lint_program(const Program& program);

 private:
  Device(sim::GrayskullSpec spec, DeviceConfig config);
  void release_buffer(const Buffer& buffer);
  /// Set lifetime/duration for entries whose kernel never finished (partial
  /// profile on a failed run).
  void finalise_profile(SimTime start);
  friend class Buffer;
  friend class CommandQueue;
  friend class KernelCtxBase;

  /// ApiError naming the buffer, offset and size when the range is invalid.
  void validate_transfer(const Buffer& buffer, std::uint64_t offset, std::size_t size,
                         bool is_write) const;

  /// The central host-side driver: run the engine's dispatch loop until
  /// `done()` — surfacing queued async errors, enforcing the program
  /// watchdog deadline, and turning a drained queue with a running program
  /// into the same deadlock CheckError Engine::run() throws. The loop stops
  /// before the first event at which any of those holds; the verdict is
  /// taken after it returns. Everything (finish, synchronize, the blocking
  /// wrappers) funnels through here so error semantics are identical on
  /// every path.
  void drive(sim::StopCondition done);
  /// Record an async command failure; the first error wins and is rethrown
  /// by the next drive().
  void post_host_error(std::exception_ptr error);

  // Exclusive PCIe bus: one transfer on the wire at a time, FIFO handoff.
  void acquire_pcie(std::function<void()> fn);
  void release_pcie();
  // Exclusive core grid: one program launched at a time, FIFO handoff.
  void acquire_program_slot(std::function<void()> fn);
  void release_program_slot();

  /// One launched program occupying the cores.
  struct ProgramLaunch {
    CommandQueue* queue = nullptr;
    SimTime start = 0;     ///< kernel start (dispatch excluded)
    SimTime deadline = 0;  ///< start + sim_time_limit, or 0 = unbounded
    std::size_t remaining = 0;  ///< kernels still running
  };

  /// Instantiate CBs/semaphores/barriers and spawn the kernels (the body of
  /// the historical run_program, after the dispatch delay).
  void launch_kernels(Program& program, CommandQueue& queue);
  /// What one spawned kernel process needs from its launch.
  struct KernelLaunch {
    std::string name;  ///< process name, "<kernel>@<core>"
    KernelProfile* profile = nullptr;
    ProgramLaunch* owner = nullptr;
    SimTime start = 0;
    int vtid = -1;  ///< race-detector thread id, -1 without enable_verify
  };
  /// The body of a kernel process: attach `ctx` to its launch, run `body`,
  /// realise the kernel's remaining lag, then record its end and profile.
  void run_kernel(KernelCtxBase& ctx, const std::function<void()>& body,
                  const KernelLaunch& launch);
  void on_kernel_done(ProgramLaunch* owner);
  void program_complete();

  // --- wait-for registry (always on: pure host-side maps, no engine
  // interaction) --- which kernels produce into / consume from each CB and
  // post each semaphore, keyed by (core, id). Resolved to wait-cycle edges
  // by diagnose_blocked() when a program hangs.
  struct CbPeers {
    std::vector<std::string> producers;
    std::vector<std::string> consumers;
  };
  /// Also reject a second kernel on a CB declared kernel-local (ApiError at
  /// its first touch).
  void note_cb_producer(int core, int cb_id, const std::string& kernel);
  void note_cb_consumer(int core, int cb_id, const std::string& kernel);
  void check_kernel_local(int core, int cb_id, const CbPeers& peers,
                          const std::string& kernel);
  void note_sem_poster(int core, int sem_id, const std::string& kernel);
  /// Snapshot every unfinished kernel process (name, core, wait site, the
  /// registry's counterpart kernels) and run the wait-for diagnosis
  /// (verify/deadlock.hpp). `quiescent`: the event queue has drained, so
  /// structural fallback edges and orphan analysis are sound.
  verify::DeadlockReport diagnose_blocked(bool quiescent);
  /// Shared failure cleanup (partial profile, elapsed fault kills, release
  /// the cores, abandon the owning queue's head command).
  void fail_running_program();
  [[noreturn]] void throw_program_timeout();

  /// Device-wide rendezvous used by KernelCtxBase::global_barrier.
  struct DeviceBarrier {
    DeviceBarrier(sim::Engine& engine, int expected_participants)
        : expected(expected_participants), queue(engine) {}
    int expected;
    int arrived = 0;
    std::uint64_t generation = 0;
    sim::WaitQueue queue;
  };
  DeviceBarrier& barrier(int barrier_id);
  std::map<int, std::unique_ptr<DeviceBarrier>> barriers_;

  sim::Grayskull hw_;
  DeviceConfig config_;
  /// DRAM allocation is high-water-of-live: a new buffer lands just above
  /// the highest LIVE region of its bank (or of the virtual interleaved
  /// space), so freed buffers are reclaimed once nothing sits above them.
  /// Workloads that never free mid-run see byte-identical addresses to a
  /// pure bump allocator (golden traces pin those); workloads that tear a
  /// whole working set down and rebuild — sharded multi-card segments, a
  /// serving card cycling sessions — get their DRAM back.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      bank_live_;  // per bank: live (offset, size) regions
  std::vector<std::pair<std::uint64_t, std::uint64_t>> interleaved_live_;
  int next_bank_ = 0;
  SimTime last_kernel_duration_ = 0;
  SimTime pcie_time_ = 0;
  std::uint64_t transfer_retries_ = 0;
  bool wedged_ = false;  // a watchdog timeout left kernels stuck on cores
  std::vector<KernelProfile> profile_;
  std::unique_ptr<verify::Verifier> verify_;  // non-null iff enable_verify
  std::map<std::pair<int, int>, CbPeers> cb_peers_;                 // (core, cb)
  std::map<std::pair<int, int>, std::vector<std::string>> sem_posters_;  // (core, sem)
  std::map<std::string, int> kernel_core_by_name_;  // process name -> worker

  // Command-queue state (destroyed before hw_, declared after it).
  std::vector<std::unique_ptr<CommandQueue>> command_queues_;
  std::exception_ptr pending_host_error_;
  bool pcie_busy_ = false;
  std::deque<std::function<void()>> pcie_waiters_;
  bool program_busy_ = false;
  std::deque<std::function<void()>> program_waiters_;
  std::unique_ptr<ProgramLaunch> running_;
  SimTime last_launch_start_ = 0;
};

}  // namespace ttsim::ttmetal
