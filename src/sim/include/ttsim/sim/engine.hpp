#pragma once
/// \file engine.hpp
/// Deterministic discrete-event engine with fiber-backed processes.
///
/// Every simulated baby core (data movers, compute) is a Process. Processes
/// advance virtual time by calling Engine::delay() and block on the sync
/// primitives in sync.hpp; hardware resources (DRAM banks, NoC links)
/// schedule plain callbacks. The scheduler is single-threaded, so identical
/// inputs always produce identical simulated timelines. Events at one
/// simulated time run callbacks first, in scheduling order, then process
/// wakeups in spawn order. A wakeup's place therefore does not depend on
/// when it was pushed: a process that skips a wakeup which did nothing
/// observable reorders nothing else (the kernel run-ahead clock relies on
/// this). Distinct engines share no state, so each may run on its own host
/// thread.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "ttsim/common/units.hpp"
#include "ttsim/sim/fiber.hpp"

namespace ttsim::sim {

class Engine;

/// What a blocked process is waiting for. Every WaitQueue carries one
/// (annotated by its owner at creation); WaitQueue::wait() stamps it onto the
/// blocking process so diagnostics can name the resource instead of just the
/// kernel. Pure host-side bookkeeping: never schedules events or charges
/// simulated time, so annotating is observationally neutral.
struct WaitSite {
  enum class Kind {
    kNone,       ///< not blocked on a wait queue (or site never annotated)
    kCbFull,     ///< producer blocked in cb_reserve_back (needs a consumer pop)
    kCbEmpty,    ///< consumer blocked in cb_wait_front (needs a producer push)
    kSemaphore,  ///< blocked in semaphore_wait (needs a post)
    kBarrier,    ///< blocked at a global barrier (needs the other participants)
    kNocRead,    ///< blocked in noc_async_read_barrier (DMA completions)
    kNocWrite,   ///< blocked in noc_async_write_barrier (DMA completions)
    kHalted,     ///< parked forever — the core was killed by the fault plan
    kOther,      ///< a wait queue with no specific annotation
  };
  Kind kind = Kind::kNone;
  int core = -1;  ///< owning Tensix core, when the resource is core-local
  int id = -1;    ///< cb/semaphore/barrier id or NoC tag, when applicable
};

/// A non-owning reference to a dispatch loop's stop condition, like a
/// function_ref to `bool() noexcept`. The loop checks it before every event,
/// in the scheduler and inside a blocking process about to hand off, so it
/// must be cheap, must not throw and must outlive the loop. It is only
/// checked while an event is queued. A default-constructed one always holds.
class StopCondition {
 public:
  StopCondition() = default;
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, StopCondition> &&
             std::is_nothrow_invocable_r_v<bool, const F&>)
  StopCondition(const F& f) noexcept  // NOLINT(google-explicit-constructor)
      : ctx_(&f), fn_([](const void* ctx) noexcept {
          return (*static_cast<const F*>(ctx))();
        }) {}

  bool operator()() const noexcept { return fn_(ctx_); }

 private:
  const void* ctx_ = nullptr;
  bool (*fn_)(const void*) noexcept = [](const void*) noexcept { return true; };
};

/// A simulated sequential execution context (one baby-core kernel).
class Process {
 public:
  enum class State { kReady, kRunning, kBlocked, kFinished };

  const std::string& name() const { return name_; }
  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }

  /// The resource this process is (or was last) blocked on. Meaningful while
  /// the process sits in a WaitQueue; cleared when the wait returns.
  const WaitSite& wait_site() const { return wait_site_; }

 private:
  friend class Engine;
  friend class WaitQueue;

  Process(Engine& engine, std::string name, std::function<void()> fn,
          std::size_t stack_bytes, std::uint32_t rank);

  Engine& engine_;
  std::string name_;
  std::uint32_t rank_;  ///< 1 + spawn index: the wakeup tie-break
  Fiber fiber_;
  State state_ = State::kReady;
  WaitSite wait_site_;
};

/// The discrete-event scheduler.
class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a process; it becomes runnable at the current simulated time.
  /// The returned pointer stays valid for the engine's lifetime.
  Process* spawn(std::string name, std::function<void()> fn,
                 std::size_t stack_bytes = 128 * 1024);

  /// Schedule a callback at absolute simulated time `t` (>= now). Callbacks
  /// execute in scheduler context and must not block.
  void schedule_at(SimTime t, std::function<void()> cb);
  void schedule_after(SimTime dt, std::function<void()> cb) {
    schedule_at(now_ + dt, std::move(cb));
  }

  /// The engine's one dispatch loop: run events in order (see the file
  /// comment) until the queue drains or `stop` holds before the next event.
  /// When a process blocks and the next event wakes another process, the
  /// blocking fiber pops it and switches straight to that process (one fiber
  /// switch per wakeup); when it wakes the blocking process itself, no
  /// switch happens at all. Callbacks run here, in scheduler context. Rethrows the first
  /// exception escaping any process, which is then finished.
  void run_until_stopped(StopCondition stop);

  /// Run until every spawned process has finished and no callbacks remain.
  /// Throws CheckError on deadlock (blocked processes with an empty queue)
  /// and rethrows the first exception escaping any process.
  void run();

  /// Run until simulated time reaches `deadline` (or everything finishes).
  /// Returns true if all processes finished.
  bool run_until(SimTime deadline);

  /// Like run_until, but does not advance now() to `deadline` when the
  /// simulation finishes early — now() stays at the last processed event, as
  /// with run(). Used by the Device watchdog so a bounded program that
  /// completes keeps an accurate finish time.
  bool run_until_done(SimTime deadline);

  /// Whether any event (wakeup or callback) is queued.
  bool has_pending() const { return !queue_.empty(); }
  /// Simulated time of the next queued event; CHECK-fails when none pending.
  SimTime next_event_time() const;
  /// Throw the same deadlock error run() raises when the queue drains with
  /// unfinished processes: a DeadlockError (a retryable CheckError — see
  /// common/error.hpp). Exposed so external drivers report blocked kernels
  /// identically to run(). A non-empty `diagnosis` (e.g. a wait-for cycle
  /// report) is appended on its own line.
  [[noreturn]] void throw_deadlock(const std::string& diagnosis = {}) const;

  SimTime now() const { return now_; }

  /// The process currently executing; CHECK-fails outside process context.
  Process& current();
  bool in_process() const { return current_ != nullptr; }

  /// --- callable only from inside a process ---
  /// Advance this process's local time by `dt` (other events interleave).
  void delay(SimTime dt);

  /// Statistics for tests/diagnostics.
  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t process_count() const { return processes_.size(); }
  std::size_t unfinished_process_count() const;
  std::vector<std::string> blocked_process_names() const;
  /// Every process that has not finished, in spawn order — the deadlock
  /// diagnoser walks these and reads each one's wait_site().
  std::vector<const Process*> unfinished_processes() const;

 private:
  friend class WaitQueue;

  /// A queued event is a plain 32-byte record, so heap sifts copy it
  /// cheaply: a wakeup names its process; a callback names a slot in
  /// callbacks_, which the loop frees before invoking the callback.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Process* process;    // wakeup if non-null ...
    std::uint32_t slot;  // ... else index into callbacks_
    std::uint32_t rank;  // 0 for a callback, else the process's rank_
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 32);
  /// Min-heap on (time, rank, seq): callbacks (rank 0) before wakeups,
  /// callbacks by scheduling order, wakeups by spawn order.
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.rank != b.rank) return a.rank > b.rank;
      return a.seq > b.seq;
    }
  };

  void push_wakeup(Process* p, SimTime t);
  /// Block the current process; returns when another event wakes it. Hands
  /// off to the next process directly when the next event is a wakeup and
  /// the stop condition does not hold; otherwise yields to the loop.
  void block_current();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  /// The running process. While the loop's resume() is out, every handoff
  /// updates it, so when control comes back it names the process that
  /// yielded or finished.
  Process* current_ = nullptr;
  StopCondition stop_;  ///< the running loop's; holds outside any loop
  std::vector<std::unique_ptr<Process>> processes_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ttsim::sim
