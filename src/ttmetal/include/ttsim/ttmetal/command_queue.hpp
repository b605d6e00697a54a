#pragma once
/// \file command_queue.hpp
/// Asynchronous command queues, tt-metal style: EnqueueWriteBuffer /
/// EnqueueReadBuffer / EnqueueProgram with a blocking flag, Events for
/// cross-queue ordering, and Finish. Commands on one queue execute strictly
/// in order; commands on different queues of the same device overlap in
/// simulated time wherever the hardware allows (one PCIe bus, one program on
/// the cores at a time), so a transfer queue genuinely hides H2D/D2H time
/// behind a compute queue's kernels.
///
/// Everything runs on the device's deterministic discrete-event engine: the
/// queue machinery is a set of scheduler callbacks, never a thread, so the
/// same enqueue order always produces the same simulated timeline. The
/// blocking Device::write_buffer / read_buffer / run_program APIs are thin
/// wrappers over one enqueue + Finish on queue 0.
///
/// Lifetime: the caller keeps the Buffer (and, for reads, the destination
/// span; for programs, the Program) alive until the command completes —
/// i.e. until finish()/synchronize() returns. A non-blocking write copies
/// its payload at enqueue time, so the source need not outlive the call; a
/// blocking write lands straight from the caller's bytes, which it only
/// reads, and returns once they are no longer needed.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ttsim/common/units.hpp"

namespace ttsim::ttmetal {

class Buffer;
class CommandQueue;
class Device;
class Program;

/// A marker in a command queue's stream. Completed once every command
/// enqueued before record_event() has finished; other queues order against
/// it with wait_for_event(), the host with Device::synchronize().
class Event {
 public:
  Event() = default;

  bool valid() const { return state_ != nullptr; }
  bool completed() const { return valid() && state_->completed; }
  /// Simulated time the event completed at; ApiError unless completed().
  SimTime completed_at() const;

 private:
  friend class CommandQueue;
  friend class Device;
  struct State {
    Device* device = nullptr;
    bool completed = false;
    SimTime time = 0;
    std::vector<CommandQueue*> waiters;  // queues parked on wait_for_event
  };
  std::shared_ptr<State> state_;
};

/// One in-order command stream on a Device. Obtain via
/// Device::command_queue(id); queues are created on demand and live as long
/// as the device.
class CommandQueue {
 public:
  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Copy `data` into buffer at `offset`. blocking = true waits for this
  /// queue to drain (enqueue + finish) and reads `data` in place; a
  /// non-blocking write captures a copy of it at enqueue.
  void enqueue_write_buffer(Buffer& buffer, std::span<const std::byte> data,
                            bool blocking, std::uint64_t offset = 0);
  /// Read into `out` (which must stay alive until the command completes).
  void enqueue_read_buffer(Buffer& buffer, std::span<std::byte> out, bool blocking,
                           std::uint64_t offset = 0);
  /// Launch `program` once every earlier command on this queue has finished
  /// and the device's cores are free (programs from different queues
  /// serialise; transfers keep overlapping).
  void enqueue_program(Program& program, bool blocking);

  /// Insert a marker completing when all earlier commands have finished.
  Event record_event();
  /// Park this queue until `event` (recorded on any queue of the same
  /// device) completes.
  void wait_for_event(const Event& event);

  /// Drive the simulator until every command on this queue has completed.
  /// Rethrows errors from async commands (TransferError,
  /// DeviceTimeoutError, ...) exactly as the blocking APIs would.
  void finish();

  /// Drop every command that has not started executing (a started head — a
  /// transfer mid-air or a launched program — is left to run out). Parked
  /// event waits are unregistered from their events; record-event markers
  /// are discarded without completing (their Events stay incomplete
  /// forever). Returns how many commands were cancelled. This is the drain
  /// path for a wedged device: after a watchdog timeout the queued
  /// follow-ups can never run, and cancelling them lets the owner count and
  /// release the abandoned work instead of tripping over kWedgedRunError
  /// one command at a time.
  std::size_t cancel_pending();

  int id() const { return id_; }
  Device& device() { return device_; }
  /// Commands enqueued but not yet completed.
  std::size_t pending() const { return commands_.size(); }

 private:
  friend class Device;
  CommandQueue(Device& device, int id);

  struct Command {
    enum class Kind { kWrite, kRead, kProgram, kRecordEvent, kWaitEvent };
    Kind kind;
    bool started = false;     // async execution in flight
    bool registered = false;  // kWaitEvent: parked on the event's waiter list
    // Transfers.
    Buffer* buffer = nullptr;
    std::uint64_t offset = 0;
    // Write payload: the caller's bytes for a blocking write, else `owned`.
    std::span<const std::byte> data;
    std::vector<std::byte> owned;  // the payload, when it may outlive the caller's
    std::span<std::byte> out;     // read destination (caller-owned)
    SimTime duration = 0;         // per-attempt PCIe time
    int attempt = 0;
    // checksum_transfers only: CRC of the bytes sent (write: the payload;
    // read: the device contents at attempt 0) and of the bytes the latest
    // attempt delivered (write: as landed in DRAM; read: `out`).
    std::uint32_t sent_crc = 0;
    std::uint32_t landed_crc = 0;
    // Read: offset of the byte the latest attempt corrupted in `out`; the
    // next attempt flips it back before rolling again.
    std::optional<std::uint64_t> out_flip;
    std::string first_fault;  // first injected fault, for TransferError
    // Program.
    Program* program = nullptr;
    // Events.
    std::shared_ptr<Event::State> event;
  };

  /// Start / continue executing from the head; returns when the head is in
  /// flight (or parked on an event) or the queue is empty.
  void pump();
  /// Async completion: pop the head and pump the rest.
  void complete_head();

  // Transfer command chain (scheduler callbacks: bus acquire, attempt,
  // landing, checksum verify and retry; see command_queue.cpp).
  void start_transfer(Command& c);
  void transfer_attempt(Command& c);
  void transfer_landed(Command& c);
  void transfer_verify(Command& c);
  void finish_transfer(Command& c);

  // Program command chain.
  void start_program(Command& c);
  void begin_program(Command& c);

  Device& device_;
  int id_;
  std::deque<std::unique_ptr<Command>> commands_;
};

}  // namespace ttsim::ttmetal
