#include "ttsim/ttmetal/command_queue.hpp"

#include <algorithm>

#include "ttsim/common/crc32.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::ttmetal {

SimTime Event::completed_at() const {
  if (!completed()) {
    TTSIM_THROW_API("Event::completed_at on an event that has not completed");
  }
  return state_->time;
}

CommandQueue::CommandQueue(Device& device, int id) : device_(device), id_(id) {}

void CommandQueue::enqueue_write_buffer(Buffer& buffer, std::span<const std::byte> data,
                                        bool blocking, std::uint64_t offset) {
  device_.validate_transfer(buffer, offset, data.size(), /*is_write=*/true);
  auto c = std::make_unique<Command>();
  c->kind = Command::Kind::kWrite;
  c->buffer = &buffer;
  c->offset = offset;
  if (blocking) {
    c->data = data;
  } else {
    c->owned.assign(data.begin(), data.end());
    c->data = c->owned;
  }
  if (device_.config_.checksum_transfers) c->sent_crc = crc32(data);
  c->duration = device_.spec().pcie_latency +
                transfer_time(data.size(), device_.spec().pcie_gbs);
  Command* const write = c.get();
  commands_.push_back(std::move(c));
  pump();
  if (!blocking) return;
  try {
    finish();
  } catch (...) {
    // Another command's error surfaced while this write was still queued or
    // on the bus. It outlives this call, so it must stop reading the
    // caller's bytes: hand it a copy, exactly as a non-blocking write holds.
    if (std::any_of(commands_.begin(), commands_.end(),
                    [write](const auto& queued) { return queued.get() == write; })) {
      write->owned.assign(data.begin(), data.end());
      write->data = write->owned;
    }
    throw;
  }
}

void CommandQueue::enqueue_read_buffer(Buffer& buffer, std::span<std::byte> out,
                                       bool blocking, std::uint64_t offset) {
  device_.validate_transfer(buffer, offset, out.size(), /*is_write=*/false);
  auto c = std::make_unique<Command>();
  c->kind = Command::Kind::kRead;
  c->buffer = &buffer;
  c->offset = offset;
  c->out = out;
  c->duration = device_.spec().pcie_latency +
                transfer_time(out.size(), device_.spec().pcie_gbs);
  commands_.push_back(std::move(c));
  pump();
  if (blocking) finish();
}

void CommandQueue::enqueue_program(Program& program, bool blocking) {
  auto c = std::make_unique<Command>();
  c->kind = Command::Kind::kProgram;
  c->program = &program;
  commands_.push_back(std::move(c));
  pump();
  if (blocking) finish();
}

Event CommandQueue::record_event() {
  Event ev;
  ev.state_ = std::make_shared<Event::State>();
  ev.state_->device = &device_;
  auto c = std::make_unique<Command>();
  c->kind = Command::Kind::kRecordEvent;
  c->event = ev.state_;
  commands_.push_back(std::move(c));
  pump();
  return ev;
}

void CommandQueue::wait_for_event(const Event& event) {
  TTSIM_CHECK_MSG(event.valid(), "wait_for_event on a default-constructed Event");
  TTSIM_CHECK_MSG(event.state_->device == &device_,
                  "wait_for_event across devices is not supported (each card has "
                  "its own independent clock)");
  auto c = std::make_unique<Command>();
  c->kind = Command::Kind::kWaitEvent;
  c->event = event.state_;
  commands_.push_back(std::move(c));
  pump();
}

void CommandQueue::finish() {
  device_.drive([this]() noexcept { return commands_.empty(); });
}

std::size_t CommandQueue::cancel_pending() {
  std::size_t cancelled = 0;
  // The head may be in flight: scheduled engine callbacks hold a reference
  // to it, so it must stay until it completes (or the device is destroyed).
  while (!commands_.empty() && !commands_.back()->started) {
    Command& c = *commands_.back();
    if (c.kind == Command::Kind::kWaitEvent && c.registered) {
      auto& waiters = c.event->waiters;
      waiters.erase(std::remove(waiters.begin(), waiters.end(), this),
                    waiters.end());
    }
    commands_.pop_back();
    ++cancelled;
  }
  return cancelled;
}

void CommandQueue::pump() {
  while (!commands_.empty()) {
    Command& c = *commands_.front();
    if (c.started) return;  // async execution in flight; completion pumps again
    switch (c.kind) {
      case Command::Kind::kWaitEvent: {
        if (!c.event->completed) {
          if (!c.registered) {
            c.event->waiters.push_back(this);
            c.registered = true;
          }
          return;  // parked until the event's recording queue reaches it
        }
        commands_.pop_front();
        continue;
      }
      case Command::Kind::kRecordEvent: {
        auto state = c.event;
        commands_.pop_front();
        state->completed = true;
        state->time = device_.hw().engine().now();
        std::vector<CommandQueue*> waiters = std::move(state->waiters);
        state->waiters.clear();
        for (CommandQueue* q : waiters) q->pump();
        continue;
      }
      case Command::Kind::kWrite:
      case Command::Kind::kRead:
        c.started = true;
        start_transfer(c);
        return;
      case Command::Kind::kProgram:
        c.started = true;
        start_program(c);
        return;
    }
  }
}

void CommandQueue::complete_head() {
  commands_.pop_front();
  pump();
}

// --- transfers -------------------------------------------------------------
// One transfer is a chain of engine callbacks: acquire the PCIe bus, spend
// the attempt's duration on it, land the bytes (rolling the FaultPlan for a
// corruption), and, with checksum_transfers, verify one ack latency later
// and retry with exponential backoff on a mismatch. Blocking transfers are
// the same chain followed by finish(), so queued transfers overlap kernel
// execution with the same delays, trace records and error text.

void CommandQueue::start_transfer(Command& c) {
  device_.acquire_pcie([this, &c] { transfer_attempt(c); });
}

void CommandQueue::transfer_attempt(Command& c) {
  device_.hw().engine().schedule_after(c.duration, [this, &c] { transfer_landed(c); });
}

void CommandQueue::transfer_landed(Command& c) {
  auto& engine = device_.hw().engine();
  auto& dram = device_.hw().dram();
  const bool is_write = c.kind == Command::Kind::kWrite;
  const bool checksum = device_.config_.checksum_transfers;
  const std::uint64_t addr = c.buffer->address() + c.offset;
  const std::size_t size = is_write ? c.data.size() : c.out.size();
  device_.pcie_time_ += c.duration;
  if (auto* tr = device_.hw().trace()) {
    tr->record(sim::TraceEventKind::kPcieTransfer, engine.now() - c.duration,
               c.duration, {-1, c.attempt, is_write ? 1 : 0, addr, size});
  }
  sim::FaultPlan* plan = device_.hw().fault_plan();
  std::uint64_t corrupt_at = 0;
  const auto corrupted = [&] {
    if (plan == nullptr || !plan->pcie_corrupt(engine.now(), size, &corrupt_at)) return false;
    if (c.first_fault.empty()) c.first_fault = sim::to_string(*plan->last_event());
    return true;
  };
  if (is_write) {
    dram.host_write(addr, c.data.data(), size);
    if (corrupted()) {
      const std::byte flipped = c.data[corrupt_at] ^ std::byte{0x40};
      dram.host_write(addr + corrupt_at, &flipped, 1);
    }
    // Nothing runs between this callback's statements, so these are exactly
    // the bytes this attempt landed.
    if (checksum) c.landed_crc = crc32(dram.host_view(addr, size));
  } else {
    if (c.attempt == 0) {
      // True device-side contents, captured once the transfer's simulated
      // time has elapsed.
      dram.host_read(addr, c.out.data(), size);
      if (checksum) c.sent_crc = crc32(c.out);
    } else if (c.out_flip) {
      // Undo the previous attempt's corruption: `out` is back to the
      // device contents captured at attempt 0.
      c.out[*c.out_flip] ^= std::byte{0x40};
      c.out_flip.reset();
    }
    if (corrupted()) {
      c.out[corrupt_at] ^= std::byte{0x40};
      c.out_flip = corrupt_at;
    }
    if (checksum) c.landed_crc = crc32(c.out);
  }
  if (!checksum) {
    finish_transfer(c);
    return;
  }
  // The device checksums the payload in-line; the host pays one extra
  // round-trip latency for the acknowledgement.
  engine.schedule_after(device_.spec().pcie_latency, [this, &c] { transfer_verify(c); });
}

void CommandQueue::transfer_verify(Command& c) {
  auto& engine = device_.hw().engine();
  const bool is_write = c.kind == Command::Kind::kWrite;
  device_.pcie_time_ += device_.spec().pcie_latency;
  if (c.landed_crc == c.sent_crc) {
    finish_transfer(c);
    return;
  }
  if (c.attempt >= device_.config_.transfer_max_retries) {
    device_.post_host_error(std::make_exception_ptr(TransferError(
        std::string(is_write ? "write_buffer" : "read_buffer") +
        " checksum mismatch persisted after " + std::to_string(c.attempt) +
        " retries; first fault: " +
        (c.first_fault.empty() ? "<none recorded>" : c.first_fault))));
    finish_transfer(c);
    return;
  }
  ++device_.transfer_retries_;
  const SimTime backoff = device_.config_.transfer_retry_backoff << c.attempt;
  ++c.attempt;
  engine.schedule_after(backoff, [this, &c, backoff] {
    device_.pcie_time_ += backoff;
    transfer_attempt(c);
  });
}

void CommandQueue::finish_transfer(Command& c) {
  (void)c;
  device_.release_pcie();
  complete_head();
}

// --- programs --------------------------------------------------------------

void CommandQueue::start_program(Command& c) {
  device_.acquire_program_slot([this, &c] { begin_program(c); });
}

void CommandQueue::begin_program(Command& c) {
  // Re-checked here (not only at enqueue): a program queued behind another
  // may find the device wedged by the time the cores free up.
  if (device_.wedged_) {
    device_.release_program_slot();
    device_.post_host_error(
        std::make_exception_ptr(ApiError(detail::kWedgedRunError)));
    complete_head();
    return;
  }
  Program* program = c.program;
  device_.hw().engine().schedule_after(
      device_.spec().program_dispatch,
      [this, program] { device_.launch_kernels(*program, *this); });
}

}  // namespace ttsim::ttmetal
