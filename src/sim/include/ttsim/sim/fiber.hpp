#pragma once
/// \file fiber.hpp
/// Cooperative fibers underpinning the simulator. Each simulated baby-core
/// kernel runs on its own fiber; the scheduler switches between fibers only
/// at simulation API calls, making runs fully deterministic and independent
/// of host thread timing. A switch swaps the callee-saved registers and the
/// stack pointer in user space (x86-64 only; see fiber.cpp).

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

#include "ttsim/common/check.hpp"

namespace ttsim::sim {

/// Thrown through a parked fiber's yield point by Fiber::cancel() so the
/// fiber's stack unwinds (destructors run) at teardown. Caught and discarded
/// at the bottom of the fiber; never escapes to the scheduler.
struct FiberCancelled {};

/// A single cooperative fiber. Not movable once started (the saved stack
/// pointers address its stack).
class Fiber {
 public:
  /// \param entry    Function executed on the fiber's stack.
  /// \param stack_bytes Stack size; kernels using deep recursion should raise it.
  ///        The stack is freed as soon as the fiber finishes.
  explicit Fiber(std::function<void()> entry, std::size_t stack_bytes = 128 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the caller (the driver) into the fiber. Returns once
  /// control comes back from this fiber or from any fiber it handed off to
  /// (see switch_to), when that fiber yields or finishes; a finished one's
  /// stack is freed before this returns. Must not be called re-entrantly.
  void resume();

  /// Switch from inside the fiber back to its driver: the resumer whose
  /// resume() started the chain of handoffs this fiber was reached by. Only
  /// callable on the fiber itself.
  void yield();

  /// Hand off from inside this fiber straight to `next`, which runs as if
  /// the driver had resumed it: its yield (or its finish) returns to this
  /// fiber's driver. This fiber stays parked here until someone resumes or
  /// hands off to it. A `next` that has not started yet starts with the
  /// driver's floating-point control state. Only callable on this fiber;
  /// `next` must be another fiber that is neither running nor finished.
  void switch_to(Fiber& next);

  bool finished() const { return finished_; }
  /// Whether the fiber still owns its stack; false once it has finished.
  bool has_stack() const { return stack_ != nullptr; }

  /// Rethrows any exception that escaped the fiber entry function.
  void rethrow_if_failed();

  /// Unwind a started-but-unfinished fiber: resume it one last time with
  /// FiberCancelled thrown from the yield() or switch_to() it is parked in,
  /// so every object on its stack destructs. Used at engine teardown for
  /// processes parked forever (deadlocked or halted kernels on a wedged
  /// device). No-op when the fiber never started or already finished; must
  /// not be called from inside.
  void cancel();

  /// The fiber currently executing on this thread, or nullptr when in the
  /// scheduler.
  static Fiber* current();

 private:
  void run();
  /// Lay out the frame whose first switch enters ttsim_fiber_start with the
  /// given floating-point control words.
  void prepare_start(std::uint32_t mxcsr, std::uint16_t x87_cw);
  /// Sanitizer bookkeeping at every point where this fiber is switched
  /// back in (see fiber.cpp).
  void finish_switch_in(void* fake_stack);

  std::function<void()> entry_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  void* sp_ = nullptr;         // fiber's stack pointer while switched out
  void* return_sp_ = nullptr;  // resumer's stack pointer while the fiber runs
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  bool cancel_requested_ = false;
  std::exception_ptr error_;
  // ASan fiber-switch bookkeeping (see fiber.cpp; unused without ASan).
  void* asan_fake_stack_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
  bool asan_handed_off_ = false;  // driver bounds came with a switch_to
  // TSan fiber contexts (see fiber.cpp; unused without TSan).
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace ttsim::sim
