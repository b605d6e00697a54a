#include "ttsim/sim/fiber.hpp"

#include <cstdint>
#include <cstring>
#include <new>

#if !defined(__x86_64__) || defined(_WIN32)
#error "src/sim/engine/fiber.cpp: the fiber context switch is written for the x86-64 System V ABI only"
#endif

// The context switch. ttsim_fiber_switch(save_sp, load_sp) pushes the
// callee-saved state onto the current stack, stores the stack pointer to
// *save_sp, loads load_sp and pops the same state from that stack, so its
// `ret` lands wherever the other side last called it. The System V ABI makes
// rbx, rbp, r12-r15, the MXCSR control bits and the x87 control word
// callee-saved; the compiler already treats everything else as clobbered by
// a call. The signal mask is not fiber state (nothing changes it per fiber),
// so unlike swapcontext no switch enters the kernel.
//
// ttsim_fiber_start is where a new fiber's first switch returns to (see the
// frame resume() builds): it calls the entry function in r12 with the Fiber*
// from rbx on a 16-byte-aligned stack. Its CFI marks rip undefined so
// unwinders and debuggers stop at the fiber's outermost frame.
extern "C" {
void ttsim_fiber_switch(void** save_sp, void* load_sp) noexcept;
void ttsim_fiber_start() noexcept;
}

asm(R"(
  .pushsection .text
  .p2align 4
  .type ttsim_fiber_switch, @function
ttsim_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size ttsim_fiber_switch, .-ttsim_fiber_switch

  .p2align 4
  .type ttsim_fiber_start, @function
ttsim_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %rbx, %rdi
  call *%r12
  ud2
  .cfi_endproc
  .size ttsim_fiber_start, .-ttsim_fiber_start
  .popsection
)");

// ASan tracks one stack per thread; without annotations, a context switch
// onto a fiber stack (or an exception thrown on one — __asan_handle_no_return
// unpoisons what it believes is "the" stack) produces false positives and
// crashes. The start/finish pair below tells ASan about every switch. The
// declarations are spelled out instead of including
// <sanitizer/common_interface_defs.h> so non-sanitized builds never look for
// the header.
#if defined(__SANITIZE_ADDRESS__)
#define TTSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TTSIM_ASAN_FIBERS 1
#endif
#endif

#ifdef TTSIM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old, size_t* size_old);
}
#endif

// TSan's model is different: one shadow context per fiber, created/destroyed
// explicitly, with __tsan_switch_to_fiber called immediately before each
// switch. Without it TSan attributes the fiber's accesses to the
// scheduler's stack and dies on its own bookkeeping. Each engine runs on
// one host thread at a time (a sharded solve runs each card's engine on its
// own thread); the annotations keep TSan's per-"thread" state coherent so
// the host code around the engines can be checked.
#if defined(__SANITIZE_THREAD__)
#define TTSIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TTSIM_TSAN_FIBERS 1
#endif
#endif

#ifdef TTSIM_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace ttsim::sim {
namespace {
thread_local Fiber* t_current_fiber = nullptr;

/// What ttsim_fiber_switch leaves at the saved stack pointer, lowest address
/// first.
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t pad = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13 = nullptr;
  void* r12 = nullptr;
  void* rbx = nullptr;
  void* rbp = nullptr;
  void* ret = nullptr;
};
// Popping a whole frame off a 16-byte-aligned slot leaves the stack pointer
// 16-byte aligned, as ttsim_fiber_start's call needs.
static_assert(sizeof(SwitchFrame) % 16 == 0);
}  // namespace

Fiber::Fiber(std::function<void()> entry, std::size_t stack_bytes)
    : entry_(std::move(entry)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {
  TTSIM_CHECK(entry_ != nullptr);
  TTSIM_CHECK(stack_bytes_ >= 16 * 1024);
}

Fiber::~Fiber() {
  // A fiber destroyed mid-flight would leak whatever is on its stack; the
  // engine destroys fibers only after completion — at teardown it first
  // unwinds parked fibers via cancel(). Nothing to do beyond freeing memory.
#ifdef TTSIM_TSAN_FIBERS
  if (tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

Fiber* Fiber::current() { return t_current_fiber; }

void Fiber::finish_switch_in(void* fake_stack) {
#ifdef TTSIM_ASAN_FIBERS
  // Complete the switcher's start_switch. After a resume() the switcher is
  // the driver, whose stack bounds the next yield switches back to. After a
  // switch_to the switcher is another fiber, which already handed on its
  // driver's bounds, so the switcher's own are dropped.
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (!asan_handed_off_) {
    asan_caller_bottom_ = bottom;
    asan_caller_size_ = size;
  }
  asan_handed_off_ = false;
#else
  (void)fake_stack;
#endif
}

void Fiber::run() {
  finish_switch_in(nullptr);  // first activation: no fake stack yet
  try {
    entry_();
  } catch (const FiberCancelled&) {
    // Teardown unwind requested by cancel(); not an error.
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
#ifdef TTSIM_ASAN_FIBERS
  // Final exit: null fake_stack_save destroys the fiber's fake stack.
  __sanitizer_start_switch_fiber(nullptr, asan_caller_bottom_,
                                 asan_caller_size_);
#endif
#ifdef TTSIM_TSAN_FIBERS
  // Final exit switches back to the driver's context; the fiber's own
  // context is destroyed with the Fiber object.
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  // Leave by switching away, never by returning into ttsim_fiber_start: the
  // sanitizer annotations above must sit at the real switch point. TSan in
  // particular maintains a per-context shadow call stack via function
  // entry/exit hooks — unwinding run() after the switch annotation would pop
  // its frame on the *driver's* shadow stack and corrupt it.
  ttsim_fiber_switch(&sp_, return_sp_);
}

void Fiber::prepare_start(std::uint32_t mxcsr, std::uint16_t x87_cw) {
  // The first switch pops this frame and returns into ttsim_fiber_start;
  // rbp = 0 ends frame-pointer walks.
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes_) &
      ~std::uintptr_t{15};
  auto* frame =
      new (reinterpret_cast<void*>(top - sizeof(SwitchFrame))) SwitchFrame{};
  frame->mxcsr = mxcsr;
  frame->x87_cw = x87_cw;
  void (*entry)(Fiber*) = [](Fiber* self) { self->run(); };
  frame->r12 = reinterpret_cast<void*>(entry);
  frame->rbx = this;
  frame->ret = reinterpret_cast<void*>(&ttsim_fiber_start);
  sp_ = frame;
  started_ = true;
}

void Fiber::resume() {
  TTSIM_CHECK_MSG(!running_, "fiber resumed re-entrantly");
  TTSIM_CHECK_MSG(!finished_, "resume() on a finished fiber");
  if (!started_) {
    // A new fiber starts with its resumer's floating-point control state
    // (rounding mode, exception masks).
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_cw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
    prepare_start(mxcsr, x87_cw);
  }
  Fiber* prev = t_current_fiber;
  t_current_fiber = this;
  running_ = true;
#ifdef TTSIM_ASAN_FIBERS
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_.get(),
                                 stack_bytes_);
#endif
#ifdef TTSIM_TSAN_FIBERS
  // The resumer's context is re-captured every time: a fiber may be resumed
  // from different points (scheduler, nested resumes) across its life.
  if (!tsan_fiber_) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  ttsim_fiber_switch(&return_sp_, sp_);
  // Control came back from this fiber or from one it handed off to; either
  // way the fiber that yielded or finished is still marked current.
  Fiber* back = t_current_fiber;
#ifdef TTSIM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
  back->running_ = false;
  t_current_fiber = prev;
  // A finished fiber never runs again: its stack goes back now, not when the
  // Fiber is destroyed (an engine keeps every process it has spawned).
  if (back->finished_) back->stack_.reset();
}

void Fiber::yield() {
  TTSIM_CHECK_MSG(t_current_fiber == this, "yield() called from outside the fiber");
#ifdef TTSIM_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_caller_bottom_,
                                 asan_caller_size_);
#endif
#ifdef TTSIM_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  ttsim_fiber_switch(&sp_, return_sp_);
  finish_switch_in(asan_fake_stack_);
  if (cancel_requested_) throw FiberCancelled{};
}

void Fiber::switch_to(Fiber& next) {
  TTSIM_CHECK_MSG(t_current_fiber == this,
                  "switch_to() called from outside the fiber");
  TTSIM_DCHECK(&next != this && !next.running_ && !next.finished_);
  if (!next.started_) {
    // Start `next` with the driver's control words, which the driver's
    // switch into this fiber saved at return_sp_, not with this fiber's.
    SwitchFrame driver;
    std::memcpy(&driver, return_sp_, sizeof driver);
    next.prepare_start(driver.mxcsr, driver.x87_cw);
  }
  // `next` inherits the driver: its yield or finish returns there.
  next.return_sp_ = return_sp_;
  running_ = false;
  next.running_ = true;
  t_current_fiber = &next;
#ifdef TTSIM_ASAN_FIBERS
  next.asan_caller_bottom_ = asan_caller_bottom_;
  next.asan_caller_size_ = asan_caller_size_;
  next.asan_handed_off_ = true;
  __sanitizer_start_switch_fiber(&asan_fake_stack_, next.stack_.get(),
                                 next.stack_bytes_);
#endif
#ifdef TTSIM_TSAN_FIBERS
  if (!next.tsan_fiber_) next.tsan_fiber_ = __tsan_create_fiber(0);
  next.tsan_caller_ = tsan_caller_;
  __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
  ttsim_fiber_switch(&sp_, next.sp_);
  finish_switch_in(asan_fake_stack_);
  if (cancel_requested_) throw FiberCancelled{};
}

void Fiber::cancel() {
  TTSIM_CHECK_MSG(!running_, "cancel() called from inside the fiber");
  if (!started_ || finished_) return;
  cancel_requested_ = true;
  resume();
  TTSIM_CHECK_MSG(finished_, "cancelled fiber blocked again while unwinding");
}

void Fiber::rethrow_if_failed() {
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace ttsim::sim
