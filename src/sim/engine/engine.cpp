#include "ttsim/sim/engine.hpp"

#include <sstream>

namespace ttsim::sim {

Process::Process(Engine& engine, std::string name, std::function<void()> fn,
                 std::size_t stack_bytes)
    : engine_(engine), name_(std::move(name)), fiber_(std::move(fn), stack_bytes) {}

Engine::~Engine() {
  // Unwind any parked fibers so resources held on their stacks destruct — a
  // wedged device leaves kernels blocked forever, and destroying their
  // fibers mid-flight would leak everything their frames own.
  for (auto& p : processes_) {
    if (p->finished()) continue;
    current_ = p.get();
    p->fiber_.cancel();
    current_ = nullptr;
    p->state_ = Process::State::kFinished;
  }
}

Process* Engine::spawn(std::string name, std::function<void()> fn,
                       std::size_t stack_bytes) {
  auto proc = std::unique_ptr<Process>(
      new Process(*this, std::move(name), std::move(fn), stack_bytes));
  Process* raw = proc.get();
  processes_.push_back(std::move(proc));
  push_wakeup(raw, now_);
  return raw;
}

void Engine::schedule_at(SimTime t, std::function<void()> cb) {
  TTSIM_CHECK_MSG(t >= now_, "cannot schedule an event in the simulated past");
  auto slot = static_cast<std::uint32_t>(callbacks_.size());
  if (free_slots_.empty()) {
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  queue_.push(Event{t, next_seq_++, nullptr, slot});
}

void Engine::push_wakeup(Process* p, SimTime t) {
  queue_.push(Event{t, next_seq_++, p, 0});
}

Process& Engine::current() {
  TTSIM_CHECK_MSG(current_ != nullptr, "not running inside a simulated process");
  return *current_;
}

void Engine::delay(SimTime dt) {
  TTSIM_CHECK(dt >= 0);
  Process& p = current();
  push_wakeup(&p, now_ + dt);
  block_current();
}

void Engine::block_current() {
  Process& p = current();
  p.state_ = Process::State::kBlocked;
  current_ = nullptr;
  p.fiber_.yield();
  // Woken: dispatch() restored current_ and state before resuming us.
}

void Engine::dispatch(const Event& ev) {
  now_ = ev.time;
  ++events_processed_;
  if (ev.process != nullptr) {
    Process* p = ev.process;
    if (p->finished()) return;  // stale wakeup after completion
    p->state_ = Process::State::kRunning;
    current_ = p;
    p->fiber_.resume();
    current_ = nullptr;
    if (p->fiber_.finished()) {
      p->state_ = Process::State::kFinished;
      p->fiber_.rethrow_if_failed();
    } else if (p->state_ == Process::State::kRunning) {
      // The fiber yielded without blocking (e.g. via WaitQueue it was already
      // re-queued); a process that yields must have arranged its own wakeup.
      p->state_ = Process::State::kBlocked;
    }
  } else {
    // Moved out first: the callback may schedule callbacks, which can reuse
    // the slot or grow callbacks_.
    const std::function<void()> cb = std::move(callbacks_[ev.slot]);
    free_slots_.push_back(ev.slot);
    cb();
  }
}

void Engine::run() {
  TTSIM_CHECK_MSG(current_ == nullptr, "Engine::run() called from inside a process");
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  if (unfinished_process_count() > 0) throw_deadlock();
}

SimTime Engine::next_event_time() const {
  TTSIM_CHECK_MSG(!queue_.empty(), "next_event_time() with no pending events");
  return queue_.top().time;
}

bool Engine::step() {
  TTSIM_CHECK_MSG(current_ == nullptr, "Engine::step() called from inside a process");
  if (queue_.empty()) return false;
  const Event ev = queue_.top();
  queue_.pop();
  dispatch(ev);
  return true;
}

void Engine::throw_deadlock(const std::string& diagnosis) const {
  std::ostringstream os;
  os << "simulation deadlock: " << unfinished_process_count()
     << " process(es) blocked forever:";
  for (const auto& name : blocked_process_names()) os << ' ' << name;
  if (!diagnosis.empty()) os << '\n' << diagnosis;
  throw DeadlockError(os.str());
}

bool Engine::run_until(SimTime deadline) {
  TTSIM_CHECK_MSG(current_ == nullptr, "Engine::run_until() called from inside a process");
  while (!queue_.empty() && queue_.top().time <= deadline) {
    const Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  if (now_ < deadline) now_ = deadline;
  return unfinished_process_count() == 0;
}

bool Engine::run_until_done(SimTime deadline) {
  TTSIM_CHECK_MSG(current_ == nullptr,
                  "Engine::run_until_done() called from inside a process");
  while (!queue_.empty() && queue_.top().time <= deadline) {
    const Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  return unfinished_process_count() == 0;
}

std::size_t Engine::unfinished_process_count() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) ++n;
  }
  return n;
}

std::vector<const Process*> Engine::unfinished_processes() const {
  std::vector<const Process*> out;
  for (const auto& p : processes_) {
    if (!p->finished()) out.push_back(p.get());
  }
  return out;
}

std::vector<std::string> Engine::blocked_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (!p->finished()) names.push_back(p->name());
  }
  return names;
}

}  // namespace ttsim::sim
