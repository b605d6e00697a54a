#include "ttsim/sim/engine.hpp"

#include <sstream>
#include <utility>

namespace ttsim::sim {

Process::Process(Engine& engine, std::string name, std::function<void()> fn,
                 std::size_t stack_bytes, std::uint32_t rank)
    : engine_(engine),
      name_(std::move(name)),
      rank_(rank),
      fiber_(std::move(fn), stack_bytes) {}

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
  const auto rank = static_cast<std::uint32_t>(processes_.size() + 1);
  auto proc = std::unique_ptr<Process>(
      new Process(*this, std::move(name), std::move(fn), stack_bytes, rank));
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
  queue_.push(Event{t, next_seq_++, nullptr, slot, 0});
}

void Engine::push_wakeup(Process* p, SimTime t) {
  queue_.push(Event{t, next_seq_++, p, 0, p->rank_});
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
  // The loop's step, taken here: a wakeup next in line is popped and run
  // without going back through the scheduler.
  if (!queue_.empty() && !stop_()) {
    const Event ev = queue_.top();
    Process* next = ev.process;
    if (next != nullptr && !next->finished()) {
      queue_.pop();
      now_ = ev.time;
      ++events_processed_;
      next->state_ = Process::State::kRunning;
      current_ = next;
      if (next != &p) p.fiber_.switch_to(next->fiber_);
      return;  // woken: whoever resumed us set current_ and our state
    }
  }
  // A callback, a stale wakeup, a true stop condition or an empty queue:
  // back to the loop, with current_ still naming this process.
  p.fiber_.yield();
}

void Engine::run_until_stopped(StopCondition stop) {
  TTSIM_CHECK_MSG(current_ == nullptr,
                  "Engine dispatch loop entered from inside a process");
  struct Install {
    Engine& engine;
    StopCondition saved;
    ~Install() { engine.stop_ = saved; }
  } install{*this, std::exchange(stop_, stop)};
  while (!queue_.empty() && !stop()) {
    const Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++events_processed_;
    if (ev.process == nullptr) {
      // Moved out first: the callback may schedule callbacks, which can
      // reuse the slot or grow callbacks_.
      const std::function<void()> cb = std::move(callbacks_[ev.slot]);
      free_slots_.push_back(ev.slot);
      cb();
      continue;
    }
    Process* p = ev.process;
    if (p->finished()) continue;  // stale wakeup after completion
    p->state_ = Process::State::kRunning;
    current_ = p;
    p->fiber_.resume();
    // Back from p or from a process the handoffs reached since.
    Process* back = std::exchange(current_, nullptr);
    if (back->fiber_.finished()) {
      back->state_ = Process::State::kFinished;
      back->fiber_.rethrow_if_failed();
    }
  }
}

void Engine::run() {
  run_until_stopped([]() noexcept { return false; });
  if (unfinished_process_count() > 0) throw_deadlock();
}

SimTime Engine::next_event_time() const {
  TTSIM_CHECK_MSG(!queue_.empty(), "next_event_time() with no pending events");
  return queue_.top().time;
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
  const bool done = run_until_done(deadline);
  if (now_ < deadline) now_ = deadline;
  return done;
}

bool Engine::run_until_done(SimTime deadline) {
  run_until_stopped([&]() noexcept { return queue_.top().time > deadline; });
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
