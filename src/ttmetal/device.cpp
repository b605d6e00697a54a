#include "ttsim/ttmetal/device.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "ttsim/common/log.hpp"

namespace ttsim::ttmetal {

Buffer::Buffer(Device& device, const BufferConfig& config, std::uint64_t address,
               int bank)
    : device_(device), config_(config), address_(address), bank_(bank) {
  storage_.resize(config.size);
}

Buffer::~Buffer() { device_.release_buffer(*this); }

Device::Device(sim::GrayskullSpec spec, DeviceConfig config)
    : hw_(spec),
      config_(std::move(config)),
      bank_live_(static_cast<std::size_t>(spec.dram_banks)) {
  TTSIM_CHECK(config_.transfer_max_retries >= 0);
  // Enable tracing before installing the fault plan so install_fault_plan
  // binds the plan's mirror to this device's sink.
  if (config_.enable_trace) hw_.enable_trace();
  if (config_.fault_plan != nullptr) hw_.install_fault_plan(config_.fault_plan);
  if (config_.enable_verify) verify_ = std::make_unique<verify::Verifier>();
}

verify::DeviceInfo Device::verify_info() {
  verify::DeviceInfo info;
  info.num_workers = hw_.worker_count();
  info.sram_bytes = hw_.spec().sram_bytes;
  info.dram_align_bytes = static_cast<std::uint32_t>(hw_.spec().dram_alignment);
  sim::FaultPlan* plan = hw_.fault_plan();
  if (plan != nullptr) {
    const SimTime t = hw_.engine().now();
    for (int w = 0; w < hw_.worker_count(); ++w) {
      if (plan->core_dead(w, t)) info.failed_cores.push_back(w);
    }
  }
  return info;
}

std::vector<verify::LintError> Device::lint_program(const Program& program) {
  return verify::lint(program.verify_info(), verify_info());
}

namespace {

void add_once(std::vector<std::string>& names, const std::string& kernel) {
  if (std::find(names.begin(), names.end(), kernel) == names.end()) {
    names.push_back(kernel);
  }
}

}  // namespace

void Device::check_kernel_local(int core, int cb_id, const CbPeers& peers,
                                const std::string& kernel) {
  sim::TensixCore& worker = hw_.worker(core);
  if (!worker.has_cb(cb_id) || !worker.cb(cb_id).kernel_local()) return;
  for (const auto* names : {&peers.producers, &peers.consumers}) {
    for (const std::string& other : *names) {
      if (other != kernel) {
        TTSIM_THROW_API("CB " << cb_id << " on core " << core
                              << " is declared kernel-local, but both " << other
                              << " and " << kernel << " use it");
      }
    }
  }
}

void Device::note_cb_producer(int core, int cb_id, const std::string& kernel) {
  CbPeers& peers = cb_peers_[{core, cb_id}];
  check_kernel_local(core, cb_id, peers, kernel);
  add_once(peers.producers, kernel);
}

void Device::note_cb_consumer(int core, int cb_id, const std::string& kernel) {
  CbPeers& peers = cb_peers_[{core, cb_id}];
  check_kernel_local(core, cb_id, peers, kernel);
  add_once(peers.consumers, kernel);
}

void Device::note_sem_poster(int core, int sem_id, const std::string& kernel) {
  add_once(sem_posters_[{core, sem_id}], kernel);
}

verify::DeadlockReport Device::diagnose_blocked(bool quiescent) {
  std::vector<verify::BlockedKernel> blocked;
  for (const sim::Process* p : hw_.engine().unfinished_processes()) {
    verify::BlockedKernel k;
    k.name = p->name();
    k.site = p->wait_site();
    const auto core_it = kernel_core_by_name_.find(k.name);
    k.core = core_it != kernel_core_by_name_.end() ? core_it->second : -1;
    using Kind = sim::WaitSite::Kind;
    if (k.site.kind == Kind::kCbFull) {
      // Full CB: a consumer pop frees space.
      const auto it = cb_peers_.find({k.site.core, k.site.id});
      if (it != cb_peers_.end()) k.known_unblockers = it->second.consumers;
    } else if (k.site.kind == Kind::kCbEmpty) {
      const auto it = cb_peers_.find({k.site.core, k.site.id});
      if (it != cb_peers_.end()) k.known_unblockers = it->second.producers;
    } else if (k.site.kind == Kind::kSemaphore) {
      const auto it = sem_posters_.find({k.site.core, k.site.id});
      if (it != sem_posters_.end()) k.known_unblockers = it->second;
    }
    blocked.push_back(std::move(k));
  }
  return verify::diagnose(blocked, quiescent);
}

sim::MetricsReport Device::metrics() {
  if (hw_.trace() == nullptr) {
    TTSIM_THROW_API(
        "Device::metrics requires DeviceConfig::enable_trace at open");
  }
  return sim::build_metrics(*hw_.trace(), hw_.spec().dram_banks);
}

Device::~Device() = default;

std::unique_ptr<Device> Device::open(sim::GrayskullSpec spec, DeviceConfig config) {
  return std::unique_ptr<Device>(new Device(spec, std::move(config)));
}

std::vector<int> Device::usable_workers() {
  std::vector<int> usable;
  sim::FaultPlan* plan = hw_.fault_plan();
  const SimTime t = hw_.engine().now();
  usable.reserve(static_cast<std::size_t>(hw_.worker_count()));
  for (int w = 0; w < hw_.worker_count(); ++w) {
    if (plan != nullptr && plan->core_dead(w, t)) continue;
    usable.push_back(w);
  }
  return usable;
}

std::shared_ptr<Buffer> Device::create_buffer(const BufferConfig& config) {
  TTSIM_CHECK(config.size > 0);
  const auto& spec = hw_.spec();
  std::uint64_t addr = 0;
  int bank = -1;
  sim::DramRegion region;
  if (config.layout == BufferLayout::kSingleBank) {
    bank = config.bank >= 0 ? config.bank : (next_bank_++ % spec.dram_banks);
    TTSIM_CHECK_MSG(bank < spec.dram_banks, "bank index out of range");
    auto& live = bank_live_[static_cast<std::size_t>(bank)];
    std::uint64_t top = 0;
    for (const auto& [off, size] : live) top = std::max(top, off + size);
    const std::uint64_t offset = align_up(top, spec.dram_alignment);
    if (offset + config.size > spec.dram_bank_bytes) {
      TTSIM_THROW_API("DRAM bank " << bank << " exhausted: requested " << config.size
                                   << " bytes with "
                                   << (spec.dram_bank_bytes - offset) << " free");
    }
    live.emplace_back(offset, config.size);
    addr = static_cast<std::uint64_t>(bank) * spec.dram_bank_bytes + offset;
    region = sim::DramRegion{addr, config.size, bank, 0, false, nullptr};
  } else {
    std::uint64_t page = config.page_size;
    const bool coarse = config.layout == BufferLayout::kStriped;
    if (coarse) {
      if (page == 0) {
        page = align_up(config.size / static_cast<std::uint64_t>(spec.dram_banks) + 1,
                        spec.dram_alignment);
      }
    } else if (page == 0 || page > spec.max_interleave_page) {
      TTSIM_THROW_API("interleave page size must be in (0, 64KiB], got " << page);
    }
    const std::uint64_t base = spec.dram_total_bytes();  // virtual region above banks
    std::uint64_t top = 0;
    for (const auto& [off, size] : interleaved_live_) top = std::max(top, off + size);
    const std::uint64_t offset = align_up(top, spec.dram_alignment);
    interleaved_live_.emplace_back(offset, config.size);
    addr = base + offset;
    region = sim::DramRegion{addr, config.size, -1, page, coarse, nullptr};
    region.balanced = coarse && config.balanced_stripes;
  }
  auto buffer = std::shared_ptr<Buffer>(new Buffer(*this, config, addr, bank));
  region.storage = buffer->storage_.data();
  hw_.dram().add_region(region);
  return buffer;
}

void Device::release_buffer(const Buffer& buffer) {
  hw_.dram().remove_region(buffer.address());
  const auto& spec = hw_.spec();
  auto drop = [](auto& live, std::uint64_t offset) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->first == offset) {
        live.erase(it);
        return;
      }
    }
  };
  if (buffer.config().layout == BufferLayout::kSingleBank) {
    const auto bank = static_cast<std::uint64_t>(buffer.bank());
    drop(bank_live_[static_cast<std::size_t>(buffer.bank())],
         buffer.address() - bank * spec.dram_bank_bytes);
  } else {
    drop(interleaved_live_, buffer.address() - spec.dram_total_bytes());
  }
}

void Device::validate_transfer(const Buffer& buffer, std::uint64_t offset,
                               std::size_t size, bool is_write) const {
  if (offset + size <= buffer.size()) return;
  TTSIM_THROW_API((is_write ? "write_buffer" : "read_buffer")
                  << ": transfer of " << size << " bytes at offset " << offset
                  << " exceeds buffer \"" << buffer.name() << "\" ("
                  << buffer.size() << " bytes)");
}

CommandQueue& Device::command_queue(int id) {
  TTSIM_CHECK_MSG(id >= 0 && id < 64, "command queue id out of range: " << id);
  if (static_cast<std::size_t>(id) >= command_queues_.size()) {
    command_queues_.resize(static_cast<std::size_t>(id) + 1);
  }
  auto& slot = command_queues_[static_cast<std::size_t>(id)];
  if (slot == nullptr) slot.reset(new CommandQueue(*this, id));
  return *slot;
}

std::size_t Device::cancel_queues() {
  std::size_t cancelled = 0;
  for (auto& queue : command_queues_) {
    if (queue != nullptr) cancelled += queue->cancel_pending();
  }
  // A queued async error (e.g. kWedgedRunError from a follow-up program)
  // belongs to the abandoned commands; surfacing it later would double-report
  // a failure the caller already handled.
  pending_host_error_ = nullptr;
  return cancelled;
}

void Device::synchronize(const Event& event) {
  TTSIM_CHECK_MSG(event.valid(), "synchronize on a default-constructed Event");
  TTSIM_CHECK_MSG(event.state_->device == this,
                  "synchronize: the event belongs to another device");
  auto state = event.state_;
  drive([&state]() noexcept { return state->completed; });
}

void Device::drive(sim::StopCondition done) {
  auto& engine = hw_.engine();
  // Past the watchdog deadline: the program cannot finish in time, exactly
  // run_until_done's verdict, with now() left at the last processed event.
  const auto overdue = [&]() noexcept {
    return running_ != nullptr && running_->deadline > 0 &&
           (!engine.has_pending() || engine.next_event_time() > running_->deadline);
  };
  try {
    engine.run_until_stopped([&]() noexcept {
      return pending_host_error_ != nullptr || done() || overdue();
    });
  } catch (...) {
    // A kernel exception unwound out of the engine.
    if (running_ != nullptr) fail_running_program();
    throw;
  }
  if (pending_host_error_ != nullptr) {
    std::exception_ptr error = std::exchange(pending_host_error_, nullptr);
    std::rethrow_exception(error);
  }
  if (done()) return;
  if (overdue()) throw_program_timeout();
  // The queue drained first.
  if (running_ != nullptr) {
    // Unbounded program wedged: report the blocked kernels exactly as
    // Engine::run() does, plus the wait-for cycle diagnosis (the queue has
    // drained, so the structural edges are sound).
    const std::string diagnosis = diagnose_blocked(/*quiescent=*/true).text;
    fail_running_program();
    engine.throw_deadlock(diagnosis);
  }
  TTSIM_THROW_API(
      "command queues stalled: commands pending but no simulator events "
      "remain (waiting on an event that is never recorded?)");
}

void Device::post_host_error(std::exception_ptr error) {
  if (pending_host_error_ == nullptr) pending_host_error_ = std::move(error);
}

void Device::acquire_pcie(std::function<void()> fn) {
  if (!pcie_busy_) {
    pcie_busy_ = true;
    fn();
    return;
  }
  pcie_waiters_.push_back(std::move(fn));
}

void Device::release_pcie() {
  TTSIM_DCHECK(pcie_busy_);
  if (!pcie_waiters_.empty()) {
    auto fn = std::move(pcie_waiters_.front());
    pcie_waiters_.pop_front();
    fn();  // the bus stays busy, handed FIFO to the next transfer
    return;
  }
  pcie_busy_ = false;
}

void Device::acquire_program_slot(std::function<void()> fn) {
  if (!program_busy_) {
    program_busy_ = true;
    fn();
    return;
  }
  program_waiters_.push_back(std::move(fn));
}

void Device::release_program_slot() {
  TTSIM_DCHECK(program_busy_);
  if (!program_waiters_.empty()) {
    auto fn = std::move(program_waiters_.front());
    program_waiters_.pop_front();
    fn();
    return;
  }
  program_busy_ = false;
}

void Device::write_buffer(Buffer& buffer, std::span<const std::byte> data,
                          std::uint64_t offset) {
  command_queue(0).enqueue_write_buffer(buffer, data, /*blocking=*/true, offset);
}

void Device::read_buffer(Buffer& buffer, std::span<std::byte> out,
                         std::uint64_t offset) {
  command_queue(0).enqueue_read_buffer(buffer, out, /*blocking=*/true, offset);
}

void Device::run_program(Program& program) {
  if (wedged_) TTSIM_THROW_API(detail::kWedgedRunError);
  auto& engine = hw_.engine();
  command_queue(0).enqueue_program(program, /*blocking=*/true);
  // Bit-exact equivalence with the historical synchronous implementation:
  // run() drained every trailing event after the kernels finished, the
  // watchdog variant drained events up to the deadline, and
  // last_kernel_duration included that drain.
  const SimTime deadline =
      config_.sim_time_limit > 0 ? last_launch_start_ + config_.sim_time_limit : 0;
  drive([&]() noexcept {
    return !engine.has_pending() ||
           (deadline > 0 && engine.next_event_time() > deadline);
  });
  last_kernel_duration_ = engine.now() - last_launch_start_;
}

void Device::launch_kernels(Program& program, CommandQueue& queue) {
  auto& engine = hw_.engine();
  // Under enable_verify the static linter walks the declarations before
  // anything is instantiated: a protocol violation becomes a launch-time
  // error with a full diagnosis instead of a hang or silent corruption.
  if (verify_ != nullptr) {
    const auto lint_errors = lint_program(program);
    TTSIM_CHECK_MSG(lint_errors.empty(), "program failed static lint:\n"
                                             << verify::format_lint(lint_errors));
  }
  // Reset every core the program touches, then instantiate CBs, semaphores
  // and L1 buffers in creation order so real L1 addresses match the plan.
  std::set<int> used;
  for (const auto& cb : program.cbs_) used.insert(cb.cores.begin(), cb.cores.end());
  for (const auto& sem : program.semaphores_) used.insert(sem.cores.begin(), sem.cores.end());
  for (const auto& l1 : program.l1_buffers_) used.insert(l1.cores.begin(), l1.cores.end());
  for (const auto& k : program.kernels_) used.insert(k.cores.begin(), k.cores.end());
  for (int core : used) hw_.worker(core).reset();

  // Allocation replay in global creation order. The program planned per-core
  // bump addresses; disjoint core groups (batched launches) restart at their
  // own tops, and the per-core check below catches any layout the plan could
  // not predict.
  struct Alloc {
    const Program::CbConfig* cb;
    const Program::L1Config* l1;
  };
  std::vector<Alloc> allocs;
  for (const auto& cb : program.cbs_) allocs.push_back({&cb, nullptr});
  for (const auto& l1 : program.l1_buffers_) allocs.push_back({nullptr, &l1});
  std::sort(allocs.begin(), allocs.end(), [](const Alloc& a, const Alloc& b) {
    auto order = [](const Alloc& x) -> std::size_t {
      return x.l1 != nullptr ? x.l1->order : x.cb->order;
    };
    return order(a) < order(b);
  });

  for (const auto& a : allocs) {
    if (a.cb != nullptr) {
      for (int core : a.cb->cores) {
        hw_.worker(core).create_cb(a.cb->cb_id, a.cb->page_size, a.cb->num_pages,
                                   a.cb->kernel_local);
      }
    } else {
      for (int core : a.l1->cores) {
        const std::uint32_t real =
            hw_.worker(core).sram().allocate(a.l1->size, a.l1->align);
        TTSIM_CHECK_MSG(real == a.l1->planned_address,
                        "heterogeneous per-core L1 layouts are not supported: "
                        "planned address " << a.l1->planned_address
                                           << " but core " << core << " allocated "
                                           << real);
      }
    }
  }
  for (const auto& sem : program.semaphores_) {
    for (int core : sem.cores) hw_.worker(core).create_semaphore(sem.sem_id, sem.initial);
  }
  barriers_.clear();
  for (const auto& b : program.barriers_) {
    auto barrier = std::make_unique<DeviceBarrier>(engine, b.participants);
    barrier->queue.set_site({sim::WaitSite::Kind::kBarrier, -1, b.barrier_id});
    barriers_.emplace(b.barrier_id, std::move(barrier));
  }

  // Fresh wait-for registry and race-detector state per launch (cores were
  // reset above, so cross-program shadow state would be stale).
  cb_peers_.clear();
  sem_posters_.clear();
  kernel_core_by_name_.clear();
  if (verify_ != nullptr) verify_->begin_program();

  // Spawn kernel processes: dm0 / dm1 / compute per core, in creation order.
  profile_.clear();
  std::size_t total_kernels = 0;
  for (const auto& k : program.kernels_) total_kernels += k.cores.size();
  profile_.reserve(total_kernels);  // spawn lambdas hold stable pointers
  const SimTime start = engine.now();
  last_launch_start_ = start;
  running_ = std::make_unique<ProgramLaunch>();
  running_->queue = &queue;
  running_->start = start;
  running_->deadline = config_.sim_time_limit > 0 ? start + config_.sim_time_limit : 0;
  running_->remaining = total_kernels;
  ProgramLaunch* owner = running_.get();
  for (auto& k : program.kernels_) {
    for (std::size_t i = 0; i < k.cores.size(); ++i) {
      const int core_idx = k.cores[i];
      auto it = k.args.find(core_idx);
      std::vector<std::uint32_t> args =
          it != k.args.end() ? it->second : k.common_args;
      sim::TensixCore& core = hw_.worker(core_idx);
      profile_.push_back(KernelProfile{.name = k.name, .core = core_idx});
      KernelLaunch launch{.name = k.name + "@" + std::to_string(core_idx),
                          .profile = &profile_.back(),
                          .owner = owner,
                          .start = start};
      kernel_core_by_name_.emplace(launch.name, core_idx);
      // Thread ids are assigned here, in spawn order, so the detector's
      // clocks are deterministic regardless of execution interleaving.
      launch.vtid = verify_ != nullptr ? verify_->register_thread(launch.name) : -1;
      const int position = static_cast<int>(i);
      const int group = static_cast<int>(k.cores.size());
      if (k.kind == KernelKind::kCompute) {
        engine.spawn(launch.name, [this, &core, fn = k.compute_fn, args, position,
                                   group, launch] {
          ComputeCtx ctx(*this, core, args, position, group);
          run_kernel(ctx, [&] { fn(ctx); }, launch);
        });
      } else {
        const int noc_id = k.kind == KernelKind::kDataMover0 ? 0 : 1;
        engine.spawn(launch.name, [this, &core, fn = k.mover_fn, args, position,
                                   group, noc_id, launch] {
          DataMoverCtx ctx(*this, core, noc_id, args, position, group);
          run_kernel(ctx, [&] { fn(ctx); }, launch);
        });
      }
    }
  }
  if (total_kernels == 0) program_complete();
}

void Device::run_kernel(KernelCtxBase& ctx, const std::function<void()>& body,
                        const KernelLaunch& launch) {
  ctx.set_profile(launch.profile);
  ctx.set_identity(launch.name, verify_.get(), launch.vtid);
  // Kernel start/end markers are recorded inside the process so they land
  // on the kernel's own trace track.
  sim::TraceSink* trace = hw_.trace();
  if (trace != nullptr) {
    trace->record(sim::TraceEventKind::kKernelStart, trace->now(), 0, {ctx.core_id()});
  }
  // A failing kernel surfaces at the end of the work it charged, as it would
  // have without run-ahead. The sync runs outside the catch block (no fiber
  // switch inside one); a cancelled fiber (teardown) unwinds at once.
  std::exception_ptr error;
  try {
    body();
  } catch (const sim::FiberCancelled&) {
    throw;
  } catch (...) {
    error = std::current_exception();
  }
  ctx.sync();
  if (error != nullptr) std::rethrow_exception(error);
  if (trace != nullptr) {
    trace->record(sim::TraceEventKind::kKernelEnd, trace->now(), 0, {ctx.core_id()});
  }
  launch.profile->lifetime = hw_.engine().now() - launch.start;
  launch.profile->active = ctx.active_time();
  launch.profile->finished = true;
  on_kernel_done(launch.owner);
}

void Device::on_kernel_done(ProgramLaunch* owner) {
  // Stale completions (a straggler kernel from an aborted launch finishing
  // later) must not count against the current program.
  if (running_.get() != owner) return;
  TTSIM_DCHECK(running_->remaining > 0);
  if (--running_->remaining == 0) program_complete();
}

void Device::program_complete() {
  ProgramLaunch* launch = running_.get();
  last_kernel_duration_ = hw_.engine().now() - launch->start;
  CommandQueue* queue = launch->queue;
  running_.reset();
  release_program_slot();
  queue->complete_head();
}

void Device::fail_running_program() {
  ProgramLaunch* launch = running_.get();
  finalise_profile(launch->start);
  if (auto* plan = hw_.fault_plan()) plan->commit_elapsed_kills(hw_.engine().now());
  CommandQueue* queue = launch->queue;
  running_.reset();
  release_program_slot();
  queue->complete_head();
}

void Device::throw_program_timeout() {
  std::ostringstream os;
  os << "program exceeded sim_time_limit (" << config_.sim_time_limit
     << " ns); stuck kernels:";
  for (const auto& stuck : hw_.engine().blocked_process_names()) os << ' ' << stuck;
  // Replace "kernel X stuck" with the actual wait cycle where one exists.
  // Mid-flight timeouts (events still pending) only use registry-recorded
  // counterpart edges — structural guesses would fabricate cycles out of
  // kernels that are merely slow.
  const std::string diagnosis =
      diagnose_blocked(/*quiescent=*/!hw_.engine().has_pending()).text;
  if (!diagnosis.empty()) os << '\n' << diagnosis;
  // Wedge before releasing the program slot so a queued follow-up program is
  // rejected instead of launching onto held cores.
  wedged_ = true;
  fail_running_program();
  throw DeviceTimeoutError(os.str());
}

void Device::finalise_profile(SimTime start) {
  // Partial-profile contract: kernels that never finished keep the activity
  // charged so far (written through live) and a lifetime clamped at the
  // failure time.
  const SimTime at_failure = hw_.engine().now() - start;
  for (auto& p : profile_) {
    if (!p.finished) p.lifetime = at_failure;
  }
}

Device::DeviceBarrier& Device::barrier(int barrier_id) {
  const auto it = barriers_.find(barrier_id);
  if (it == barriers_.end()) {
    TTSIM_THROW_API("global barrier " << barrier_id
                                      << " was not configured on this program");
  }
  return *it->second;
}

}  // namespace ttsim::ttmetal
