#include "ttsim/ttmetal/program.hpp"

namespace ttsim::ttmetal {

std::uint32_t Program::plan_allocate(const std::vector<int>& cores,
                                     std::uint32_t size, std::uint32_t align) {
  // Heterogeneous overlaps (a core appearing in groups with different layout
  // histories) plan at the max and are caught by the per-core address check
  // at launch; homogeneous groups — the only layouts that ever worked — plan
  // exactly what each core's SRAM allocator will hand out.
  std::uint64_t top = 0;
  for (int core : cores) {
    const auto it = planned_tops_.find(core);
    if (it != planned_tops_.end()) top = std::max(top, it->second);
  }
  const std::uint64_t base = align_up(top, align);
  for (int core : cores) planned_tops_[core] = base + size;
  return static_cast<std::uint32_t>(base);
}

void Program::create_cb(int cb_id, const std::vector<int>& cores,
                        std::uint32_t page_size, std::uint32_t num_pages,
                        bool kernel_local) {
  TTSIM_CHECK(!cores.empty());
  TTSIM_CHECK(page_size > 0 && num_pages > 0);
  const std::uint32_t addr = plan_allocate(cores, page_size * num_pages, 32);
  cbs_.push_back(CbConfig{cb_id, cores, page_size, num_pages, addr, next_order_++,
                          kernel_local});
}

void Program::create_semaphore(int sem_id, const std::vector<int>& cores,
                               std::int64_t initial) {
  TTSIM_CHECK(!cores.empty());
  semaphores_.push_back(SemConfig{sem_id, cores, initial});
}

void Program::create_global_barrier(int barrier_id, int participants) {
  TTSIM_CHECK(participants > 0);
  barriers_.push_back(BarrierConfig{barrier_id, participants});
}

L1BufferHandle Program::create_l1_buffer(const std::vector<int>& cores,
                                         std::uint32_t size, std::uint32_t align) {
  TTSIM_CHECK(!cores.empty());
  const std::uint32_t addr = plan_allocate(cores, size, align);
  l1_buffers_.push_back(L1Config{cores, size, align, addr, next_order_++});
  return static_cast<L1BufferHandle>(l1_buffers_.size()) - 1;
}

std::uint32_t Program::l1_buffer_address(L1BufferHandle h) const {
  TTSIM_CHECK(h >= 0 && static_cast<std::size_t>(h) < l1_buffers_.size());
  return l1_buffers_[static_cast<std::size_t>(h)].planned_address;
}

KernelHandle Program::create_kernel(KernelKind kind, const std::vector<int>& cores,
                                    DataMoverFn fn, std::string name) {
  TTSIM_CHECK_MSG(kind != KernelKind::kCompute,
                  "compute kernels take a ComputeFn — use the other overload");
  TTSIM_CHECK(!cores.empty());
  TTSIM_CHECK(fn != nullptr);
  KernelConfig cfg;
  cfg.kind = kind;
  cfg.cores = cores;
  cfg.mover_fn = std::move(fn);
  cfg.name = name.empty()
                 ? (kind == KernelKind::kDataMover0 ? "dm0" : "dm1")
                 : std::move(name);
  kernels_.push_back(std::move(cfg));
  return static_cast<KernelHandle>(kernels_.size()) - 1;
}

KernelHandle Program::create_kernel(const std::vector<int>& cores, ComputeFn fn,
                                    std::string name) {
  TTSIM_CHECK(!cores.empty());
  TTSIM_CHECK(fn != nullptr);
  KernelConfig cfg;
  cfg.kind = KernelKind::kCompute;
  cfg.cores = cores;
  cfg.compute_fn = std::move(fn);
  cfg.name = name.empty() ? "compute" : std::move(name);
  kernels_.push_back(std::move(cfg));
  return static_cast<KernelHandle>(kernels_.size()) - 1;
}

void Program::set_runtime_args(KernelHandle kernel, int core,
                               std::vector<std::uint32_t> args) {
  TTSIM_CHECK(kernel >= 0 && static_cast<std::size_t>(kernel) < kernels_.size());
  auto& cfg = kernels_[static_cast<std::size_t>(kernel)];
  const bool known = std::find(cfg.cores.begin(), cfg.cores.end(), core) != cfg.cores.end();
  TTSIM_CHECK_MSG(known, "set_runtime_args: core " << core
                                                   << " is not in the kernel's core list");
  cfg.args[core] = std::move(args);
}

void Program::set_common_runtime_args(KernelHandle kernel,
                                      std::vector<std::uint32_t> args) {
  TTSIM_CHECK(kernel >= 0 && static_cast<std::size_t>(kernel) < kernels_.size());
  kernels_[static_cast<std::size_t>(kernel)].common_args = std::move(args);
}

verify::ProgramInfo Program::verify_info() const {
  verify::ProgramInfo info;
  for (const auto& cb : cbs_) {
    info.cbs.push_back({cb.cb_id, cb.cores, cb.page_size, cb.num_pages,
                        cb.planned_address, cb.kernel_local});
  }
  for (const auto& sem : semaphores_) {
    info.semaphores.push_back({sem.sem_id, sem.cores, sem.initial});
  }
  for (const auto& b : barriers_) {
    info.barriers.push_back({b.barrier_id, b.participants});
  }
  for (const auto& l1 : l1_buffers_) {
    info.l1_buffers.push_back({l1.cores, l1.size, l1.align, l1.planned_address});
  }
  for (const auto& k : kernels_) {
    info.kernels.push_back({static_cast<int>(k.kind), k.cores, k.name});
  }
  return info;
}

}  // namespace ttsim::ttmetal
