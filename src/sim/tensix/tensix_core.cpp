#include "ttsim/sim/tensix_core.hpp"

namespace ttsim::sim {

TensixCore::TensixCore(Engine& engine, const GrayskullSpec& spec, int core_id,
                       NocCoord coord)
    : engine_(engine),
      spec_(spec),
      id_(core_id),
      coord_(coord),
      sram_(spec.sram_bytes),
      fpu_(spec) {}

CircularBuffer& TensixCore::create_cb(int cb_id, std::uint32_t page_size,
                                      std::uint32_t num_pages, bool kernel_local) {
  TTSIM_CHECK_MSG(cb_id >= 0 && cb_id < kMaxCbs, "tt-metal CB ids are 0..31");
  auto& slot = cbs_[static_cast<std::size_t>(cb_id)];
  TTSIM_CHECK_MSG(slot == nullptr, "CB " << cb_id << " already exists on core " << id_);
  const std::uint32_t offset =
      sram_.allocate(static_cast<std::uint64_t>(page_size) * num_pages);
  slot = std::make_unique<CircularBuffer>(engine_, sram_.data(offset), page_size, num_pages,
                                          trace_, id_, cb_id, kernel_local);
  return *slot;
}

CircularBuffer& TensixCore::cb(int cb_id) {
  if (!has_cb(cb_id)) {
    TTSIM_THROW_API("CB " << cb_id << " was not configured on core " << id_);
  }
  return *cbs_[static_cast<std::size_t>(cb_id)];
}

SimSemaphore& TensixCore::create_semaphore(int sem_id, std::int64_t initial) {
  TTSIM_CHECK_MSG(semaphores_.count(sem_id) == 0,
                  "semaphore " << sem_id << " already exists on core " << id_);
  auto sem = std::make_unique<SimSemaphore>(engine_, initial);
  sem->set_site({WaitSite::Kind::kSemaphore, id_, sem_id});
  auto& ref = *sem;
  semaphores_.emplace(sem_id, std::move(sem));
  return ref;
}

SimSemaphore& TensixCore::semaphore(int sem_id) {
  const auto it = semaphores_.find(sem_id);
  if (it == semaphores_.end()) {
    TTSIM_THROW_API("semaphore " << sem_id << " was not configured on core " << id_);
  }
  return *it->second;
}

ResourceTimeline& TensixCore::dma(int noc_id) {
  TTSIM_CHECK(noc_id == 0 || noc_id == 1);
  return dma_[noc_id];
}

void TensixCore::reset() {
  for (auto& cb : cbs_) cb.reset();
  semaphores_.clear();
  sram_.reset();
}

void TensixCore::halt_current_process() {
  if (halt_queue_ == nullptr) {
    halt_queue_ = std::make_unique<WaitQueue>(engine_);
    halt_queue_->set_site({WaitSite::Kind::kHalted, id_, -1});
  }
  for (;;) halt_queue_->wait();  // never notified: the core is dead
}

}  // namespace ttsim::sim
