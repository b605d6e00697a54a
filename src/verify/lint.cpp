#include "ttsim/verify/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace ttsim::verify {

const char* to_string(LintError::Code code) {
  switch (code) {
    case LintError::Code::kBadCoreId: return "bad-core-id";
    case LintError::Code::kDeadCore: return "dead-core";
    case LintError::Code::kDuplicateCb: return "duplicate-cb";
    case LintError::Code::kBadCbGeometry: return "bad-cb-geometry";
    case LintError::Code::kOrphanCb: return "orphan-cb";
    case LintError::Code::kDuplicateSemaphore: return "duplicate-semaphore";
    case LintError::Code::kOrphanSemaphore: return "orphan-semaphore";
    case LintError::Code::kDuplicateBarrier: return "duplicate-barrier";
    case LintError::Code::kBadBarrier: return "bad-barrier";
    case LintError::Code::kSramOverflow: return "sram-overflow";
    case LintError::Code::kBufferOverlap: return "buffer-overlap";
    case LintError::Code::kDuplicateKernel: return "duplicate-kernel";
    case LintError::Code::kEmptyCoreList: return "empty-core-list";
    case LintError::Code::kCbCreditImbalance: return "cb-credit-imbalance";
    case LintError::Code::kCbOvercommit: return "cb-overcommit";
    case LintError::Code::kSemImbalance: return "sem-imbalance";
    case LintError::Code::kSlotReuse: return "slot-ring-reuse";
    case LintError::Code::kWaitCycle: return "wait-cycle";
  }
  return "?";
}

namespace {

class Linter {
 public:
  Linter(const ProgramInfo& program, const DeviceInfo& device)
      : program_(program), device_(device) {
    for (const int c : device_.failed_cores) failed_.insert(c);
    for (const auto& k : program_.kernels) {
      for (const int c : k.cores) ++kernels_per_core_[c];
    }
  }

  std::vector<LintError> run() {
    check_kernels();
    check_cbs();
    check_semaphores();
    check_barriers();
    check_l1_layout();
    return std::move(errors_);
  }

 private:
  void add(LintError::Code code, int core, int id, const std::string& message) {
    errors_.push_back(LintError{code, core, id, message});
  }

  /// Shared placement checks; returns false when the core list is empty
  /// (further per-core checks are pointless then).
  bool check_cores(const std::vector<int>& cores, const std::string& what, int id) {
    if (cores.empty()) {
      add(LintError::Code::kEmptyCoreList, -1, id, what + " declared over zero cores");
      return false;
    }
    for (const int c : cores) {
      if (c < 0 || (device_.num_workers > 0 && c >= device_.num_workers)) {
        std::ostringstream os;
        os << what << " placed on core " << c << ", outside the worker grid (0.."
           << device_.num_workers - 1 << ")";
        add(LintError::Code::kBadCoreId, c, id, os.str());
      } else if (failed_.count(c) != 0) {
        std::ostringstream os;
        os << what << " placed on core " << c
           << ", which the fault plan has killed — remap before building the program";
        add(LintError::Code::kDeadCore, c, id, os.str());
      }
    }
    return true;
  }

  void check_kernels() {
    // (core, kind) -> first kernel name, to diagnose doubled placement.
    std::map<std::pair<int, int>, const std::string*> seen;
    for (const auto& k : program_.kernels) {
      if (!check_cores(k.cores, "kernel '" + k.name + "'", -1)) continue;
      for (const int c : k.cores) {
        const auto [it, inserted] = seen.emplace(std::make_pair(c, k.kind), &k.name);
        if (!inserted) {
          std::ostringstream os;
          os << "kernels '" << *it->second << "' and '" << k.name
             << "' both target the same baby core (kind " << k.kind << ") on core "
             << c << "; each Tensix baby core runs exactly one kernel";
          add(LintError::Code::kDuplicateKernel, c, -1, os.str());
        }
      }
    }
  }

  void check_cbs() {
    std::set<std::pair<int, int>> seen;  // (core, cb_id)
    for (const auto& cb : program_.cbs) {
      std::ostringstream name;
      name << "CB " << cb.cb_id;
      if (!check_cores(cb.cores, name.str(), cb.cb_id)) continue;
      if (cb.page_size == 0 || cb.num_pages == 0 ||
          cb.page_size % device_.dram_align_bytes != 0) {
        std::ostringstream os;
        os << name.str() << ": page geometry " << cb.num_pages << " x "
           << cb.page_size << " B is invalid (pages must be non-empty and the "
           << "page size a multiple of the " << device_.dram_align_bytes * 8
           << "-bit DRAM/NoC granule, " << device_.dram_align_bytes << " B)";
        add(LintError::Code::kBadCbGeometry, cb.cores.front(), cb.cb_id, os.str());
      }
      for (const int c : cb.cores) {
        if (!seen.insert({c, cb.cb_id}).second) {
          std::ostringstream os;
          os << name.str() << " configured twice on core " << c;
          add(LintError::Code::kDuplicateCb, c, cb.cb_id, os.str());
        }
        const auto it = kernels_per_core_.find(c);
        const int nkernels = it == kernels_per_core_.end() ? 0 : it->second;
        // A kernel-local CB is its one kernel's scratch; any other needs
        // a producer and a consumer.
        if (nkernels < (cb.kernel_local ? 1 : 2)) {
          std::ostringstream os;
          os << name.str() << " on core " << c << " has " << nkernels
             << " kernel(s) on that core — "
             << (cb.kernel_local ? "a kernel-local circular buffer needs its kernel"
                                 : "a circular buffer needs both a producer and a "
                                   "consumer");
          add(LintError::Code::kOrphanCb, c, cb.cb_id, os.str());
        }
      }
    }
  }

  void check_semaphores() {
    std::set<std::pair<int, int>> seen;  // (core, sem_id)
    for (const auto& sem : program_.semaphores) {
      std::ostringstream name;
      name << "semaphore " << sem.sem_id;
      if (!check_cores(sem.cores, name.str(), sem.sem_id)) continue;
      for (const int c : sem.cores) {
        if (!seen.insert({c, sem.sem_id}).second) {
          std::ostringstream os;
          os << name.str() << " configured twice on core " << c;
          add(LintError::Code::kDuplicateSemaphore, c, sem.sem_id, os.str());
        }
        if (kernels_per_core_.count(c) == 0) {
          std::ostringstream os;
          os << name.str() << " created on core " << c
             << ", but no kernel runs there — nothing can ever wait on or post it "
             << "locally (remote noc_semaphore_inc posts would vanish unobserved)";
          add(LintError::Code::kOrphanSemaphore, c, sem.sem_id, os.str());
        }
      }
    }
  }

  void check_barriers() {
    int total_instances = 0;
    for (const auto& k : program_.kernels) {
      total_instances += static_cast<int>(k.cores.size());
    }
    std::map<int, int> participants;  // barrier_id -> declared participants
    for (const auto& b : program_.barriers) {
      const auto [it, inserted] = participants.emplace(b.barrier_id, b.participants);
      if (!inserted) {
        std::ostringstream os;
        os << "global barrier " << b.barrier_id << " declared twice ("
           << it->second << " and " << b.participants
           << " participants); batched core groups must agree on one declaration "
           << "whose count covers every group";
        add(LintError::Code::kDuplicateBarrier, -1, b.barrier_id, os.str());
        continue;
      }
      if (b.participants <= 0) {
        std::ostringstream os;
        os << "global barrier " << b.barrier_id << " declared with "
           << b.participants << " participants";
        add(LintError::Code::kBadBarrier, -1, b.barrier_id, os.str());
      } else if (b.participants > total_instances) {
        std::ostringstream os;
        os << "global barrier " << b.barrier_id << " expects " << b.participants
           << " participants but the program only launches " << total_instances
           << " kernel instance(s) — the rendezvous can never complete";
        add(LintError::Code::kBadBarrier, -1, b.barrier_id, os.str());
      }
    }
  }

  void check_l1_layout() {
    struct Region {
      std::uint64_t lo, hi;
      std::string name;
    };
    std::map<int, std::vector<Region>> per_core;
    for (const auto& cb : program_.cbs) {
      std::ostringstream name;
      name << "CB " << cb.cb_id;
      const std::uint64_t size =
          static_cast<std::uint64_t>(cb.page_size) * cb.num_pages;
      for (const int c : cb.cores) {
        per_core[c].push_back({cb.planned_address, cb.planned_address + size, name.str()});
      }
    }
    int l1_index = 0;
    for (const auto& l1 : program_.l1_buffers) {
      std::ostringstream name;
      name << "L1 buffer #" << l1_index++;
      if (!check_cores(l1.cores, name.str(), -1)) continue;
      for (const int c : l1.cores) {
        per_core[c].push_back(
            {l1.planned_address, static_cast<std::uint64_t>(l1.planned_address) + l1.size,
             name.str()});
      }
    }
    for (auto& [core, regions] : per_core) {
      for (const Region& r : regions) {
        if (device_.sram_bytes > 0 && r.hi > device_.sram_bytes) {
          std::ostringstream os;
          os << r.name << " on core " << core << " spans [" << r.lo << ", " << r.hi
             << "), past the " << device_.sram_bytes << " B of core SRAM";
          add(LintError::Code::kSramOverflow, core, -1, os.str());
        }
      }
      std::sort(regions.begin(), regions.end(),
                [](const Region& a, const Region& b) { return a.lo < b.lo; });
      for (std::size_t i = 1; i < regions.size(); ++i) {
        const Region& prev = regions[i - 1];
        const Region& cur = regions[i];
        if (cur.lo < prev.hi) {
          std::ostringstream os;
          os << prev.name << " and " << cur.name << " overlap on core " << core
             << " ([" << prev.lo << ", " << prev.hi << ") vs [" << cur.lo << ", "
             << cur.hi << "))";
          add(LintError::Code::kBufferOverlap, core, -1, os.str());
        }
      }
    }
  }

  const ProgramInfo& program_;
  const DeviceInfo& device_;
  std::set<int> failed_;
  std::map<int, int> kernels_per_core_;
  std::vector<LintError> errors_;
};

}  // namespace

std::vector<LintError> lint(const ProgramInfo& program, const DeviceInfo& device) {
  return Linter(program, device).run();
}

std::string format_lint(const std::vector<LintError>& errors) {
  std::ostringstream os;
  for (const LintError& e : errors) {
    os << "lint: " << to_string(e.code) << ": " << e.message << '\n';
  }
  return os.str();
}

}  // namespace ttsim::verify
