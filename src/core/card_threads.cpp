#include "card_threads.hpp"

#include <exception>
#include <thread>
#include <vector>

namespace ttsim::core::detail {
namespace {

bool must_run_inline(std::span<ttmetal::Device* const> devices) {
  for (const auto* dev : devices) {
    const auto& cfg = dev->config();
    if (cfg.fault_plan != nullptr || cfg.sim_time_limit > 0) return true;
  }
  return false;
}

}  // namespace

void for_each_card(std::span<ttmetal::Device* const> devices,
                   const std::function<void(int)>& body) {
  const int cards = static_cast<int>(devices.size());
  if (cards <= 1 || must_run_inline(devices)) {
    for (int i = 0; i < cards; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(cards));
  auto run = [&](int i) {
    try {
      body(i);
    } catch (...) {
      errors[static_cast<std::size_t>(i)] = std::current_exception();
    }
  };
  // jthreads join on destruction, so a failed spawn cannot leave a running
  // thread behind.
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(cards - 1));
  for (int i = 1; i < cards; ++i) threads.emplace_back(run, i);
  run(0);
  threads.clear();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ttsim::core::detail
