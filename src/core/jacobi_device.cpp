#include "ttsim/core/jacobi_device.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "card_threads.hpp"
#include "ir_frontend.hpp"
#include "jacobi_internal.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/ir/lower.hpp"
#include "ttsim/ttmetal/counters.hpp"

namespace ttsim::core {

namespace detail {

std::vector<CoreRange> decompose(const JacobiProblem& p, int cores_x, int cores_y,
                                 std::uint32_t col_align) {
  if (cores_x < 1 || cores_y < 1) TTSIM_THROW_API("need at least a 1x1 core grid");
  if (p.width % static_cast<std::uint32_t>(cores_x) != 0) {
    TTSIM_THROW_API("domain width " << p.width << " does not divide across "
                                    << cores_x << " cores in X");
  }
  const std::uint32_t strip = p.width / static_cast<std::uint32_t>(cores_x);
  if (strip % col_align != 0) {
    TTSIM_THROW_API("per-core strip width " << strip << " must be a multiple of "
                                            << col_align);
  }
  if (static_cast<std::uint32_t>(cores_y) > p.height) {
    TTSIM_THROW_API("more Y cores than rows");
  }
  std::vector<CoreRange> ranges;
  const std::uint32_t base = p.height / static_cast<std::uint32_t>(cores_y);
  const std::uint32_t extra = p.height % static_cast<std::uint32_t>(cores_y);
  std::uint32_t row = 0;
  for (int cy = 0; cy < cores_y; ++cy) {
    const std::uint32_t rows =
        base + (static_cast<std::uint32_t>(cy) < extra ? 1 : 0);
    for (int cx = 0; cx < cores_x; ++cx) {
      ranges.push_back(CoreRange{row, row + rows,
                                 static_cast<std::uint32_t>(cx) * strip,
                                 (static_cast<std::uint32_t>(cx) + 1) * strip});
    }
    row += rows;
  }
  return ranges;
}

CoreSelection select_cores(ttmetal::Device& device, const JacobiProblem& p,
                           const DeviceRunConfig& cfg) {
  CoreSelection sel;
  sel.cores_x = cfg.cores_x;
  sel.cores_y = cfg.cores_y;
  const auto usable = device.usable_workers();
  while (sel.ncores() > static_cast<int>(usable.size())) {
    if (sel.cores_y > 1) {
      --sel.cores_y;
    } else if (sel.cores_x > 1) {
      do {
        --sel.cores_x;
      } while (sel.cores_x > 1 &&
               p.width % static_cast<std::uint32_t>(sel.cores_x) != 0);
    } else {
      TTSIM_THROW_API("no usable workers remain ("
                      << device.num_workers() - static_cast<int>(usable.size())
                      << " failed cores)");
    }
  }
  sel.core_ids.assign(usable.begin(), usable.begin() + sel.ncores());
  return sel;
}

ttmetal::BufferConfig grid_buffer_config(const DeviceRunConfig& cfg,
                                         const PaddedLayout& layout) {
  ttmetal::BufferConfig bc;
  bc.size = layout.bytes();
  bc.layout = cfg.buffer_layout;
  if (cfg.buffer_layout == ttmetal::BufferLayout::kInterleaved) {
    bc.page_size = cfg.interleave_page;
  } else if (cfg.buffer_layout == ttmetal::BufferLayout::kStriped) {
    // Sixteen row slabs per grid: every Y sub-range of cores still spreads
    // its traffic over all eight banks.
    bc.page_size = align_up(layout.bytes() / 16 + 1, 32);
    bc.balanced_stripes = cfg.balanced_stripes;
  }
  return bc;
}

}  // namespace detail

namespace {

void validate_config(const ttmetal::Device& device, const JacobiProblem& p,
                     const DeviceRunConfig& cfg) {
  const int ncores = cfg.cores_x * cfg.cores_y;
  if (ncores > device.num_workers()) {
    TTSIM_THROW_API("decomposition needs " << ncores << " cores but the e150 has "
                                           << device.num_workers() << " workers");
  }
  if (p.iterations < 1) TTSIM_THROW_API("need at least one iteration");
  if (cfg.read_ahead < 2 || cfg.read_ahead > 64) {
    TTSIM_THROW_API("read_ahead must be in [2, 64] (got " << cfg.read_ahead
                    << "); 2 is the paper's two-batch scheme");
  }
  if (cfg.strategy == DeviceStrategy::kSramResident ||
      cfg.strategy == DeviceStrategy::kTemporal) {
    if (cfg.cores_x != 1) {
      TTSIM_THROW_API(to_string(cfg.strategy)
                      << " decomposes in Y only (cores_x == 1)");
    }
    if (p.width > 1024 && p.width % 1024 != 0) {
      TTSIM_THROW_API("SRAM-slab domains must be <= 1024 wide or a multiple of "
                      "1024 (FPU tile packs write straight into the slab)");
    }
    if (!cfg.toggles.all_enabled()) {
      TTSIM_THROW_API("component toggles are a Table II instrument of the tiled "
                      "(Section IV) designs");
    }
    if (cfg.strategy == DeviceStrategy::kTemporal &&
        (cfg.temporal_depth < 1 || cfg.temporal_depth > 8)) {
      TTSIM_THROW_API("temporal_depth must be in [1, 8] (got "
                      << cfg.temporal_depth << ")");
    }
    return;
  }
  const bool tiled = cfg.strategy != DeviceStrategy::kRowChunk;
  if (tiled) {
    if (p.width % detail::kTile != 0 || p.height % detail::kTile != 0) {
      TTSIM_THROW_API("tiled strategies need 32x32-divisible domains");
    }
    if (p.height / static_cast<std::uint32_t>(cfg.cores_y) % detail::kTile != 0 ||
        p.height % static_cast<std::uint32_t>(cfg.cores_y) != 0) {
      TTSIM_THROW_API("tiled strategies need 32-divisible rows per core");
    }
  }
  if (!cfg.toggles.all_enabled() && !tiled) {
    TTSIM_THROW_API("component toggles are a Table II instrument of the tiled "
                    "(Section IV) designs");
  }
}

}  // namespace

DeviceRunResult run_jacobi_on_device(ttmetal::Device& device, const JacobiProblem& p,
                                     const DeviceRunConfig& cfg) {
  validate_config(device, p, cfg);
  const detail::CoreSelection sel = detail::select_cores(device, p, cfg);
  const ttmetal::RetryScope retries(device);
  const PaddedLayout layout(p.width, p.height);
  const bool tiled = cfg.strategy != DeviceStrategy::kRowChunk &&
                     cfg.strategy != DeviceStrategy::kSramResident &&
                     cfg.strategy != DeviceStrategy::kTemporal;

  const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
  auto d1 = device.create_buffer(bc);
  auto d2 = device.create_buffer(bc);

  const SimTime t_start = device.now();
  const auto image = layout.initial_image(p);
  device.write_buffer(*d1, std::as_bytes(std::span{image}));
  device.write_buffer(*d2, std::as_bytes(std::span{image}));

  auto shared = std::make_shared<detail::KernelShared>(layout);
  shared->d1 = d1->address();
  shared->d2 = d2->address();
  shared->iterations = p.iterations;
  shared->strategy = cfg.strategy;
  shared->toggles = cfg.toggles;
  shared->chunk_elems = cfg.chunk_elems;
  shared->read_ahead = cfg.read_ahead;
  shared->temporal_depth = cfg.temporal_depth;
  shared->ranges = detail::decompose(p, sel.cores_x, sel.cores_y,
                                     tiled ? detail::kTile : 16);
  shared->core_ids = sel.core_ids;

  ttmetal::Program prog;
  if (tiled) {
    // The Section-IV programs predate the flow-controlled protocol the IR
    // models: always hand-wired.
    detail::build_tiled_program(prog, shared);
  } else if (cfg.lowering == LoweringPath::kIr) {
    // Prove the protocol race/deadlock-free, then lower; the graph's emit
    // closure calls the same builder the kHandWired branch does.
    ir::lower(detail::make_jacobi_graph(
                  shared, static_cast<std::int64_t>(device.spec().sram_bytes)),
              prog);
  } else if (cfg.strategy == DeviceStrategy::kRowChunk) {
    detail::build_rowchunk_program(prog, shared);
  } else if (cfg.strategy == DeviceStrategy::kTemporal) {
    detail::build_temporal_program(prog, shared);
  } else {
    detail::build_sram_resident_program(prog, shared);
  }
  device.run_program(prog);

  // After `iterations` sweeps the freshest grid is d2 for odd counts.
  auto& final_buf = (p.iterations % 2 == 1) ? *d2 : *d1;
  std::vector<bfloat16_t> out(layout.elems());
  device.read_buffer(final_buf, std::as_writable_bytes(std::span{out}));

  DeviceRunResult result;
  result.kernel_time = device.last_kernel_duration();
  result.total_time = device.now() - t_start;
  result.cores_used = sel.ncores();
  result.transfer_retries = static_cast<int>(retries.count());
  result.solution = layout.extract_interior(out);

  if (cfg.verify && cfg.toggles.all_enabled()) {
    const auto ref = cpu::jacobi_reference_bf16(p);
    result.verified_ok = ref.size() == result.solution.size();
    for (std::size_t i = 0; result.verified_ok && i < ref.size(); ++i) {
      if (static_cast<float>(ref[i]) != result.solution[i]) result.verified_ok = false;
    }
  }
  return result;
}

DeviceRunResult run_jacobi_on_device(const JacobiProblem& p, const DeviceRunConfig& cfg,
                                     sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_jacobi_on_device(*device, p, cfg);
}

AdaptiveRunResult run_jacobi_adaptive(ttmetal::Device& device, const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& cfg) {
  if (cfg.strategy != DeviceStrategy::kRowChunk) {
    TTSIM_THROW_API("adaptive solving is built on the row-chunk strategy");
  }
  if (options.check_every < 1 || options.tolerance <= 0.0) {
    TTSIM_THROW_API("adaptive solving needs check_every >= 1 and tolerance > 0");
  }
  const std::uint32_t strip = p.width / static_cast<std::uint32_t>(cfg.cores_x);
  if (p.width % static_cast<std::uint32_t>(cfg.cores_x) != 0 || strip % 1024 != 0) {
    TTSIM_THROW_API("device-side residuals need full 1024-element chunks "
                    "(strip width " << strip << ")");
  }
  validate_config(device, p, cfg);
  const detail::CoreSelection sel = detail::select_cores(device, p, cfg);

  const PaddedLayout layout(p.width, p.height);
  const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
  auto d1 = device.create_buffer(bc);
  auto d2 = device.create_buffer(bc);
  const int ncores = sel.ncores();
  ttmetal::BufferConfig res_cfg;
  res_cfg.size = static_cast<std::uint64_t>(ncores) * 32;
  auto residuals = device.create_buffer(res_cfg);

  const SimTime t_start = device.now();
  const auto image = layout.initial_image(p);
  device.write_buffer(*d1, std::as_bytes(std::span{image}));
  device.write_buffer(*d2, std::as_bytes(std::span{image}));

  AdaptiveRunResult result;
  result.final_residual = std::numeric_limits<double>::infinity();
  bool swapped = false;
  int remaining = p.iterations;
  while (remaining > 0) {
    const int chunk = std::min(options.check_every, remaining);
    auto shared = std::make_shared<detail::KernelShared>(layout);
    shared->d1 = swapped ? d2->address() : d1->address();
    shared->d2 = swapped ? d1->address() : d2->address();
    shared->iterations = chunk;
    shared->strategy = cfg.strategy;
    shared->chunk_elems = cfg.chunk_elems;
    shared->read_ahead = cfg.read_ahead;
    shared->residual_addr = residuals->address();
    shared->ranges = detail::decompose(p, sel.cores_x, sel.cores_y, 16);
    shared->core_ids = sel.core_ids;

    ttmetal::Program prog;
    if (cfg.lowering == LoweringPath::kIr) {
      ir::lower(detail::make_jacobi_graph(
                    shared,
                    static_cast<std::int64_t>(device.spec().sram_bytes)),
                prog);
    } else {
      detail::build_rowchunk_program(prog, shared);
    }
    device.run_program(prog);
    result.kernel_time += device.last_kernel_duration();
    result.iterations_run += chunk;
    remaining -= chunk;
    if (chunk % 2 == 1) swapped = !swapped;

    std::vector<std::byte> raw(static_cast<std::size_t>(ncores) * 32);
    device.read_buffer(*residuals, raw);
    double worst = 0.0;
    for (int c = 0; c < ncores; ++c) {
      bfloat16_t r{};
      std::memcpy(&r, raw.data() + static_cast<std::size_t>(c) * 32, 2);
      worst = std::max(worst, static_cast<double>(static_cast<float>(r)));
    }
    result.final_residual = worst;
    if (worst <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // After `iterations_run` sweeps the freshest grid is the current "d2".
  auto& final_buf = swapped ? *d2 : *d1;
  std::vector<bfloat16_t> out(layout.elems());
  device.read_buffer(final_buf, std::as_writable_bytes(std::span{out}));
  result.solution = layout.extract_interior(out);
  result.total_time = device.now() - t_start;
  return result;
}

AdaptiveRunResult run_jacobi_adaptive(const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& cfg,
                                      sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_jacobi_adaptive(*device, p, options, cfg);
}

MultiCardResult run_jacobi_multicard(const JacobiProblem& p, int cards,
                                     const DeviceRunConfig& cfg,
                                     sim::GrayskullSpec spec) {
  TTSIM_CHECK(cards >= 1);
  if (static_cast<std::uint32_t>(cards) > p.height) {
    TTSIM_THROW_API("more cards than rows");
  }
  MultiCardResult result;
  result.cards = cards;
  std::vector<std::unique_ptr<ttmetal::Device>> owned;
  std::vector<ttmetal::Device*> devices;
  for (int card = 0; card < cards; ++card) {
    owned.push_back(ttmetal::Device::open(spec));
    devices.push_back(owned.back().get());
  }
  std::vector<SimTime> kernel(static_cast<std::size_t>(cards));
  std::vector<SimTime> total(static_cast<std::size_t>(cards));
  const std::uint32_t base = p.height / static_cast<std::uint32_t>(cards);
  const std::uint32_t extra = p.height % static_cast<std::uint32_t>(cards);
  detail::for_each_card(devices, [&](int card) {
    JacobiProblem slab = p;
    slab.height = base + (static_cast<std::uint32_t>(card) < extra ? 1 : 0);
    // Cards cannot exchange halos (paper Section VII): interior cut edges
    // see the frozen initial guess as their boundary condition.
    if (card > 0) slab.bc_top = p.initial;
    if (card < cards - 1) slab.bc_bottom = p.initial;
    const auto r = run_jacobi_on_device(*devices[static_cast<std::size_t>(card)],
                                        slab, cfg);
    kernel[static_cast<std::size_t>(card)] = r.kernel_time;
    total[static_cast<std::size_t>(card)] = r.total_time;
  });
  result.kernel_time = *std::max_element(kernel.begin(), kernel.end());
  result.total_time = *std::max_element(total.begin(), total.end());
  return result;
}

}  // namespace ttsim::core
