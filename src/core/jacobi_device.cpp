#include "ttsim/core/jacobi_device.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "card_threads.hpp"
#include "stencil_internal.hpp"
#include "ttsim/core/field_grids.hpp"

namespace ttsim::core {

namespace detail {

void validate_launch(const JacobiProblem& geometry, const DeviceRunConfig& cfg,
                     Surface surface, int workers) {
  const DeviceStrategy s = cfg.strategy;
  if (surface == Surface::kCertified && is_tiled(s)) {
    TTSIM_THROW_API("the dataflow IR models the row-chunk, SRAM-resident and "
                    "temporal lowerings (got " << to_string(s) << ")");
  }
  if (surface == Surface::kBatch && s != DeviceStrategy::kRowChunk &&
      s != DeviceStrategy::kTemporal) {
    TTSIM_THROW_API("batched launches are built on the row-chunk or temporal "
                    "strategies (got " << to_string(s) << ")");
  }
  const int ncores = cfg.cores_x * cfg.cores_y;
  if (workers > 0 && ncores > workers) {
    TTSIM_THROW_API("decomposition needs " << ncores << " cores but the e150 has "
                                           << workers << " workers");
  }
  (void)decompose(geometry, cfg.cores_x, cfg.cores_y, is_tiled(s) ? kTile : 16);
  if (geometry.iterations < 1) TTSIM_THROW_API("need at least one iteration");
  if (cfg.read_ahead < 2 || cfg.read_ahead > 64) {
    TTSIM_THROW_API("read_ahead must be in [2, 64] (got " << cfg.read_ahead
                    << "); 2 is the paper's two-batch scheme");
  }
  if (s == DeviceStrategy::kTemporal &&
      (cfg.temporal_depth < 1 || cfg.temporal_depth > 8)) {
    TTSIM_THROW_API("temporal_depth must be in [1, 8] (got "
                    << cfg.temporal_depth << ")");
  }
  if (is_slab(s)) {
    if (cfg.cores_x != 1) {
      TTSIM_THROW_API(to_string(s) << " decomposes in Y only (cores_x == 1)");
    }
    if (geometry.width > 1024 && geometry.width % 1024 != 0) {
      TTSIM_THROW_API("SRAM-slab domains must be <= 1024 wide or a multiple of "
                      "1024 (FPU tile packs write straight into the slab)");
    }
  }
  if (is_tiled(s)) {
    if (geometry.width % kTile != 0 || geometry.height % kTile != 0) {
      TTSIM_THROW_API("tiled strategies need 32x32-divisible domains");
    }
    if (geometry.height / static_cast<std::uint32_t>(cfg.cores_y) % kTile != 0 ||
        geometry.height % static_cast<std::uint32_t>(cfg.cores_y) != 0) {
      TTSIM_THROW_API("tiled strategies need 32-divisible rows per core");
    }
  } else if (!cfg.toggles.all_enabled()) {
    TTSIM_THROW_API("component toggles are a Table II instrument of the tiled "
                    "(Section IV) designs");
  }
}

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

std::shared_ptr<KernelShared> resolve_tiled(const JacobiProblem& p,
                                            const DeviceRunConfig& cfg,
                                            const CoreSelection& sel,
                                            std::uint64_t d1, std::uint64_t d2) {
  auto sh = std::make_shared<KernelShared>(PaddedLayout(p.width, p.height));
  sh->d1 = d1;
  sh->d2 = d2;
  sh->iterations = p.iterations;
  sh->strategy = cfg.strategy;
  sh->toggles = cfg.toggles;
  sh->ranges = decompose(p, sel.cores_x, sel.cores_y, kTile);
  sh->core_ids = sel.core_ids;
  return sh;
}

namespace {

/// A Jacobi solve on the one solve body: its one field moves (not copies)
/// into `solution`.
DeviceRunResult solve_jacobi(ttmetal::Device& device, const JacobiProblem& p,
                             const DeviceRunConfig& cfg, const LaunchPlan& plan = {}) {
  DeviceRunResult result =
      solve_on_device(device, to_general(p), cfg, Surface::kSolve, plan);
  result.solution = std::move(result.fields[0]);
  result.fields.clear();
  return result;
}

}  // namespace

}  // namespace detail

DeviceRunResult run_jacobi_on_device(ttmetal::Device& device, const JacobiProblem& p,
                                     const DeviceRunConfig& cfg) {
  return detail::solve_jacobi(device, p, cfg);
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
  // The solve validates again; checked here first so the strip is whole.
  detail::validate_launch(p, cfg, detail::Surface::kSolve, device.num_workers());
  const std::uint32_t strip = p.width / static_cast<std::uint32_t>(cfg.cores_x);
  if (strip % 1024 != 0) {
    TTSIM_THROW_API("device-side residuals reduce whole 1024-lane tiles: the "
                    "per-core strip width must be a multiple of 1024 (got "
                    << strip << ")");
  }
  AdaptiveRunResult result;
  result.final_residual = std::numeric_limits<double>::infinity();
  // Relaunch every check_every sweeps; each launch's final sweep leaves one
  // BF16 residual per core in its own 32-byte slot.
  auto relaunch = [&](FieldGrids& grids, const detail::CoreSelection& sel,
                      DeviceRunResult& run) {
    const int ncores = sel.ncores();
    ttmetal::BufferConfig res_cfg;
    res_cfg.size = static_cast<std::uint64_t>(ncores) * 32;
    auto residuals = device.create_buffer(res_cfg);
    while (result.iterations_run < p.iterations) {
      const int chunk =
          std::min(options.check_every, p.iterations - result.iterations_run);
      run.kernel_time += grids.launch(chunk, sel, residuals->address());
      result.iterations_run += chunk;

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
    return result.iterations_run;
  };
  static_cast<DeviceRunResult&>(result) = detail::solve_jacobi(device, p, cfg, relaunch);
  return result;
}

AdaptiveRunResult run_jacobi_adaptive(const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& cfg,
                                      sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_jacobi_adaptive(*device, p, options, cfg);
}

DeviceRunResult run_jacobi_multicard(const JacobiProblem& p, int cards,
                                     const DeviceRunConfig& cfg,
                                     sim::GrayskullSpec spec) {
  TTSIM_CHECK(cards >= 1);
  if (static_cast<std::uint32_t>(cards) > p.height) {
    TTSIM_THROW_API("more cards than rows");
  }
  std::vector<std::unique_ptr<ttmetal::Device>> owned;
  std::vector<ttmetal::Device*> devices;
  for (int card = 0; card < cards; ++card) {
    owned.push_back(ttmetal::Device::open(spec));
    devices.push_back(owned.back().get());
  }
  std::vector<DeviceRunResult> runs(static_cast<std::size_t>(cards));
  DeviceRunResult result;
  result.solution.resize(static_cast<std::size_t>(p.points()));
  const std::uint32_t base = p.height / static_cast<std::uint32_t>(cards);
  const std::uint32_t extra = p.height % static_cast<std::uint32_t>(cards);
  detail::for_each_card(devices, [&](int card) {
    const auto c = static_cast<std::uint32_t>(card);
    JacobiProblem slab = p;
    slab.height = base + (c < extra ? 1 : 0);
    // Cards cannot exchange halos (paper Section VII): interior cut edges
    // see the frozen initial guess as their boundary condition.
    if (card > 0) slab.bc_top = p.initial;
    if (card < cards - 1) slab.bc_bottom = p.initial;
    DeviceRunResult& r = runs[static_cast<std::size_t>(card)];
    r = run_jacobi_on_device(*devices[static_cast<std::size_t>(card)], slab, cfg);
    // Each card copies its slab into its own rows of the solution.
    const std::size_t first_row = c * base + std::min(c, extra);
    std::copy(r.solution.begin(), r.solution.end(),
              result.solution.begin() +
                  static_cast<std::ptrdiff_t>(first_row * p.width));
    r.solution = {};
  });
  for (const DeviceRunResult& r : runs) {
    result.kernel_time = std::max(result.kernel_time, r.kernel_time);
    result.total_time = std::max(result.total_time, r.total_time);
    result.verified_ok = result.verified_ok && r.verified_ok;
    result.cores_used += r.cores_used;
    result.transfer_retries += r.transfer_retries;
  }
  return result;
}

}  // namespace ttsim::core
