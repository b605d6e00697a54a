/// \file sharded.cpp
/// Cross-card sharded solver: slab decomposition, deep-halo exchange over a
/// ChipLinkFabric, and lockstep cluster timing. See sharded.hpp for the
/// protocol derivation and DESIGN.md "Multi-chip" for the prose version.

#include "ttsim/core/sharded.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "card_threads.hpp"
#include "stencil_internal.hpp"
#include "ttsim/common/check.hpp"
#include "ttsim/core/field_grids.hpp"

namespace ttsim::core {
namespace {

/// One card's slab: owned global interior rows [r0, r1), plus e_top/e_bot
/// extension rows toward interior cuts. The slab's stored image is the
/// contiguous slice of the global stored image starting at stored row `off`
/// (same row_elems(), so rows copy as flat byte ranges).
struct Slab {
  int r0 = 0, r1 = 0;
  int e_top = 0, e_bot = 0;
  int off = 0;
  int height = 0;  ///< slab interior rows = owned + extensions
};

std::vector<Slab> decompose_slabs(int rows, int cards, int k) {
  std::vector<Slab> slabs(static_cast<std::size_t>(cards));
  const int base = rows / cards;
  const int extra = rows % cards;
  int r = 0;
  for (int c = 0; c < cards; ++c) {
    Slab& s = slabs[static_cast<std::size_t>(c)];
    s.r0 = r;
    r += base + (c < extra ? 1 : 0);
    s.r1 = r;
    const int owned = s.r1 - s.r0;
    if (cards > 1 && owned < k) {
      TTSIM_THROW_API("sharded decomposition: card " << c << " owns " << owned
                      << " rows but the epoch length k=" << k
                      << " needs every card to own at least k rows ("
                      << rows << " rows over " << cards << " cards)");
    }
    s.e_top = c > 0 ? k - 1 : 0;
    s.e_bot = c + 1 < cards ? k - 1 : 0;
    s.off = s.r0 - s.e_top;
    s.height = owned + s.e_top + s.e_bot;
  }
  return slabs;
}

struct CardState {
  ttmetal::Device* dev = nullptr;
  Slab slab;
  std::optional<FieldGrids> grids;  ///< the slab's grids (built on the card)
  std::vector<int> cores;
};

/// Copy `count` stored rows starting at `row` between host memory and a
/// slab buffer via the DRAM host backdoor (functional only — the exchange's
/// timing is charged on the fabric, not on PCIe).
void slab_rows_read(ttmetal::Device& dev, const ttmetal::Buffer& buf,
                    const PaddedLayout& layout, int row, int count,
                    bfloat16_t* out) {
  const std::uint64_t row_bytes = layout.row_elems() * sizeof(bfloat16_t);
  dev.hw().dram().host_read(
      buf.address() + static_cast<std::uint64_t>(row) * row_bytes,
      reinterpret_cast<std::byte*>(out),
      static_cast<std::uint64_t>(count) * row_bytes);
}

void slab_rows_write(ttmetal::Device& dev, const ttmetal::Buffer& buf,
                     const PaddedLayout& layout, int row, int count,
                     const bfloat16_t* in) {
  const std::uint64_t row_bytes = layout.row_elems() * sizeof(bfloat16_t);
  dev.hw().dram().host_write(
      buf.address() + static_cast<std::uint64_t>(row) * row_bytes,
      reinterpret_cast<const std::byte*>(in),
      static_cast<std::uint64_t>(count) * row_bytes);
}

/// The epoch loop over a validated single-pass program `p`, from and into
/// one global padded image per field. The caller extracts the solution
/// from `images`.
ShardedRunResult run_sharded_impl(std::span<ttmetal::Device* const> devices,
                                  sim::ChipLinkFabric& fabric,
                                  const GeneralStencilProblem& p,
                                  const ShardedRunConfig& cfg,
                                  std::vector<std::vector<bfloat16_t>>& images) {
  const int cards = static_cast<int>(devices.size());
  if (cards < 1) TTSIM_THROW_API("sharded run needs at least one card");
  if (fabric.cards() < cards) {
    TTSIM_THROW_API("fabric cables " << fabric.cards() << " cards but "
                    << cards << " were supplied");
  }
  const bool temporal = cfg.run.strategy == DeviceStrategy::kTemporal;
  const int k = cfg.exchange_every > 0 ? cfg.exchange_every
                                       : (temporal ? cfg.run.temporal_depth : 1);
  // Per-launch run config: the per-card strategies as-is, with the epoch
  // length driving iterations (and, for temporal, the chained depth so one
  // launch is exactly one DRAM pass).
  auto launch_cfg = [&](int klaunch) {
    DeviceRunConfig lc = cfg.run;
    lc.verify = false;
    if (temporal) lc.temporal_depth = klaunch;
    return lc;
  };
  // Every epoch is one batched launch per card of at most k sweeps: reject
  // what those launches would, before any card is touched.
  detail::validate_launch(p.geometry(), launch_cfg(k), detail::Surface::kBatch, 0);

  const int nfields = static_cast<int>(p.fields.size());
  const int written = p.passes[0].target;  // the field whose halo crosses the fabric
  const PaddedLayout global(p.width, p.height);
  const std::uint64_t row_bytes = global.row_elems() * sizeof(bfloat16_t);
  const auto slabs = decompose_slabs(static_cast<int>(p.height), cards, k);
  const int ncores = cfg.run.cores_x * cfg.run.cores_y;
  // The launches compile from the program's structure: the global
  // initial fields reach the cards through `images` only.
  const GeneralStencilProblem structure = detail::structure_of(p);
  auto slab_problem = [&](const Slab& slab, int klaunch) {
    GeneralStencilProblem g = structure;
    g.height = static_cast<std::uint32_t>(slab.height);
    g.iterations = klaunch;
    return g;
  };
  // A slab is thinner than the domain, so its row-chunk slot ring is wider.
  for (const Slab& slab : slabs) validate_stencil_request(slab_problem(slab, k), launch_cfg(k));

  // --- open slab state: cores, buffers, H2D staging (PCIe, per card) ---
  // Wall clock starts at the cluster's current frontier: fresh clusters sit
  // at 0, and the serve layer (which reuses mid-life cards) gets the honest
  // "this call occupied the group for total_time" reading.
  SimTime begin = 0;
  for (auto* dev : devices) begin = std::max(begin, dev->now());
  // Every card is checked before any is touched, so a rejected run leaves
  // the whole cluster as it was.
  std::vector<CardState> state(static_cast<std::size_t>(cards));
  for (int c = 0; c < cards; ++c) {
    CardState& cs = state[static_cast<std::size_t>(c)];
    cs.dev = devices[static_cast<std::size_t>(c)];
    cs.slab = slabs[static_cast<std::size_t>(c)];
    const auto usable = cs.dev->usable_workers();
    if (static_cast<int>(usable.size()) < ncores) {
      TTSIM_THROW_API("card " << c << " has " << usable.size()
                      << " usable workers but the run config needs " << ncores);
    }
    cs.cores.assign(usable.begin(), usable.begin() + ncores);
  }
  detail::for_each_card(devices, [&](int c) {
    CardState& cs = state[static_cast<std::size_t>(c)];
    // launch_cfg(k) is the epochs' parity rule: an epoch of up to k sweeps
    // runs one temporal generation, as launch_cfg(klaunch) chains it.
    cs.grids.emplace(*cs.dev, slab_problem(cs.slab, k), launch_cfg(k));
    const std::size_t slab_begin =
        static_cast<std::size_t>(cs.slab.off) * global.row_elems();
    const std::size_t slab_elems =
        static_cast<std::size_t>(cs.slab.height + 2) * global.row_elems();
    for (int f = 0; f < nfields; ++f) {
      const auto& img = images[static_cast<std::size_t>(f)];
      cs.grids->stage(f, {img.data() + slab_begin, slab_elems},
                      cs.dev->command_queue(0), /*blocking=*/true);
    }
  });

  ShardedRunResult result;
  result.cards = cards;
  const auto fabric_before = fabric.totals();

  // --- lockstep epochs ---
  SimTime cluster = 0;
  for (auto& cs : state) cluster = std::max(cluster, cs.dev->now());
  int done = 0;
  while (done < p.iterations) {
    const int klaunch = std::min(k, p.iterations - done);
    ++result.epochs;

    detail::for_each_card(devices, [&](int c) {
      CardState& cs = state[static_cast<std::size_t>(c)];
      cs.dev->hw().engine().run_until(cluster);
      ttmetal::Program prog;
      build_batched_stencil_program(prog, slab_problem(cs.slab, klaunch),
                                    launch_cfg(klaunch),
                                    {cs.grids->bind(klaunch, cs.cores)});
      cs.dev->run_program(prog);
    });
    SimTime epoch_kernel = 0;
    SimTime epoch_end = 0;
    for (const auto& cs : state) {
      epoch_kernel = std::max(epoch_kernel, cs.dev->last_kernel_duration());
      epoch_end = std::max(epoch_end, cs.dev->now());
    }
    result.kernel_time += epoch_kernel;
    done += klaunch;
    cluster = epoch_end;
    if (done >= p.iterations) break;

    // --- halo exchange across every interior cut ---
    // Each side sends its k outermost owned rows of the written field; the
    // receiver's k halo rows (frozen boundary + k-1 extensions) are exactly
    // refilled. The boundary row lands in BOTH parity buffers (it is never
    // kernel-written but read from the alternating source); extension rows
    // only in the next epoch's source, which sweep 1 reads and later sweeps
    // re-derive from each other.
    SimTime exchange_end = epoch_end;
    std::vector<bfloat16_t> rows(static_cast<std::size_t>(k) *
                                 global.row_elems());
    for (int c = 0; c + 1 < cards; ++c) {
      CardState& up = state[static_cast<std::size_t>(c)];
      CardState& dn = state[static_cast<std::size_t>(c + 1)];
      const std::uint64_t bytes = static_cast<std::uint64_t>(k) * row_bytes;

      // Down: card c's bottom k owned rows -> card c+1's top halo.
      {
        const int src_row = (up.slab.r1 - k) - up.slab.off + 1;
        slab_rows_read(*up.dev, up.grids->fresh(written), global, src_row, k,
                       rows.data());
        slab_rows_write(*dn.dev, dn.grids->fresh(written), global, 0, k, rows.data());
        slab_rows_write(*dn.dev, dn.grids->stale(written), global, 0, 1, rows.data());
        exchange_end = std::max(exchange_end,
                                fabric.transfer(c, c + 1, bytes, epoch_end));
        ++result.link_messages;
      }
      // Up: card c+1's top k owned rows -> card c's bottom halo.
      {
        const int src_row = dn.slab.e_top + 1;
        slab_rows_read(*dn.dev, dn.grids->fresh(written), global, src_row, k,
                       rows.data());
        const int dst_row = up.slab.height + 2 - k;
        slab_rows_write(*up.dev, up.grids->fresh(written), global, dst_row, k,
                        rows.data());
        slab_rows_write(*up.dev, up.grids->stale(written), global,
                        up.slab.height + 1, 1,
                        rows.data() + static_cast<std::size_t>(k - 1) *
                                          global.row_elems());
        exchange_end = std::max(exchange_end,
                                fabric.transfer(c + 1, c, bytes, epoch_end));
        ++result.link_messages;
      }
    }
    result.exchange_time += exchange_end - epoch_end;
    cluster = exchange_end;
  }

  // --- readback (PCIe, per card in parallel) and assembly ---
  // Each card copies its own owned rows: disjoint ranges of the image.
  detail::for_each_card(devices, [&](int c) {
    CardState& cs = state[static_cast<std::size_t>(c)];
    cs.dev->hw().engine().run_until(cluster);
    std::vector<bfloat16_t> out(cs.grids->layout().elems());
    cs.grids->read(written, out, cs.dev->command_queue(0), /*blocking=*/true);
    // Owned stored rows of the slab land on the matching global stored rows.
    const int owned = cs.slab.r1 - cs.slab.r0;
    auto& img = images[static_cast<std::size_t>(written)];
    std::memcpy(img.data() +
                    static_cast<std::size_t>(cs.slab.r0 + 1) * global.row_elems(),
                out.data() +
                    static_cast<std::size_t>(cs.slab.e_top + 1) * global.row_elems(),
                static_cast<std::size_t>(owned) * row_bytes);
  });
  SimTime end = cluster;
  for (auto& cs : state) end = std::max(end, cs.dev->now());
  result.total_time = end - begin;

  const auto fabric_after = fabric.totals();
  result.link_bytes = fabric_after.bytes - fabric_before.bytes;

  return result;
}

}  // namespace

ShardedCluster ShardedCluster::open(int n, sim::DeviceSpec spec,
                                    ttmetal::DeviceConfig dev,
                                    std::optional<sim::ChipLinkConfig> link) {
  ShardedCluster cluster;
  for (int i = 0; i < n; ++i) {
    cluster.cards.push_back(ttmetal::Device::open(spec, dev));
  }
  sim::ChipLinkConfig lc =
      link.has_value() ? *link : sim::ChipLinkConfig::from_spec(spec);
  cluster.fabric = std::make_unique<sim::ChipLinkFabric>(n, std::move(lc));
  return cluster;
}

std::vector<ttmetal::Device*> ShardedCluster::devices() const {
  std::vector<ttmetal::Device*> out;
  for (const auto& c : cards) out.push_back(c.get());
  return out;
}

ShardedRunResult run_jacobi_sharded(std::span<ttmetal::Device* const> cards,
                                    sim::ChipLinkFabric& fabric,
                                    const JacobiProblem& p,
                                    const ShardedRunConfig& cfg,
                                    std::vector<bfloat16_t>* state) {
  const PaddedLayout global(p.width, p.height);
  const bool resuming = state != nullptr && !state->empty();
  if (resuming && state->size() != global.elems()) {
    TTSIM_THROW_API("resume state has " << state->size()
                    << " elements; the padded layout needs " << global.elems());
  }
  std::vector<std::vector<bfloat16_t>> images;
  images.push_back(resuming ? *state : global.initial_image(p));
  ShardedRunResult result = run_sharded_impl(cards, fabric, to_general(p), cfg, images);
  // Classic Jacobi returns only its solution: extract just that image.
  result.solution = global.extract_interior(images[0]);
  if (state != nullptr) *state = std::move(images[0]);

  if (cfg.verify && !resuming) {
    result.verified_ok =
        detail::matches_general_reference(to_general(p), {&result.solution, 1});
  }
  return result;
}

ShardedRunResult run_general_sharded(
    std::span<ttmetal::Device* const> cards, sim::ChipLinkFabric& fabric,
    const GeneralStencilProblem& p, const ShardedRunConfig& cfg,
    std::vector<std::vector<bfloat16_t>>* state) {
  p.validate();
  if (p.passes.size() != 1) {
    TTSIM_THROW_API("sharded general runs support single-pass programs only ("
                    << p.passes.size() << " passes)");
  }
  const PaddedLayout global(p.width, p.height);
  const bool resuming = state != nullptr && !state->empty();
  std::vector<std::vector<bfloat16_t>> images;
  if (resuming) {
    if (state->size() != p.fields.size()) {
      TTSIM_THROW_API("resume state has " << state->size() << " fields; "
                      << p.fields.size() << " expected");
    }
    images = *state;
  } else {
    for (int f = 0; f < static_cast<int>(p.fields.size()); ++f) {
      images.push_back(general_field_image(global, p, f));
    }
  }

  ShardedRunResult result = run_sharded_impl(cards, fabric, p, cfg, images);
  for (const auto& image : images) {
    result.fields.push_back(global.extract_interior(image));
  }
  result.solution = result.fields[static_cast<std::size_t>(p.passes[0].target)];
  if (state != nullptr) *state = std::move(images);

  if (cfg.verify && !resuming) {
    result.verified_ok = detail::matches_general_reference(p, result.fields);
  }
  return result;
}

ShardedRunResult run_jacobi_sharded(const JacobiProblem& p, int cards,
                                    const ShardedRunConfig& cfg,
                                    sim::DeviceSpec spec) {
  auto cluster = ShardedCluster::open(cards, std::move(spec));
  const auto devs = cluster.devices();
  return run_jacobi_sharded(devs, *cluster.fabric, p, cfg);
}

ShardedRunResult run_general_sharded(const GeneralStencilProblem& p, int cards,
                                     const ShardedRunConfig& cfg,
                                     sim::DeviceSpec spec) {
  auto cluster = ShardedCluster::open(cards, std::move(spec));
  const auto devs = cluster.devices();
  return run_general_sharded(devs, *cluster.fabric, p, cfg);
}

}  // namespace ttsim::core
