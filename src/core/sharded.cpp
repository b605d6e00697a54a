/// \file sharded.cpp
/// Cross-card sharded solver: slab decomposition, deep-halo exchange over a
/// ChipLinkFabric, and lockstep cluster timing. See sharded.hpp for the
/// protocol derivation and DESIGN.md "Multi-chip" for the prose version.

#include "ttsim/core/sharded.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "card_threads.hpp"
#include "jacobi_internal.hpp"
#include "ttsim/common/check.hpp"
#include "ttsim/core/jacobi_batch.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"

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

/// Everything the unified epoch loop needs to know about the program being
/// sharded, independent of the Jacobi/general split.
struct Job {
  const JacobiProblem* jacobi = nullptr;
  const GeneralStencilProblem* general = nullptr;
  int width = 0, rows = 0, iterations = 0;
  int nfields = 1;
  int written = 0;  ///< the field whose halo crosses the fabric
};

struct CardState {
  ttmetal::Device* dev = nullptr;
  Slab slab;
  PaddedLayout layout{16, 1};  ///< slab layout (placeholder until built)
  std::vector<std::shared_ptr<ttmetal::Buffer>> a, b;  ///< per field; b null
  std::vector<int> cores;                              ///< for read-only
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

ShardedRunResult run_sharded_impl(std::span<ttmetal::Device* const> devices,
                                  sim::ChipLinkFabric& fabric, const Job& job,
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
  JacobiProblem geometry;
  geometry.width = static_cast<std::uint32_t>(job.width);
  geometry.height = static_cast<std::uint32_t>(job.rows);
  geometry.iterations = job.iterations;
  detail::validate_launch(geometry, launch_cfg(k), detail::Surface::kBatch, 0);

  const PaddedLayout global(static_cast<std::uint32_t>(job.width),
                            static_cast<std::uint32_t>(job.rows));
  const std::uint64_t row_bytes = global.row_elems() * sizeof(bfloat16_t);
  const auto slabs = decompose_slabs(job.rows, cards, k);
  const int ncores = cfg.run.cores_x * cfg.run.cores_y;
  auto slab_jacobi = [&](const CardState& cs, int klaunch) {
    JacobiProblem q = *job.jacobi;
    q.height = static_cast<std::uint32_t>(cs.slab.height);
    q.iterations = klaunch;
    return q;
  };
  auto slab_general = [&](const CardState& cs, int klaunch) {
    GeneralStencilProblem g = *job.general;
    g.height = static_cast<std::uint32_t>(cs.slab.height);
    g.iterations = klaunch;
    for (auto& f : g.fields) f.initial_field.clear();
    return g;
  };

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
    cs.layout = PaddedLayout(static_cast<std::uint32_t>(job.width),
                             static_cast<std::uint32_t>(cs.slab.height));
    const auto usable = cs.dev->usable_workers();
    if (static_cast<int>(usable.size()) < ncores) {
      TTSIM_THROW_API("card " << c << " has " << usable.size()
                      << " usable workers but the run config needs " << ncores);
    }
    cs.cores.assign(usable.begin(), usable.begin() + ncores);
  }
  detail::for_each_card(devices, [&](int c) {
    CardState& cs = state[static_cast<std::size_t>(c)];
    const ttmetal::BufferConfig bc =
        job.general != nullptr
            ? batch_grid_buffer_config(cfg.run, slab_general(cs, 1).geometry())
            : batch_grid_buffer_config(cfg.run, slab_jacobi(cs, 1));
    const std::size_t slab_begin =
        static_cast<std::size_t>(cs.slab.off) * global.row_elems();
    const std::size_t slab_elems =
        static_cast<std::size_t>(cs.slab.height + 2) * global.row_elems();
    for (int f = 0; f < job.nfields; ++f) {
      const auto& img = images[static_cast<std::size_t>(f)];
      const std::span<const bfloat16_t> slice(img.data() + slab_begin,
                                              slab_elems);
      auto buf_a = cs.dev->create_buffer(bc);
      cs.dev->write_buffer(*buf_a, std::as_bytes(slice));
      cs.a.push_back(std::move(buf_a));
      if (f == job.written) {
        // Both parities start from the same image: boundary rows are read
        // from whichever buffer is the sweep's source, so they must be
        // present (and equal) in both.
        auto buf_b = cs.dev->create_buffer(bc);
        cs.dev->write_buffer(*buf_b, std::as_bytes(slice));
        cs.b.push_back(std::move(buf_b));
      } else {
        cs.b.push_back(nullptr);
      }
    }
  });

  ShardedRunResult result;
  result.cards = cards;
  const auto fabric_before = fabric.totals();

  // --- lockstep epochs ---
  SimTime cluster = 0;
  for (auto& cs : state) cluster = std::max(cluster, cs.dev->now());
  bool swapped = false;
  int done = 0;
  while (done < job.iterations) {
    const int klaunch = std::min(k, job.iterations - done);
    ++result.epochs;

    detail::for_each_card(devices, [&](int c) {
      CardState& cs = state[static_cast<std::size_t>(c)];
      cs.dev->hw().engine().run_until(cluster);
      ttmetal::Program prog;
      const DeviceRunConfig lc = launch_cfg(klaunch);
      // The fresh grid goes in whichever slot the launch reads first.
      const bool reads_d2 =
          detail::reads_d2_first(lc.strategy, klaunch, lc.temporal_depth);
      if (job.general != nullptr) {
        GeneralBatchSlot slot;
        for (int f = 0; f < job.nfields; ++f) {
          const auto& a = cs.a[static_cast<std::size_t>(f)];
          const auto& b = cs.b[static_cast<std::size_t>(f)];
          if (f == job.written) {
            const std::uint64_t fresh = swapped ? b->address() : a->address();
            const std::uint64_t other = swapped ? a->address() : b->address();
            slot.d1.push_back(reads_d2 ? other : fresh);
            slot.d2.push_back(reads_d2 ? fresh : other);
          } else {
            slot.d1.push_back(a->address());
            slot.d2.push_back(0);
          }
        }
        slot.core_ids = cs.cores;
        build_batched_stencil_program(prog, slab_general(cs, klaunch), lc,
                                      {slot});
      } else {
        const auto& a = cs.a[0];
        const auto& b = cs.b[0];
        const std::uint64_t fresh = swapped ? b->address() : a->address();
        const std::uint64_t other = swapped ? a->address() : b->address();
        BatchSlot slot;
        slot.d1 = reads_d2 ? other : fresh;
        slot.d2 = reads_d2 ? fresh : other;
        slot.core_ids = cs.cores;
        build_batched_rowchunk_program(prog, slab_jacobi(cs, klaunch), lc,
                                       {slot});
      }
      cs.dev->run_program(prog);
    });
    SimTime epoch_kernel = 0;
    SimTime epoch_end = 0;
    for (const auto& cs : state) {
      epoch_kernel = std::max(epoch_kernel, cs.dev->last_kernel_duration());
      epoch_end = std::max(epoch_end, cs.dev->now());
    }
    result.kernel_time += epoch_kernel;

    // Parity: a row-chunk launch flips buffers once per iteration; a
    // temporal launch is a single DRAM pass however deep the chain is.
    const int flips = temporal ? 1 : klaunch;
    if (flips % 2 == 1) swapped = !swapped;
    done += klaunch;
    cluster = epoch_end;
    if (done >= job.iterations) break;

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
      const int f = job.written;
      auto* up_res = (swapped ? up.b[static_cast<std::size_t>(f)]
                              : up.a[static_cast<std::size_t>(f)])
                         .get();
      auto* up_alt = (swapped ? up.a[static_cast<std::size_t>(f)]
                              : up.b[static_cast<std::size_t>(f)])
                         .get();
      auto* dn_res = (swapped ? dn.b[static_cast<std::size_t>(f)]
                              : dn.a[static_cast<std::size_t>(f)])
                         .get();
      auto* dn_alt = (swapped ? dn.a[static_cast<std::size_t>(f)]
                              : dn.b[static_cast<std::size_t>(f)])
                         .get();
      const std::uint64_t bytes = static_cast<std::uint64_t>(k) * row_bytes;

      // Down: card c's bottom k owned rows -> card c+1's top halo.
      {
        const int src_row = (up.slab.r1 - k) - up.slab.off + 1;
        slab_rows_read(*up.dev, *up_res, global, src_row, k, rows.data());
        slab_rows_write(*dn.dev, *dn_res, global, 0, k, rows.data());
        slab_rows_write(*dn.dev, *dn_alt, global, 0, 1, rows.data());
        exchange_end = std::max(exchange_end,
                                fabric.transfer(c, c + 1, bytes, epoch_end));
        ++result.link_messages;
      }
      // Up: card c+1's top k owned rows -> card c's bottom halo.
      {
        const int src_row = dn.slab.e_top + 1;
        slab_rows_read(*dn.dev, *dn_res, global, src_row, k, rows.data());
        const int dst_row = up.slab.height + 2 - k;
        slab_rows_write(*up.dev, *up_res, global, dst_row, k, rows.data());
        slab_rows_write(*up.dev, *up_alt, global, up.slab.height + 1, 1,
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
    const int f = job.written;
    auto* res = (swapped ? cs.b[static_cast<std::size_t>(f)]
                         : cs.a[static_cast<std::size_t>(f)])
                    .get();
    std::vector<bfloat16_t> out(cs.layout.elems());
    cs.dev->read_buffer(*res, std::as_writable_bytes(std::span{out}));
    // Owned stored rows of the slab land on the matching global stored rows.
    const int owned = cs.slab.r1 - cs.slab.r0;
    auto& img = images[static_cast<std::size_t>(f)];
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

  const auto written = static_cast<std::size_t>(job.written);
  if (job.general == nullptr) {
    // Classic Jacobi returns only its solution: extract just that image.
    result.solution = global.extract_interior(images[written]);
    return result;
  }
  for (const auto& image : images) {
    result.fields.push_back(global.extract_interior(image));
  }
  result.solution = result.fields[written];
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
  Job job;
  job.jacobi = &p;
  job.width = static_cast<int>(p.width);
  job.rows = static_cast<int>(p.height);
  job.iterations = p.iterations;

  const PaddedLayout global(p.width, p.height);
  const bool resuming = state != nullptr && !state->empty();
  if (resuming && state->size() != global.elems()) {
    TTSIM_THROW_API("resume state has " << state->size()
                    << " elements; the padded layout needs " << global.elems());
  }
  std::vector<std::vector<bfloat16_t>> images;
  images.push_back(resuming ? *state : global.initial_image(p));

  ShardedRunResult result = run_sharded_impl(cards, fabric, job, cfg, images);
  if (state != nullptr) *state = images[0];

  if (cfg.verify && !resuming) {
    const auto ref = cpu::jacobi_reference_bf16(p);
    result.verified_ok = ref.size() == result.solution.size();
    for (std::size_t i = 0; result.verified_ok && i < ref.size(); ++i) {
      if (static_cast<float>(ref[i]) != result.solution[i]) {
        result.verified_ok = false;
      }
    }
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
  Job job;
  job.general = &p;
  job.width = static_cast<int>(p.width);
  job.rows = static_cast<int>(p.height);
  job.iterations = p.iterations;
  job.nfields = static_cast<int>(p.fields.size());
  job.written = p.passes[0].target;

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
    for (int f = 0; f < job.nfields; ++f) {
      images.push_back(general_field_image(global, p, f));
    }
  }

  ShardedRunResult result = run_sharded_impl(cards, fabric, job, cfg, images);
  if (state != nullptr) *state = images;

  if (cfg.verify && !resuming) {
    const auto ref = cpu::general_reference_bf16(p);
    result.verified_ok = ref.size() == result.fields.size();
    for (std::size_t f = 0; result.verified_ok && f < ref.size(); ++f) {
      const auto& got = result.fields[f];
      result.verified_ok = ref[f].size() == got.size();
      for (std::size_t i = 0; result.verified_ok && i < got.size(); ++i) {
        if (static_cast<float>(ref[f][i]) != got[i]) result.verified_ok = false;
      }
    }
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
