/// \file test_stencil_conformance.cpp
/// Differential conformance harness for the general stencil frontend: a
/// seeded randomized sweep over (shape x transition x strategy x read-ahead
/// x batch size x fault schedule x unit weights and scale post-op)
/// asserting, for every sampled config,
///   * device-vs-CPU bit-exactness (every field against
///     cpu::general_reference_bf16),
///   * strategy-vs-strategy agreement (row-chunk vs SRAM-resident vs the
///     batched multi-slot program, where each is eligible),
///   * classic Jacobi on the same geometry and row-chunk config, single and
///     batched, against cpu::jacobi_reference_bf16 (where sampled),
///   * verifier cleanliness (every run executes under enable_verify; any
///     finding fails the config),
///   * run-ahead vs eager agreement: the verifier keeps a launch eager, so
///     each leg of a config without a fault schedule runs again with the
///     verifier off, where kernels run private work ahead of the engine,
///     and must match the verified run bit for bit in every field and
///     every simulated time.
/// Failures shrink to a minimal reproducer (iterations, then height, then
/// width, then read-ahead/cores) and log a one-line reproducer:
///
///   TTSIM_CONFORMANCE_SEED=<seed> ./tests/test_stencil_conformance
///
/// re-runs exactly that config. `--smoke` (the ctest wiring) runs a small
/// subset; the full sweep samples >= 200 configs from a fixed base seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ttsim/common/rng.hpp"
#include "ttsim/core/field_grids.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/sim/trace.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/sim/fault.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/verify/race.hpp"

namespace {
bool g_smoke = false;
}

namespace ttsim {
namespace {

constexpr std::uint64_t kBaseSeed = 0xC04F0CADE5EEDULL;

struct Config {
  std::uint64_t seed = 0;
  core::GeneralStencilProblem problem;
  core::DeviceRunConfig cfg;        // row-chunk leg (cores, chunk, read-ahead)
  bool try_sram = false;            // eligible + sampled
  int try_temporal = 0;             // > 0: also run kTemporal at this depth
  int batch_slots = 0;              // >= 2: also run the batched program
  sim::FaultConfig faults;          // delay-only schedule (or inert)
  int shard_cards = 0;              // >= 2: also run the multi-card leg
  int shard_k = 1;                  // halo-exchange epoch length
  bool shard_temporal = false;      // per-card strategy of the sharded leg
  bool jacobi = false;              // also run classic Jacobi (row-chunk leg)
  core::JacobiProblem jacobi_bcs;   // its boundary and initial values
};

/// The classic Jacobi leg's problem: the config's geometry and iteration
/// count (so shrinking moves it too) with the drawn boundary values.
core::JacobiProblem jacobi_problem(const Config& c) {
  core::JacobiProblem jp = c.jacobi_bcs;
  jp.width = c.problem.width;
  jp.height = c.problem.height;
  jp.iterations = c.problem.iterations;
  return jp;
}

std::string describe(const Config& c) {
  std::ostringstream os;
  os << "seed=0x" << std::hex << c.seed << std::dec << " "
     << c.problem.width << "x" << c.problem.height << " it="
     << c.problem.iterations << " fields=" << c.problem.fields.size()
     << " passes=" << c.problem.passes.size() << " hash=0x" << std::hex
     << c.problem.transition_hash() << std::dec << " cores="
     << c.cfg.cores_x << "x" << c.cfg.cores_y << " chunk="
     << c.cfg.chunk_elems << " depth=" << c.cfg.read_ahead
     << (c.try_sram ? " +sram" : "") << " batch=" << c.batch_slots
     << (c.faults.any_probabilistic() ? " +faults" : "");
  if (c.try_temporal > 0) os << " +temporal k=" << c.try_temporal;
  if (c.shard_cards >= 2) {
    os << " +shard=" << c.shard_cards << " k=" << c.shard_k
       << (c.shard_temporal ? " (temporal)" : " (rowchunk)");
  }
  if (c.jacobi) os << " +jacobi";
  const core::StencilPass& pass = c.problem.passes.front();
  const auto units = std::count_if(pass.terms.begin(), pass.terms.end(),
                                   [](const core::TapTerm& t) { return t.weight == 1.0f; });
  if (units > 0) os << " units=" << units;
  if (pass.post == core::PostOp::kScale) os << " +scale=" << pass.post_scale;
  return os.str();
}

/// A random single-field transition: a non-empty subset of the nine taps in
/// canonical order with smallish weights (convex-ish so values stay finite).
core::GeneralStencilProblem random_single(Rng& rng, std::uint32_t w,
                                          std::uint32_t h, int iters) {
  core::GeneralStencilProblem g;
  g.width = w;
  g.height = h;
  g.iterations = iters;
  core::FieldSpec f;
  f.name = "u";
  f.bc_left = static_cast<float>(rng.next_double(0.0, 1.0));
  f.bc_top = static_cast<float>(rng.next_double(0.0, 1.0));
  f.initial = static_cast<float>(rng.next_double(0.0, 1.0));
  g.fields.push_back(std::move(f));
  core::StencilPass pass;
  pass.target = 0;
  const std::uint32_t mask =
      static_cast<std::uint32_t>(rng.next_int(1, (1 << core::kNumTaps) - 1));
  for (int t = 0; t < core::kNumTaps; ++t) {
    if (mask & (1u << t)) {
      const float wgt = static_cast<float>(rng.next_double(-0.3, 0.3));
      pass.terms.push_back(core::TapTerm{
          0, static_cast<core::Tap>(t), wgt == 0.0f ? 0.125f : wgt});
    }
  }
  g.passes.push_back(std::move(pass));
  return g;
}

/// A random two-field program: field 1 relaxes under its own taps plus a
/// coupling tap of field 0 (which stays read-only half the time, or gets
/// its own advection pass — exercising multi-pass buffer parity).
core::GeneralStencilProblem random_coupled(Rng& rng, std::uint32_t w,
                                           std::uint32_t h, int iters) {
  core::GeneralStencilProblem g;
  g.width = w;
  g.height = h;
  g.iterations = iters;
  core::FieldSpec a;
  a.name = "a";
  a.initial = 0.5f;
  a.bc_left = 1.0f;
  g.fields.push_back(std::move(a));
  core::FieldSpec b;
  b.name = "b";
  b.initial = static_cast<float>(rng.next_double(0.0, 0.5));
  g.fields.push_back(std::move(b));

  const bool two_pass = rng.next_bool();
  if (two_pass) {
    core::StencilPass pa;  // field 0: upwind transport
    pa.target = 0;
    pa.terms.push_back(core::TapTerm{0, core::Tap::kC, 0.6f});
    pa.terms.push_back(core::TapTerm{0, core::Tap::kW, 0.4f});
    g.passes.push_back(std::move(pa));
  }
  core::StencilPass pb;  // field 1: diffusion + coupling (sees pa's update
  pb.target = 1;         // when two_pass — the leapfrog visibility rule)
  const float k = static_cast<float>(rng.next_double(0.05, 0.2));
  pb.terms.push_back(core::TapTerm{1, core::Tap::kC, 1.0f - 4.0f * k});
  pb.terms.push_back(core::TapTerm{1, core::Tap::kW, k});
  pb.terms.push_back(core::TapTerm{1, core::Tap::kE, k});
  pb.terms.push_back(core::TapTerm{1, core::Tap::kN, k});
  pb.terms.push_back(core::TapTerm{1, core::Tap::kS, k});
  pb.terms.push_back(core::TapTerm{0, core::Tap::kC, 0.05f});
  g.passes.push_back(std::move(pb));
  if (!two_pass) {
    // Field 0 read-only: still "used", validate() is happy.
  }
  return g;
}

Config sample(std::uint64_t seed) {
  Rng rng(seed);
  Config c;
  c.seed = seed;

  const std::uint32_t w = 16 * static_cast<std::uint32_t>(rng.next_int(2, 8));
  const std::uint32_t h = static_cast<std::uint32_t>(rng.next_int(6, 40));
  const int iters = static_cast<int>(rng.next_int(1, 5));

  switch (rng.next_int(0, 6)) {
    case 0: c.problem = random_single(rng, w, h, iters); break;
    case 1: c.problem = core::gallery::hotspot(w, h, iters); break;
    case 2: c.problem = core::gallery::fdtd2d(w, h, iters); break;
    case 3: c.problem = core::gallery::convection(w, h, iters); break;
    case 4:
      c.problem = core::gallery::life(w, h, iters, rng.next_u64());
      break;
    default: c.problem = random_coupled(rng, w, h, iters); break;
  }

  c.cfg.strategy = core::DeviceStrategy::kRowChunk;
  c.cfg.read_ahead = static_cast<int>(rng.next_int(2, 8));
  c.cfg.chunk_elems = static_cast<std::uint32_t>(
      rng.next_bool() ? 1024 : 16 * rng.next_int(1, 4));
  // cores_x splits the width into 16-aligned strips; cores_y needs a row
  // per core.
  const int cx = rng.next_bool() && w % 32 == 0 ? 2 : 1;
  const int cy = static_cast<int>(rng.next_int(1, 3));
  c.cfg.cores_x = cx;
  c.cfg.cores_y = static_cast<std::uint32_t>(cy) <= h ? cy : 1;
  c.cfg.verify = false;  // the harness compares fields itself

  c.try_sram = c.problem.fields.size() == 1 && c.problem.passes.size() == 1 &&
               rng.next_bool();
  // Temporal eligibility is wider than SRAM's: any single-pass program
  // (read-only fields stream alongside the written one). Widths here are
  // always <= 128, so the slab width rule never excludes a sample.
  c.try_temporal = c.problem.passes.size() == 1 && rng.next_int(0, 2) == 0
                       ? static_cast<int>(rng.next_int(1, 8))
                       : 0;
  c.batch_slots = rng.next_int(0, 3) == 0 ? static_cast<int>(rng.next_int(2, 3)) : 0;

  if (rng.next_int(0, 3) == 0) {
    // Delay-only fault schedule: stretches the schedule, must change no bit
    // and trip no verifier finding.
    c.faults.seed = rng.next_u64();
    c.faults.mover_stall_prob = 0.03;
    c.faults.noc_delay_prob = 0.03;
  }

  // Multi-card sharding axis (drawn last so earlier seeds' configs are
  // unchanged): single-pass programs split across 2-3 cards with halo
  // exchanges every k iterations, per-card row-chunk or temporal. Every
  // card must own at least k rows (and a row per core).
  if (c.problem.passes.size() == 1 && rng.next_int(0, 2) == 0) {
    const int cards = static_cast<int>(rng.next_int(2, 3));
    const int kx = static_cast<int>(rng.next_int(1, 4));
    const int owned = static_cast<int>(h) / cards;
    if (owned >= std::max(kx, 4)) {
      c.shard_cards = cards;
      c.shard_k = kx;
      c.shard_temporal = rng.next_bool();
    }
  }

  // Classic Jacobi axis (drawn after every other axis, so earlier seeds'
  // configs are unchanged): the row-chunk leg's geometry, decomposition,
  // chunking, read-ahead and fault schedule on classic Jacobi with random
  // boundary values, batched as well when the config batches.
  if (rng.next_int(0, 2) == 0) {
    c.jacobi = true;
    c.jacobi_bcs.bc_left = static_cast<float>(rng.next_double(0.0, 1.0));
    c.jacobi_bcs.bc_right = static_cast<float>(rng.next_double(0.0, 1.0));
    c.jacobi_bcs.bc_top = static_cast<float>(rng.next_double(0.0, 1.0));
    c.jacobi_bcs.bc_bottom = static_cast<float>(rng.next_double(0.0, 1.0));
    c.jacobi_bcs.initial = static_cast<float>(rng.next_double(0.0, 1.0));
  }

  // Tap-order rules U and S (drawn last, so seeds where the axis does not
  // fire keep their configs): a single-pass program without a post-op gets
  // some weights set to exactly 1 (unit terms, no multiply) and maybe a
  // scale post-op with a drawn factor.
  core::StencilPass& pass = c.problem.passes.front();
  if (c.problem.passes.size() == 1 && pass.post == core::PostOp::kNone &&
      rng.next_int(0, 2) == 0) {
    for (core::TapTerm& t : pass.terms) {
      if (rng.next_bool()) t.weight = 1.0f;
    }
    if (rng.next_bool()) {
      pass.post = core::PostOp::kScale;
      pass.post_scale = static_cast<float>(rng.next_double(0.05, 0.3));
    }
  }
  return c;
}

std::string render(const std::vector<verify::Finding>& fs) {
  std::ostringstream os;
  for (const auto& f : fs) {
    os << verify::to_string(f.kind) << " core " << f.core << ": " << f.what << "\n";
  }
  return os.str();
}

ttmetal::DeviceConfig device_config(const Config& c) {
  ttmetal::DeviceConfig dc;
  dc.enable_verify = true;
  if (c.faults.any_probabilistic()) {
    dc.fault_plan = std::make_shared<sim::FaultPlan>(c.faults);
  }
  return dc;
}

/// Whether the config gets run-ahead twins: a fault plan keeps a launch
/// eager with the verifier on or off.
bool runs_ahead(const Config& c) { return !c.faults.any_probabilistic(); }

/// device_config without the verifier: launches run ahead.
ttmetal::DeviceConfig run_ahead_config(const Config& c) {
  ttmetal::DeviceConfig dc = device_config(c);
  dc.enable_verify = false;
  return dc;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](float x, float y) {
    return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
  });
}

/// A leg's run-ahead twin against its eager (verified) run: every field bit
/// for bit and every simulated time.
template <typename Result>
bool same_run(const Result& eager, const Result& fast, const std::string& leg,
              std::string* why) {
  const auto differs = [&](const std::string& what) {
    *why = leg + " run-ahead vs eager: " + what;
    return false;
  };
  if (fast.kernel_time != eager.kernel_time || fast.total_time != eager.total_time) {
    return differs("kernel " + std::to_string(fast.kernel_time) + " vs " +
                   std::to_string(eager.kernel_time) + " ps, total " +
                   std::to_string(fast.total_time) + " vs " +
                   std::to_string(eager.total_time) + " ps");
  }
  if (!same_bits(fast.solution, eager.solution)) return differs("solution differs");
  if constexpr (requires { eager.fields; }) {
    if (!std::equal(eager.fields.begin(), eager.fields.end(), fast.fields.begin(),
                    fast.fields.end(), same_bits)) {
      return differs("a field differs");
    }
  }
  if constexpr (requires { eager.exchange_time; }) {
    if (fast.exchange_time != eager.exchange_time || fast.link_bytes != eager.link_bytes ||
        fast.link_messages != eager.link_messages) {
      return differs("exchange differs");
    }
  }
  return true;
}

bool fields_match(const std::vector<std::vector<bfloat16_t>>& ref,
                  const std::vector<std::vector<float>>& got, std::string* why) {
  if (ref.size() != got.size()) {
    *why = "field count mismatch";
    return false;
  }
  for (std::size_t f = 0; f < ref.size(); ++f) {
    if (ref[f].size() != got[f].size()) {
      *why = "field size mismatch";
      return false;
    }
    for (std::size_t i = 0; i < ref[f].size(); ++i) {
      if (static_cast<float>(ref[f][i]) != got[f][i]) {
        std::ostringstream os;
        os << "field " << f << " elem " << i << ": device " << got[f][i]
           << " vs ref " << static_cast<float>(ref[f][i]);
        *why = os.str();
        return false;
      }
    }
  }
  return true;
}

/// The batched leg: `slots` copies of the problem in ONE program on
/// disjoint core groups, every slot's every field checked against the
/// reference. `kernel_time` receives the launch's duration.
bool run_batched(const Config& c, const std::vector<std::vector<bfloat16_t>>& ref,
                 const ttmetal::DeviceConfig& dc, SimTime* kernel_time,
                 std::string* why) {
  auto device = ttmetal::Device::open({}, dc);
  const int nfields = static_cast<int>(c.problem.fields.size());
  const int ncores = c.cfg.cores_x * c.cfg.cores_y;
  if (c.batch_slots * ncores > device->num_workers()) {
    return true;  // cannot place this many groups; not a conformance failure
  }

  auto& cq = device->command_queue(0);
  std::vector<core::FieldGrids> grids;
  std::vector<core::GeneralBatchSlot> slots;
  for (int g = 0; g < c.batch_slots; ++g) {
    auto& slot_grids = grids.emplace_back(*device, c.problem, c.cfg);
    for (int f = 0; f < nfields; ++f) {
      slot_grids.stage(f, core::general_field_image(slot_grids.layout(), c.problem, f),
                       cq, /*blocking=*/true);
    }
    std::vector<int> cores;
    for (int i = 0; i < ncores; ++i) cores.push_back(g * ncores + i);
    slots.push_back(slot_grids.bind(c.problem.iterations, std::move(cores)));
  }

  ttmetal::Program prog;
  core::build_batched_stencil_program(prog, c.problem, c.cfg, slots);
  device->run_program(prog);
  *kernel_time = device->last_kernel_duration();

  for (int g = 0; g < c.batch_slots; ++g) {
    const auto& slot_grids = grids[static_cast<std::size_t>(g)];
    std::vector<std::vector<float>> got;
    for (int f = 0; f < nfields; ++f) {
      std::vector<bfloat16_t> out(slot_grids.layout().elems());
      slot_grids.read(f, out, cq, /*blocking=*/true);
      got.push_back(slot_grids.layout().extract_interior(out));
    }
    if (!fields_match(ref, got, why)) {
      *why = "batched slot " + std::to_string(g) + ": " + *why;
      return false;
    }
  }
  if (device->verifier() == nullptr) return true;
  const auto fs = device->verifier()->findings();
  if (!fs.empty()) {
    *why = "batched verifier findings:\n" + render(fs);
    return false;
  }
  return true;
}

/// Compare a classic Jacobi solution with the BF16 CPU reference.
bool jacobi_matches(const std::vector<bfloat16_t>& ref, const std::vector<float>& got,
                    std::string* why) {
  if (ref.size() != got.size()) {
    *why = "solution size mismatch";
    return false;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (static_cast<float>(ref[i]) != got[i]) {
      std::ostringstream os;
      os << "elem " << i << ": device " << got[i] << " vs ref "
         << static_cast<float>(ref[i]);
      *why = os.str();
      return false;
    }
  }
  return true;
}

/// The classic Jacobi leg: one solve through run_jacobi_on_device and, when
/// the config batches, `batch_slots` copies in one batched program, each
/// checked against cpu::jacobi_reference_bf16 and, under the verifier,
/// verifier-clean. `times` receives each launch's kernel time.
bool run_jacobi(const Config& c, const ttmetal::DeviceConfig& dc,
                std::vector<SimTime>* times, std::string* why) {
  const core::JacobiProblem jp = jacobi_problem(c);
  const auto ref = cpu::jacobi_reference_bf16(jp);

  auto dev = ttmetal::Device::open({}, dc);
  const auto r = core::run_jacobi_on_device(*dev, jp, c.cfg);
  times->push_back(r.kernel_time);
  times->push_back(r.total_time);
  if (!jacobi_matches(ref, r.solution, why)) {
    *why = "jacobi: " + *why;
    return false;
  }
  if (dev->verifier() != nullptr) {
    const auto fs = dev->verifier()->findings();
    if (!fs.empty()) {
      *why = "jacobi verifier findings:\n" + render(fs);
      return false;
    }
  }
  if (c.batch_slots < 2) return true;

  auto bdev = ttmetal::Device::open({}, dc);
  const int ncores = c.cfg.cores_x * c.cfg.cores_y;
  if (c.batch_slots * ncores > bdev->num_workers()) return true;
  auto& cq = bdev->command_queue(0);
  std::vector<core::FieldGrids> grids;
  std::vector<core::GeneralBatchSlot> slots;
  const core::GeneralStencilProblem jg = core::to_general(jp);
  for (int g = 0; g < c.batch_slots; ++g) {
    auto& slot_grids = grids.emplace_back(*bdev, jg, c.cfg);
    slot_grids.stage(0, slot_grids.layout().initial_image(jp), cq, /*blocking=*/true);
    std::vector<int> cores;
    for (int i = 0; i < ncores; ++i) cores.push_back(g * ncores + i);
    slots.push_back(slot_grids.bind(jp.iterations, std::move(cores)));
  }
  ttmetal::Program prog;
  core::build_batched_stencil_program(prog, jg, c.cfg, slots);
  bdev->run_program(prog);
  times->push_back(bdev->last_kernel_duration());
  for (int g = 0; g < c.batch_slots; ++g) {
    const auto& slot_grids = grids[static_cast<std::size_t>(g)];
    std::vector<bfloat16_t> out(slot_grids.layout().elems());
    slot_grids.read(0, out, cq, /*blocking=*/true);
    if (!jacobi_matches(ref, slot_grids.layout().extract_interior(out), why)) {
      *why = "jacobi batched slot " + std::to_string(g) + ": " + *why;
      return false;
    }
  }
  if (bdev->verifier() == nullptr) return true;
  const auto bfs = bdev->verifier()->findings();
  if (!bfs.empty()) {
    *why = "jacobi batched verifier findings:\n" + render(bfs);
    return false;
  }
  return true;
}

/// One full differential check of a config. Returns true when every leg
/// agrees; `why` names the first divergence.
bool check(const Config& c, std::string* why) {
  const auto ref = cpu::general_reference_bf16(c.problem);

  // Row-chunk leg.
  auto dev = ttmetal::Device::open({}, device_config(c));
  const auto row = core::run_general_stencil_on_device(*dev, c.problem, c.cfg);
  if (!fields_match(ref, row.fields, why)) {
    *why = "row-chunk: " + *why;
    return false;
  }
  const auto fs = dev->verifier()->findings();
  if (!fs.empty()) {
    *why = "row-chunk verifier findings:\n" + render(fs);
    return false;
  }
  if (runs_ahead(c)) {
    auto fdev = ttmetal::Device::open({}, run_ahead_config(c));
    const auto fast = core::run_general_stencil_on_device(*fdev, c.problem, c.cfg);
    if (!same_run(row, fast, "row-chunk", why)) return false;
  }

  // SRAM leg (strategy-vs-strategy agreement is implied by both matching
  // the reference bit-for-bit, and asserted directly for a clear message).
  if (c.try_sram) {
    core::DeviceRunConfig scfg = c.cfg;
    scfg.strategy = core::DeviceStrategy::kSramResident;
    scfg.cores_x = 1;
    auto sdev = ttmetal::Device::open({}, device_config(c));
    const auto sram = core::run_general_stencil_on_device(*sdev, c.problem, scfg);
    if (!fields_match(ref, sram.fields, why)) {
      *why = "sram: " + *why;
      return false;
    }
    for (std::size_t i = 0; i < row.solution.size(); ++i) {
      if (row.solution[i] != sram.solution[i]) {
        *why = "rowchunk-vs-sram divergence at elem " + std::to_string(i);
        return false;
      }
    }
    const auto sfs = sdev->verifier()->findings();
    if (!sfs.empty()) {
      *why = "sram verifier findings:\n" + render(sfs);
      return false;
    }
    if (runs_ahead(c)) {
      auto fdev = ttmetal::Device::open({}, run_ahead_config(c));
      const auto fast = core::run_general_stencil_on_device(*fdev, c.problem, scfg);
      if (!same_run(sram, fast, "sram", why)) return false;
    }
  }

  // Temporal leg: the k-deep chain must agree with the reference AND with
  // its own k=1 degenerate form (k chained sub-iterations vs k sequential
  // single-sweep passes — the tentpole's bit-exactness contract), and both
  // runs must be verifier-clean under the same fault schedule.
  if (c.try_temporal > 0) {
    core::DeviceRunConfig tcfg = c.cfg;
    tcfg.strategy = core::DeviceStrategy::kTemporal;
    tcfg.cores_x = 1;
    tcfg.temporal_depth = c.try_temporal;
    auto tdev = ttmetal::Device::open({}, device_config(c));
    const auto chained = core::run_general_stencil_on_device(*tdev, c.problem, tcfg);
    if (!fields_match(ref, chained.fields, why)) {
      *why = "temporal k=" + std::to_string(c.try_temporal) + ": " + *why;
      return false;
    }
    tcfg.temporal_depth = 1;
    auto odev = ttmetal::Device::open({}, device_config(c));
    const auto once = core::run_general_stencil_on_device(*odev, c.problem, tcfg);
    for (std::size_t i = 0; i < chained.solution.size(); ++i) {
      if (chained.solution[i] != once.solution[i]) {
        *why = "temporal k=" + std::to_string(c.try_temporal) +
               " vs k=1 divergence at elem " + std::to_string(i);
        return false;
      }
    }
    for (auto* d : {tdev.get(), odev.get()}) {
      const auto tfs = d->verifier()->findings();
      if (!tfs.empty()) {
        *why = "temporal verifier findings:\n" + render(tfs);
        return false;
      }
    }
    if (runs_ahead(c)) {
      tcfg.temporal_depth = c.try_temporal;
      auto fdev = ttmetal::Device::open({}, run_ahead_config(c));
      const auto fast = core::run_general_stencil_on_device(*fdev, c.problem, tcfg);
      if (!same_run(chained, fast, "temporal", why)) return false;
    }
  }

  // Multi-card leg: the same problem sharded across shard_cards cards with
  // one halo exchange per k iterations must match the reference (hence also
  // the single-card row-chunk leg above — device-vs-device bit-exactness
  // across card counts) and leave every card's verifier clean.
  if (c.shard_cards >= 2) {
    core::ShardedRunConfig scfg;
    scfg.run = c.cfg;
    scfg.exchange_every = c.shard_k;
    if (c.shard_temporal) {
      scfg.run.strategy = core::DeviceStrategy::kTemporal;
      scfg.run.cores_x = 1;
      scfg.run.temporal_depth = c.shard_k;
    }
    auto cluster = core::ShardedCluster::open(c.shard_cards, {}, device_config(c));
    const auto devs = cluster.devices();
    const auto sh = core::run_general_sharded(devs, *cluster.fabric, c.problem, scfg);
    if (!fields_match(ref, sh.fields, why)) {
      *why = "sharded x" + std::to_string(c.shard_cards) + " k=" +
             std::to_string(c.shard_k) + ": " + *why;
      return false;
    }
    for (std::size_t i = 0; i < row.solution.size(); ++i) {
      if (row.solution[i] != sh.solution[i]) {
        *why = "1-card-vs-" + std::to_string(c.shard_cards) +
               "-card divergence at elem " + std::to_string(i);
        return false;
      }
    }
    for (int card = 0; card < c.shard_cards; ++card) {
      const auto cfs =
          cluster.cards[static_cast<std::size_t>(card)]->verifier()->findings();
      if (!cfs.empty()) {
        *why = "sharded card " + std::to_string(card) +
               " verifier findings:\n" + render(cfs);
        return false;
      }
    }
    if (runs_ahead(c)) {
      auto fast_cluster =
          core::ShardedCluster::open(c.shard_cards, {}, run_ahead_config(c));
      const auto fast_devs = fast_cluster.devices();
      const auto fast =
          core::run_general_sharded(fast_devs, *fast_cluster.fabric, c.problem, scfg);
      if (!same_run(sh, fast, "sharded", why)) return false;
    }
  }

  if (c.batch_slots >= 2) {
    SimTime eager = 0;
    SimTime fast = 0;
    if (!run_batched(c, ref, device_config(c), &eager, why)) return false;
    if (runs_ahead(c)) {
      if (!run_batched(c, ref, run_ahead_config(c), &fast, why)) {
        *why = "run-ahead " + *why;
        return false;
      }
      if (fast != eager) {
        *why = "batched run-ahead vs eager: kernel " + std::to_string(fast) + " vs " +
               std::to_string(eager) + " ps";
        return false;
      }
    }
  }
  if (c.jacobi) {
    std::vector<SimTime> eager;
    std::vector<SimTime> fast;
    if (!run_jacobi(c, device_config(c), &eager, why)) return false;
    if (runs_ahead(c)) {
      if (!run_jacobi(c, run_ahead_config(c), &fast, why)) {
        *why = "run-ahead " + *why;
        return false;
      }
      if (fast != eager) {
        *why = "jacobi run-ahead vs eager: simulated times differ";
        return false;
      }
    }
  }
  return true;
}

/// Shrink a failing config towards a minimal reproducer. Each round tries
/// every shrink move once (halve iterations, halve height, halve width,
/// drop batching, collapse cores, shallow read-ahead) and keeps the first
/// that still fails; bounded so a flaky failure can't loop forever.
Config shrink(Config c, std::string* why) {
  int budget = 24;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<Config> moves;
    if (c.problem.iterations > 1) {
      Config m = c;
      m.problem.iterations = c.problem.iterations / 2;
      moves.push_back(std::move(m));
    }
    if (c.problem.height > 6) {
      Config m = c;
      m.problem.height = std::max<std::uint32_t>(6, c.problem.height / 2);
      for (auto& f : m.problem.fields) f.initial_field.clear();
      moves.push_back(std::move(m));
    }
    if (c.problem.width > 32) {
      Config m = c;
      m.problem.width = 32;
      for (auto& f : m.problem.fields) f.initial_field.clear();
      moves.push_back(std::move(m));
    }
    if (c.batch_slots > 0) {
      Config m = c;
      m.batch_slots = 0;
      moves.push_back(std::move(m));
    }
    if (c.try_temporal > 1) {
      Config m = c;
      m.try_temporal = 1;
      moves.push_back(std::move(m));
    }
    if (c.try_temporal > 0) {
      Config m = c;
      m.try_temporal = 0;
      moves.push_back(std::move(m));
    }
    if (c.shard_cards > 2 || (c.shard_cards == 2 && c.shard_k > 1)) {
      Config m = c;
      m.shard_cards = 2;
      m.shard_k = 1;
      moves.push_back(std::move(m));
    }
    if (c.shard_cards >= 2) {
      Config m = c;
      m.shard_cards = 0;
      moves.push_back(std::move(m));
    }
    if (c.jacobi) {
      Config m = c;
      m.jacobi = false;
      moves.push_back(std::move(m));
    }
    if (c.cfg.cores_x * c.cfg.cores_y > 1) {
      Config m = c;
      m.cfg.cores_x = m.cfg.cores_y = 1;
      moves.push_back(std::move(m));
    }
    if (c.cfg.read_ahead > 2) {
      Config m = c;
      m.cfg.read_ahead = 2;
      moves.push_back(std::move(m));
    }
    for (auto& m : moves) {
      if (--budget < 0) break;
      if (m.cfg.cores_x > 1 && m.problem.width % (16u * m.cfg.cores_x) != 0) {
        m.cfg.cores_x = 1;
      }
      if (m.cfg.cores_y > static_cast<int>(m.problem.height)) m.cfg.cores_y = 1;
      if (m.shard_cards >= 2 &&
          static_cast<int>(m.problem.height) / m.shard_cards <
              std::max(m.shard_k, m.cfg.cores_y)) {
        m.shard_cards = 0;
      }
      std::string w;
      if (!check(m, &w)) {
        c = std::move(m);
        *why = w;
        progress = true;
        break;
      }
    }
  }
  return c;
}

TEST(StencilConformance, RandomizedSweep) {
  // A pinned seed reproduces one exact config from a failure log.
  if (const char* pinned = std::getenv("TTSIM_CONFORMANCE_SEED")) {
    const std::uint64_t seed = std::strtoull(pinned, nullptr, 0);
    const Config c = sample(seed);
    std::string why;
    EXPECT_TRUE(check(c, &why)) << describe(c) << "\n" << why;
    return;
  }

  const int n = g_smoke ? 24 : 220;
  int failures = 0;
  for (int i = 0; i < n && failures < 3; ++i) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(i);
    Config c = sample(seed);
    std::string why;
    if (check(c, &why)) continue;
    ++failures;
    const std::string full = describe(c) + "\n" + why;
    Config min = shrink(c, &why);
    ADD_FAILURE() << "conformance failure:\n  " << full
                  << "\nshrunk reproducer:\n  " << describe(min) << "\n  " << why
                  << "\nre-run with: TTSIM_CONFORMANCE_SEED=0x" << std::hex
                  << c.seed << std::dec << " ./tests/test_stencil_conformance";
  }
}

// Pinned regressions: configs that exercise every lowering corner at once —
// deep read-ahead over multi-chunk strips, the leapfrog multi-pass parity,
// the Life post-op, and classic Jacobi at one row per core — independent
// of the sweep's sampling.
TEST(StencilConformance, PinnedCorners) {
  struct Pin {
    core::GeneralStencilProblem p;
    int depth;
    int cx, cy;
  };
  std::vector<Pin> pins;
  pins.push_back({core::gallery::fdtd2d(48, 20, 3), 5, 1, 2});
  pins.push_back({core::gallery::life(64, 24, 4, 7), 8, 2, 1});
  pins.push_back({core::gallery::convection(96, 18, 2), 3, 2, 3});
  for (auto& pin : pins) {
    Config c;
    c.seed = 0;
    c.problem = pin.p;
    c.cfg.read_ahead = pin.depth;
    c.cfg.cores_x = pin.cx;
    c.cfg.cores_y = pin.cy;
    c.cfg.chunk_elems = 16;  // many chunk columns per strip
    std::string why;
    EXPECT_TRUE(check(c, &why)) << describe(c) << "\n" << why;
  }

  // Temporal depth axis: every k in [1, 8] on a single-pass two-field
  // gallery program (the read-only power map streams beside the chained
  // field), each depth bit-exact vs the reference and its own k=1 run, and
  // verifier-clean — the race detector and deadlock diagnoser must report
  // zero findings across the whole axis.
  for (int k = 1; k <= 8; ++k) {
    Config c;
    c.seed = 0;
    c.problem = core::gallery::hotspot(64, 24, 5);
    c.cfg.cores_y = 2;
    c.try_temporal = k;
    std::string why;
    EXPECT_TRUE(check(c, &why))
        << "temporal k=" << k << ": " << describe(c) << "\n" << why;
  }

  // Multi-card corner: 3 cards, per-card temporal chains, deep halo k=4 —
  // the cross-card analogue of the axis above, pinned independent of the
  // sweep's sampling.
  {
    Config c;
    c.seed = 0;
    c.problem = core::gallery::hotspot(64, 30, 7);
    c.cfg.cores_y = 2;
    c.shard_cards = 3;
    c.shard_k = 4;
    c.shard_temporal = true;
    std::string why;
    EXPECT_TRUE(check(c, &why)) << describe(c) << "\n" << why;
  }

  // Classic Jacobi at one row per core: 64x16 on cores_y = 16 with 16-element
  // chunks at read-ahead 8, where every read-ahead window crosses several
  // column boundaries (the slot ring's boundary-extra regime), single and
  // batched on two slots. The general leg runs hotspot on the same grid.
  {
    Config c;
    c.seed = 0;
    c.problem = core::gallery::hotspot(64, 16, 4);
    c.cfg.cores_y = 16;
    c.cfg.chunk_elems = 16;
    c.cfg.read_ahead = 8;
    c.batch_slots = 2;
    c.jacobi = true;
    std::string why;
    EXPECT_TRUE(check(c, &why)) << describe(c) << "\n" << why;
  }
}

// The IR-lowering axis: every row-chunk, SRAM-resident and temporal solve
// is proved race/deadlock-free by the static checker and then lowered. For
// every strategy, shape sample and read-ahead / temporal depth in
// [2, 8] / [1, 8], the certified program must reproduce the CPU BF16
// reference bit for bit and run with zero verifier findings.
TEST(StencilConformance, CertifiedLoweringIsBitExactAndVerifierClean) {
  auto open_dev = [] {
    ttmetal::DeviceConfig dc;
    dc.enable_verify = true;
    return ttmetal::Device::open({}, dc);
  };
  auto expect_exact = [](const std::vector<bfloat16_t>& ref,
                         const std::vector<float>& got, std::size_t findings,
                         const std::string& what) {
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(static_cast<float>(ref[i]), got[i])
          << what << ": diverged from the CPU reference at elem " << i;
    }
    EXPECT_EQ(findings, 0u) << what << ": verifier findings";
  };
  auto run_general = [&](const core::GeneralStencilProblem& p,
                         const core::DeviceRunConfig& cfg,
                         const std::string& what) {
    auto dev = open_dev();
    const auto r = core::run_general_stencil_on_device(*dev, p, cfg);
    const auto ref = cpu::general_reference_bf16(p);
    ASSERT_EQ(ref.size(), r.fields.size()) << what;
    for (std::size_t f = 0; f < ref.size(); ++f) {
      expect_exact(ref[f], r.fields[f], dev->verifier()->findings().size(),
                   what + " field " + std::to_string(f));
    }
  };
  auto run_jacobi = [&](const core::JacobiProblem& p,
                        const core::DeviceRunConfig& cfg,
                        const std::string& what) {
    auto dev = open_dev();
    const auto r = core::run_jacobi_on_device(*dev, p, cfg);
    expect_exact(cpu::jacobi_reference_bf16(p), r.solution,
                 dev->verifier()->findings().size(), what);
  };

  struct Shape {
    std::uint32_t w, h;
    int cx, cy;
  };
  const Shape shapes[] = {{64, 20, 1, 2}, {96, 12, 2, 1}};

  // General row-chunk: both shapes, every read-ahead depth in [2, 8].
  for (const Shape& s : shapes) {
    const auto p = core::gallery::convection(s.w, s.h, 2);
    for (int depth = 2; depth <= 8; ++depth) {
      core::DeviceRunConfig cfg;
      cfg.read_ahead = depth;
      cfg.cores_x = s.cx;
      cfg.cores_y = s.cy;
      std::ostringstream what;
      what << "convection " << s.w << "x" << s.h << " rowchunk depth " << depth;
      run_general(p, cfg, what.str());
    }
  }
  // Multi-pass (FDTD) row-chunk: the accumulator-chain protocol.
  {
    core::DeviceRunConfig cfg;
    cfg.read_ahead = 4;
    cfg.cores_y = 2;
    run_general(core::gallery::fdtd2d(64, 20, 2), cfg, "fdtd2d rowchunk");
  }
  // General SRAM-resident: the halo-exchange semaphore protocol.
  {
    core::DeviceRunConfig cfg;
    cfg.strategy = core::DeviceStrategy::kSramResident;
    cfg.cores_y = 2;
    run_general(core::gallery::convection(64, 20, 3), cfg, "convection sram");
  }
  // General temporal: every chain depth in [1, 8].
  for (int k = 1; k <= 8; ++k) {
    core::DeviceRunConfig cfg;
    cfg.strategy = core::DeviceStrategy::kTemporal;
    cfg.temporal_depth = k;
    cfg.cores_y = 2;
    run_general(core::gallery::hotspot(64, 24, 4), cfg,
                "hotspot temporal k=" + std::to_string(k));
  }

  // Jacobi: row-chunk across depths, then the SRAM and temporal lowerings.
  core::JacobiProblem jp;
  jp.width = 64;
  jp.height = 32;
  jp.iterations = 3;
  for (int depth = 2; depth <= 8; ++depth) {
    core::DeviceRunConfig cfg;
    cfg.read_ahead = depth;
    cfg.cores_y = 2;
    run_jacobi(jp, cfg, "jacobi rowchunk depth " + std::to_string(depth));
  }
  for (const core::DeviceStrategy s :
       {core::DeviceStrategy::kSramResident, core::DeviceStrategy::kTemporal}) {
    core::DeviceRunConfig cfg;
    cfg.strategy = s;
    cfg.cores_y = 2;
    cfg.temporal_depth = 4;
    run_jacobi(jp, cfg, "jacobi " + core::to_string(s));
  }
}

}  // namespace
}  // namespace ttsim

int main(int argc, char** argv) {
  // Strip --smoke before gtest parses the argv (it rejects unknown flags).
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
