#pragma once
/// \file jacobi_device.hpp
/// Device-side Jacobi solvers for the simulated Grayskull, implementing every
/// version studied in the paper:
///   * kInitial          — Section IV: 32x32 batches, 34 blocking aligned
///                         reads per batch (Listing 4), data-mover memcpy
///                         into four offset CBs, per-write synchronisation,
///                         unpipelined single-page CBs.
///   * kWriteOptimised   — batch-level write barrier, pipelined CBs.
///   * kDoubleBuffered   — additionally double-buffers batch reads so reading
///                         overlaps the (dominant) memcpy.
///   * kRowChunk         — Section VI: one-dimensional 1024-element chunks
///                         read contiguously, no memcpy: the compute kernel
///                         aliases CB read pointers into the mover's local
///                         buffer via the cb_set_rd_ptr SDK extension, with
///                         reads issued two batches ahead.
///   * kSramResident     — the paper's concluding proposal: the domain
///                         stays in core SRAM, halos cross the NoC.
///   * kTemporal         — temporal tiling: k sweeps per DRAM pass.
/// Component toggles reproduce the Table II breakdown. Multi-core runs
/// decompose the domain in 2-D over the worker grid (Section VII).
///
/// The plain, adaptive and general (stencil.hpp) single-device solves run
/// one body: validate, shrink onto the usable workers, allocate the
/// program's grids (FieldGrids), stage, launch, read back and verify
/// against the general BF16 reference. Jacobi is the one-field, one-pass
/// program to_general makes; its row-chunk, SRAM-resident and temporal
/// launches are the general frontend's programs, certified race- and
/// deadlock-free by the dataflow IR's static checker before they launch,
/// and the tiled Section-IV programs are built directly. Every solve
/// returns a DeviceRunResult; the adaptive and resilient drivers extend it.

#include <memory>
#include <string>

#include "ttsim/core/problem.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::core {

enum class DeviceStrategy {
  kInitial,
  kWriteOptimised,
  kDoubleBuffered,
  kRowChunk,
  /// The paper's concluding proposal: keep the domain resident in the
  /// cores' SRAM across iterations and exchange halo rows directly between
  /// neighbouring cores over the NoC — DRAM is touched only for the initial
  /// load and the final writeback. Requires a Y-only decomposition
  /// (cores_x == 1), domains whose width is <= 1024 or a multiple of 1024,
  /// and slabs that fit the 1 MB SRAM.
  kSramResident,
  /// Temporal tiling: chain `temporal_depth` iterations through SRAM per
  /// DRAM pass. Each core walks its strip in row blocks; per block the
  /// reading mover fetches the block plus a depth-deep halo skirt from the
  /// epoch's source grid, the compute kernel runs `temporal_depth`
  /// trapezoidal sub-iterations entirely out of L1 slabs (the valid
  /// interior shrinks by the stencil's vertical reach per step — skirt
  /// rows are recomputed redundantly instead of exchanged), and the
  /// writing mover stores only the final generation — cutting DRAM
  /// traffic ~depth-fold. Same eligibility rules as kSramResident
  /// (cores_x == 1, width <= 1024 or a multiple of 1024) but the domain
  /// height is unbounded: only a block's working set must fit L1.
  /// Bit-exact with `temporal_depth` sequential row-chunk sweeps.
  kTemporal,
};

std::string to_string(DeviceStrategy s);

/// Table II switches: selectively disable pipeline stages while keeping the
/// CB structure and synchronisation intact. Only honoured by the tiled
/// (Section IV) strategies, matching the paper's methodology.
struct ComponentToggles {
  bool read = true;
  bool memcpy_to_cbs = true;
  bool compute = true;
  bool write = true;
  bool all_enabled() const { return read && memcpy_to_cbs && compute && write; }
};

struct DeviceRunConfig {
  DeviceStrategy strategy = DeviceStrategy::kRowChunk;
  int cores_x = 1;  ///< cores across the X (contiguous) dimension
  int cores_y = 1;  ///< cores down the Y dimension
  ComponentToggles toggles;
  /// Grid buffer placement. kSingleBank puts u and unew in one (distinct)
  /// bank each — fine for a few cores, a bandwidth wall beyond (Table VII).
  /// kInterleaved uses tt-metal page interleaving (`interleave_page`).
  /// kStriped spreads each grid over the banks in coarse row slabs — the
  /// per-core slab placement a systolic decomposition gives naturally, and
  /// what the full-card Table VIII runs need to reach the DDR-wide ceiling.
  ttmetal::BufferLayout buffer_layout = ttmetal::BufferLayout::kSingleBank;
  std::uint64_t interleave_page = 32 * KiB;
  /// Row-chunk batch width in elements (the paper uses 1024; clamped to the
  /// per-core strip width).
  std::uint32_t chunk_elems = 1024;
  /// Read-ahead depth of the row-chunk reading mover: how many row batches
  /// it keeps in flight (issued but not yet consumed), in [2, 64]. 2 is the
  /// paper's Section VI scheme and the default; deeper values grow the
  /// input CBs (N pages each) and the local row window — 2N+3 slots for
  /// Jacobi, 2N+3+2*ceil(N/nrows_min) for the general frontend (nrows_min:
  /// the fewest rows any core owns) — so more DRAM reads overlap, which is
  /// what lifts the 64+ core runs off the bank-queueing wall (see
  /// bench/ablation_read_ahead). Honoured by kRowChunk (and the stencil
  /// runner); other strategies read as the paper describes them.
  int read_ahead = 2;
  /// kTemporal only: how many iterations one DRAM pass chains through SRAM
  /// (k in [1, 8]). 1 degenerates to a blocked single-sweep; the DRAM-bytes
  /// win grows with k until the shrinking block size makes the redundant
  /// skirt dominate (see bench/ablation_temporal and DESIGN.md). Ignored by
  /// every other strategy.
  int temporal_depth = 1;
  /// kStriped only: round-robin the grid's row slabs over the banks instead
  /// of the default allocator-order hash. The hash (the paper-faithful
  /// model of per-core slab allocation) deals 16 stripes 3/2/.../1 across 8
  /// banks; once deep read-ahead drains the bank queues the 3-stripe bank
  /// is the remaining wall, so the deep-pipelining configuration pairs this
  /// with read_ahead > 2 (see bench/ablation_read_ahead).
  bool balanced_stripes = false;
  /// Verify against the BF16-exact CPU reference after the run.
  bool verify = false;
};

/// What a single-device solve returns. Jacobi solves move their one field
/// into `solution` and leave `fields` empty; general solves
/// (run_general_stencil_on_device) fill `fields` and copy the primary field
/// into `solution`.
struct DeviceRunResult {
  std::vector<float> solution;  ///< interior, row-major (exact widening of BF16)
  std::vector<std::vector<float>> fields;  ///< general solves: per field, row-major
  SimTime kernel_time = 0;      ///< simulated kernel execution time
  SimTime total_time = 0;       ///< including PCIe transfers + dispatch (paper default)
  bool verified_ok = true;      ///< only meaningful when config.verify
  int cores_used = 0;           ///< after any graceful degradation
  /// Checksummed-transfer retries this run took (0 unless the device was
  /// opened with DeviceConfig::checksum_transfers and faults hit the bus).
  int transfer_retries = 0;

  /// Billion point-updates per second of `p` (a JacobiProblem or a
  /// GeneralStencilProblem), the paper's metric; includes PCIe unless
  /// `kernel_only`.
  template <typename Problem>
  double gpts(const Problem& p, bool kernel_only = false) const {
    const SimTime t = kernel_only ? kernel_time : total_time;
    return t > 0 ? static_cast<double>(p.total_updates()) / 1e9 / to_seconds(t) : 0.0;
  }
};

/// Run the solver on an open device. Throws ApiError on invalid
/// decompositions (more cores than workers, strips thinner than the stencil).
DeviceRunResult run_jacobi_on_device(ttmetal::Device& device, const JacobiProblem& p,
                                     const DeviceRunConfig& config);

/// Convenience overload opening a fresh simulated e150.
DeviceRunResult run_jacobi_on_device(const JacobiProblem& p, const DeviceRunConfig& config,
                                     sim::GrayskullSpec spec = {});

/// Multi-card scaling (paper Section VII, e150 x2 / x4): the domain is split
/// in Y across independent cards. Cards cannot exchange halos (the paper
/// notes the answer is therefore not strictly correct); each card treats its
/// cut edges as fixed boundaries, so `solution` (the cards' slabs in order)
/// matches cpu::jacobi_reference_bf16_cards, not the whole-domain solve.
/// Times are the per-card maxima, `cores_used` and `transfer_retries` sums
/// over cards, and with config.verify every card checks its own slab. Each
/// card runs on its own host thread.
DeviceRunResult run_jacobi_multicard(const JacobiProblem& p, int cards,
                                     const DeviceRunConfig& config,
                                     sim::GrayskullSpec spec = {});

/// Convergence-driven solving (beyond the paper, which runs a fixed
/// iteration count): the device itself tracks max |unew - u| on the FPU
/// every `check_every` iterations (one extra subtract/abs/reduce per chunk
/// on checking sweeps, one 2-byte DRAM write per core); the host reads the
/// per-core residuals between launches and stops once the tolerance is met
/// or `problem.iterations` sweeps have run. Requires the row-chunk strategy
/// and per-core strips in full 1024-element chunks (width divisible by
/// 1024 x cores_x).
struct AdaptiveOptions {
  double tolerance = 1e-3;
  int check_every = 50;
};

/// `kernel_time` sums the launches; with config.verify the solution is
/// checked against the reference at `iterations_run` sweeps.
struct AdaptiveRunResult : DeviceRunResult {
  int iterations_run = 0;
  double final_residual = 0.0;
  bool converged = false;
};

AdaptiveRunResult run_jacobi_adaptive(ttmetal::Device& device, const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& config);
AdaptiveRunResult run_jacobi_adaptive(const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& config,
                                      sim::GrayskullSpec spec = {});

}  // namespace ttsim::core
