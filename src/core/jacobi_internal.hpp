#pragma once
/// \file jacobi_internal.hpp
/// Shared internals of the device solvers: the per-core domain
/// decomposition, the one launch-config validator, the one core-selection
/// rule, the tiled programs' kernel state, and the row-chunk geometry the
/// row-chunk builder and its IR model share.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ttsim/common/check.hpp"
#include "ttsim/common/units.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/ttmetal/program.hpp"

namespace ttsim::core::detail {

/// Circular-buffer ids of the tiled Section-IV programs (tt-metal
/// convention: inputs 0..7, intermediates 8..15, outputs 16..23).
inline constexpr int kCbIn0 = 0;   // x-1 tile
inline constexpr int kCbIn1 = 1;   // x+1 tile
inline constexpr int kCbIn2 = 2;   // y-1 tile
inline constexpr int kCbIn3 = 3;   // y+1 tile
inline constexpr int kCbScalar = 4;
inline constexpr int kCbInter = 5;
inline constexpr int kCbOut = 16;
inline constexpr int kIterationBarrier = 0;

inline constexpr std::uint32_t kTile = 32;          // 32x32 BF16 batches
inline constexpr std::uint32_t kTileBytes = 2048;   // 1024 elems

/// One core's share of the interior: rows [row_lo, row_hi), cols
/// [col_lo, col_hi).
struct CoreRange {
  std::uint32_t row_lo, row_hi, col_lo, col_hi;
};

/// The Section-IV strategies (kInitial / kWriteOptimised / kDoubleBuffered):
/// 32x32 batches, hand-wired programs the dataflow IR does not model.
inline bool is_tiled(DeviceStrategy s) {
  return s != DeviceStrategy::kRowChunk && s != DeviceStrategy::kSramResident &&
         s != DeviceStrategy::kTemporal;
}

/// Slab strategies hold whole rows in L1: Y-only decompositions.
inline bool is_slab(DeviceStrategy s) {
  return s == DeviceStrategy::kSramResident || s == DeviceStrategy::kTemporal;
}

/// What a launch config is validated for; each surface admits a subset of
/// the strategies.
enum class Surface {
  kSolve,      ///< a single Jacobi solve: every strategy
  kCertified,  ///< a lowering the dataflow IR models: row-chunk, SRAM, temporal
  kBatch,      ///< one slot of a batched launch: row-chunk or temporal
};

/// The one launch-config check, shared by every solve, batch, IR and
/// admission entry point: strategy eligibility for `surface`, iterations
/// >= 1, read_ahead in [2, 64], temporal_depth in [1, 8] (kTemporal),
/// cores_x == 1 and the SRAM-slab width rule (slab strategies), the tiled
/// 32-divisibility rule, toggles only on tiled strategies, and a
/// decomposition of `geometry` that needs at most `workers` cores (0: no
/// device to check against). Throws ApiError naming the violation.
void validate_launch(const JacobiProblem& geometry, const DeviceRunConfig& cfg,
                     Surface surface, int workers);

/// Balanced 2-D decomposition. Columns split evenly (width must divide by
/// cores_x into multiples of `col_align`); rows split as evenly as possible.
std::vector<CoreRange> decompose(const JacobiProblem& p, int cores_x, int cores_y,
                                 std::uint32_t col_align);

/// Resolved launch grid after graceful degradation: when the fault plan has
/// killed workers, the requested decomposition shrinks onto the survivors
/// (Y first — row splits carry no alignment constraints — then X, keeping
/// the width divisible) and logical positions map onto surviving worker ids.
struct CoreSelection {
  int cores_x = 1;
  int cores_y = 1;
  std::vector<int> core_ids;
  int ncores() const { return cores_x * cores_y; }
};

CoreSelection select_cores(ttmetal::Device& device, const JacobiProblem& p,
                           const DeviceRunConfig& cfg);

/// The requested grid with the identity worker mapping (no degradation):
/// what batched slots and IR graphs are resolved on. Every single-device
/// solve launches on select_cores instead.
inline CoreSelection requested_cores(const DeviceRunConfig& cfg) {
  return CoreSelection{cfg.cores_x, cfg.cores_y, {}};
}

/// Grid BufferConfig for the run's buffer-layout choice (FieldGrids
/// allocates every solver's grids with it).
ttmetal::BufferConfig grid_buffer_config(const DeviceRunConfig& cfg,
                                         const PaddedLayout& layout);

/// A resolved tiled Section-IV launch: what the tiled kernels share by
/// reference across their lambdas.
struct KernelShared {
  std::uint64_t d1 = 0;  ///< device address of grid buffer 1
  std::uint64_t d2 = 0;  ///< device address of grid buffer 2
  PaddedLayout layout;
  int iterations = 0;
  DeviceStrategy strategy = DeviceStrategy::kInitial;
  ComponentToggles toggles;
  std::vector<CoreRange> ranges;
  /// Physical worker ids: logical position i (= index into `ranges`) runs on
  /// worker core_ids[i]. Empty means the identity mapping. Graceful
  /// degradation routes around failed cores by listing survivors here —
  /// kernels keep addressing neighbours by *position* and the builders
  /// translate to physical ids.
  std::vector<int> core_ids;

  KernelShared(const PaddedLayout& l) : layout(l) {}

  /// Resolved physical worker list (identity fallback).
  std::vector<int> workers() const {
    if (!core_ids.empty()) return core_ids;
    std::vector<int> ids(ranges.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    return ids;
  }
};

/// The (problem, config) -> kernel-state step of the tiled programs:
/// `p.iterations` sweeps over grids `d1`/`d2`, decomposed onto `sel`.
std::shared_ptr<KernelShared> resolve_tiled(const JacobiProblem& p,
                                            const DeviceRunConfig& cfg,
                                            const CoreSelection& sel,
                                            std::uint64_t d1, std::uint64_t d2);

/// Bit-exact comparison of a device solution against the BF16 CPU
/// reference.
bool matches_reference(const JacobiProblem& p, const std::vector<float>& solution);

/// Bytes of one row-chunk slot: chunk + 2 halo elements, plus up to 32
/// alignment-prefix bytes.
inline std::uint32_t slot_bytes(std::uint32_t chunk) {
  return static_cast<std::uint32_t>(align_up((chunk + 2) * 2 + 32, 64));
}

/// Largest chunk that tiles a strip exactly and keeps writes aligned
/// (multiple of 16 elements). X-decompositions whose strips don't divide
/// by 1024 thus run with narrower chunks — wasting FPU lanes, which is the
/// cost the paper's Table VIII shows for cores-in-X scaling.
inline std::uint32_t chunk_width(std::uint32_t strip, std::uint32_t chunk_elems) {
  std::uint32_t chunk = std::min(chunk_elems, strip);
  while (chunk > 16 && (strip % chunk != 0 || chunk % 16 != 0)) --chunk;
  TTSIM_CHECK_MSG(strip % chunk == 0 && chunk % 16 == 0,
                  "no valid chunk width for strip " << strip);
  return chunk;
}

/// Widest chunk any core uses: the row-slot size every core's buffer is
/// allocated for.
inline std::uint32_t max_chunk(const std::vector<CoreRange>& ranges,
                               std::uint32_t chunk_elems) {
  std::uint32_t widest = 16;
  for (const auto& rg : ranges) {
    widest = std::max(widest, std::min(chunk_elems, rg.col_hi - rg.col_lo));
  }
  return widest;
}

/// One core's row-chunk geometry and its continuous slot rotation.
struct ChunkGrid {
  CoreRange rg;
  std::uint32_t chunk;   ///< elements per batch
  std::uint32_t ncols;   ///< column strips of `chunk` elements
  std::uint32_t nrows;
  std::uint32_t nslots;  ///< row-slot rotation length

  ChunkGrid(const CoreRange& r, std::uint32_t chunk_elems, std::uint32_t slots)
      : rg(r),
        chunk(chunk_width(r.col_hi - r.col_lo, chunk_elems)),
        ncols((r.col_hi - r.col_lo) / chunk),
        nrows(r.row_hi - r.row_lo),
        nslots(slots) {}
  /// Slot index for input row y of column strip `col`. The rotation runs
  /// continuously across column strips (each strip touches nrows+2 rows:
  /// the strip plus one halo row per side), so the first rows of a new
  /// column take the slots *after* the previous column's tail instead of
  /// wrapping back onto slots its in-flight batches may still reference.
  std::uint32_t slot_of(std::uint32_t col, std::int64_t y) const {
    const std::int64_t t =
        static_cast<std::int64_t>(col) * (nrows + 2) +
        (y - (static_cast<std::int64_t>(rg.row_lo) - 1));
    return static_cast<std::uint32_t>(t % nslots);
  }
};

/// Slot ring of the row-chunk program at read-ahead depth N: 2N+3 slots
/// plus `extra` = 2*ceil(N/nrows_min). The rotation (ChunkGrid::slot_of)
/// runs continuously across column strips, so a column's first rows take
/// the slots after the previous column's tail instead of wrapping onto
/// slots its in-flight batches may still reference. Every read issue is
/// gated behind a CB reserve (batch 0's window is issued only after its
/// reserve), and a reserve for batch j proves only that batch j-N was
/// popped, so at most N batches are reserved-but-unpopped: the newest
/// issued row is at most 2N rows past the oldest row a pending batch still
/// reads, plus 2 halo rows for every column boundary inside that window
/// (a strip touches its rows plus one halo row per side). A window of N
/// batches crosses at most ceil(N/nrows_min) boundaries, which matters
/// when the decomposition leaves fewer rows per core than the read-ahead
/// depth (a pinned conformance corner runs one row per core at depth 8).
/// No two live rows ever share a slot, so no drain or timing assumption is
/// needed at any depth. Reads are tagged per slot, and a tag is reusable
/// by the time its slot is: a row's read is waited by the first batch that
/// needs it, and its slot is reissued only after every batch that reads it
/// was popped. Field f of the `tagged_fields` a program streams tags
/// f*nslots + slot, so the ring throws ApiError when those tags overflow a
/// data mover's ttmetal::kMaxReadTags.
struct SlotRing {
  std::uint32_t nslots;
  std::uint32_t extra;
};
inline SlotRing general_slot_ring(std::uint32_t depth,
                                  const std::vector<CoreRange>& ranges,
                                  int tagged_fields) {
  std::uint32_t nrows_min = UINT32_MAX;
  for (const auto& rg : ranges) nrows_min = std::min(nrows_min, rg.row_hi - rg.row_lo);
  nrows_min = std::max(nrows_min, 1u);
  const std::uint32_t extra = 2 * ((depth + nrows_min - 1) / nrows_min);
  const SlotRing ring{2 * depth + 3 + extra, extra};
  const std::int64_t tags = static_cast<std::int64_t>(tagged_fields) * ring.nslots;
  if (tags > ttmetal::kMaxReadTags) {
    TTSIM_THROW_API("read_ahead " << depth << " needs " << ring.nslots
                    << " row slots per streamed field (" << nrows_min
                    << " rows on the smallest core strip), and "
                    << tagged_fields << " streamed field(s) need " << tags
                    << " read tags; a data mover has " << ttmetal::kMaxReadTags
                    << ". Lower read_ahead or give each core more rows");
  }
  return ring;
}

/// Bytes per L1 slab row of the SRAM-resident and temporal programs (see
/// SlabRows): a 32-byte alignment prefix plus the row's W+2 elements, with
/// room for the FPU tile spill past the interior (a full 1024-element pack
/// never writes into the next row).
inline std::uint32_t slab_row_stride(std::uint32_t width) {
  const std::uint32_t data_span = std::max<std::uint32_t>(width + 2, 1026) * 2;
  return static_cast<std::uint32_t>(align_up(32 + data_span, 32));
}

/// L1 slab budget per core of the temporal program: the e150's 1 MiB minus
/// a reserve for the CBs, the weight table and program scratch.
inline constexpr std::uint32_t kSlabBudget = (1u << 20) - 96 * 1024;

/// Section IV program (kInitial / kWriteOptimised / kDoubleBuffered).
void build_tiled_program(ttmetal::Program& prog, std::shared_ptr<KernelShared> sh);

/// Fill a reserved CB page with 1024 copies of `value` (the cb_scalar trick).
void fill_scalar_page(ttmetal::KernelCtxBase& ctx, int cb_id, float value);

}  // namespace ttsim::core::detail
