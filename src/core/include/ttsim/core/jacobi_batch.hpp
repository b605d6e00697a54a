#pragma once
/// \file jacobi_batch.hpp
/// Batched Jacobi launches: run several independent same-shape solves in ONE
/// program on disjoint core groups. A batch of B requests pays the 500 µs
/// program-dispatch cost once instead of B times and runs the B kernels in
/// parallel across the grid — the throughput lever the serving layer
/// (src/serve/) builds on. Each group gets its own iteration-barrier id, so
/// groups never synchronise with each other; circular buffers, semaphores
/// and L1 scratch are per-core resources and replicate cleanly across
/// disjoint groups.

#include <cstdint>
#include <vector>

#include "ttsim/core/jacobi_device.hpp"

namespace ttsim::core {

/// One slot of a batched launch: where this request's grids live in device
/// DRAM and which physical workers run it.
struct BatchSlot {
  std::uint64_t d1 = 0;  ///< device address of the slot's grid buffer 1
  std::uint64_t d2 = 0;  ///< device address of the slot's grid buffer 2
  /// Physical worker ids, exactly cfg.cores_x * cfg.cores_y of them;
  /// disjoint from every other slot's.
  std::vector<int> core_ids;
};

/// Build one program that solves `p` independently on every slot (row-chunk
/// or temporal strategy: the serving layer compiles per shape, and both the
/// paper's streaming design and its k-deep temporal variant are worth
/// batching). The slots share the problem
/// shape and run config; slot i writes its result into its own d1/d2 pair
/// with the usual parity (odd iteration counts finish in d2). Throws
/// ApiError on invalid decompositions or overlapping slot core sets.
void build_batched_rowchunk_program(ttmetal::Program& prog, const JacobiProblem& p,
                                    const DeviceRunConfig& cfg,
                                    const std::vector<BatchSlot>& slots);

/// Validate that `p` decomposes onto one batch slot under `cfg` — the exact
/// checks a batched launch applies: the single-solve driver's launch-config
/// check (iterations >= 1, read_ahead in [2, 64], temporal_depth in [1, 8],
/// the slab strategies' cores_x == 1 and width rules, width divisible
/// across cores_x into 16-aligned strips, cores_y <= height) restricted to
/// the row-chunk and temporal strategies. Throws ApiError naming the
/// violation; the serving layer calls this at admission so bad shapes fail
/// fast instead of poisoning a batch.
void validate_batch_request(const JacobiProblem& p, const DeviceRunConfig& cfg);

/// BufferConfig for one slot's grid buffers — the same layout policy
/// run_jacobi_on_device applies to its d1/d2 pair, so a batched slot sees
/// identical DRAM placement behaviour to a standalone solve.
ttmetal::BufferConfig batch_grid_buffer_config(const DeviceRunConfig& cfg,
                                               const JacobiProblem& p);

}  // namespace ttsim::core
