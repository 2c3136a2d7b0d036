/**
 * @file
 * GPU execution replays for the abea and nn-base kernels.
 *
 * Substitutes for nvprof on the paper's Titan Xp (DESIGN.md §5): the
 * kernels' real launch structure and per-warp lane activity are
 * replayed through arch::SimtModel, producing the Table IV (control
 * regularity) and Table V (memory efficiency) metrics. Both replays
 * read the kernels' own prepared datasets (core/kernels.h).
 */
#ifndef GB_BENCH_GPU_REPLAY_H
#define GB_BENCH_GPU_REPLAY_H

#include "arch/simt.h"
#include "core/benchmark.h"

namespace gb::bench {

/**
 * Replay the f5c-style ABEA GPU kernel over the prepared abea
 * kernel's pore model and reads: one block per read, 128 threads
 * covering the 100-wide adaptive band, bands streamed through shared
 * memory, pore-model gathers from global memory.
 */
SimtStats replayAbeaGpu(const Benchmark& abea, SimtModel& model);

/**
 * Replay the Bonito-style basecaller over the prepared nn-base
 * kernel's chunks: BonitoModel's convolution layers as dense tiles,
 * 128-thread blocks over output frames, coalesced activations,
 * strided access only in the downsampling layer.
 */
SimtStats replayNnBaseGpu(const Benchmark& nn_base, SimtModel& model);

} // namespace gb::bench

#endif // GB_BENCH_GPU_REPLAY_H
