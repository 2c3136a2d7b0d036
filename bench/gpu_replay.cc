#include "gpu_replay.h"

#include <algorithm>
#include <vector>

#include "abea/abea.h"
#include "core/kernels.h"
#include "nn/bonito.h"

namespace gb::bench {

SimtStats
replayAbeaGpu(const Benchmark& abea, SimtModel& simt)
{
    const AbeaInput input = abeaInput(abea);
    const u64 num_reads = input.reads.size();

    AbeaParams params;
    params.record_bands = true;
    const u32 w = params.bandwidth;           // 100
    const u32 threads = roundUp(w, 32u);      // 128, 4 warps
    const u32 warps = threads / 32;

    // f5c keeps three float band rows (padded), the trace tile and an
    // event cache in shared memory: ~18 KB/block, which limits
    // occupancy exactly as the paper observes (31.4 %). The real tool
    // launches one block per read over batches of >= 512 reads; lane
    // statistics below are replayed from a sample of those reads.
    const u64 shared_per_block = 18 * 1024;
    simt.launch(std::max<u64>(num_reads, 512), threads,
                shared_per_block, /*regs=*/32);

    for (u64 r = 0; r < num_reads; ++r) {
        const AbeaRead& read = input.reads[r];
        const auto result =
            alignEvents(read.events, input.model, read.ref, params);
        if (!result.valid) continue;

        // Synthetic global-memory base addresses for this block.
        const u64 model_base = 0x10'0000;
        const u64 event_base = 0x80'0000 + r * 0x4'0000;
        const u64 band_base = 0x200'0000 + r * 0x8'0000;

        std::vector<u64> lane_addrs;
        for (size_t b = 0; b < result.band_ranges.size(); ++b) {
            const auto [lo, hi] = result.band_ranges[b];
            if (lo == hi) continue;
            // Uniform band-move decision: no divergence (the paper
            // measures 100 % branch efficiency; in-band boundary
            // tests compile to predication).
            simt.branch(false);

            for (u32 warp = 0; warp < warps; ++warp) {
                const u32 first = warp * 32;
                // Lanes with offset < W participate; beyond W the
                // threads exited at the top of the kernel.
                const u32 active =
                    first < w ? std::min(32u, w - first) : 0;
                if (active == 0) continue;
                // Of those, lanes outside [lo, hi) are predicated off.
                u32 in_range = 0;
                lane_addrs.clear();
                std::vector<u64> event_addrs;
                std::vector<u64> band_addrs;
                u64 h = (r << 20) ^ (b << 8);
                for (u32 lane = 0; lane < active; ++lane) {
                    const u32 offset = first + lane;
                    if (offset < lo || offset >= hi) continue;
                    ++in_range;
                    // Model gather: random rank, 8 B entries.
                    const u64 rank = splitMix64(h) & 4095;
                    lane_addrs.push_back(model_base + rank * 8);
                    // Event load: 32 B AoS structs, consecutive
                    // indices -> one segment per lane.
                    event_addrs.push_back(event_base +
                                          (b + offset) * 32);
                    // Band cell loads: contiguous floats.
                    band_addrs.push_back(band_base + offset * 4);
                }
                // The cell-update bundle: ~6 instructions per cell
                // (emission, three adds, two max/selects).
                simt.steps(6, active, active - in_range);
                if (!lane_addrs.empty()) {
                    simt.memAccess(lane_addrs, 8, false);   // model
                    simt.memAccess(event_addrs, 4, false);  // ev.mean
                    simt.memAccess(band_addrs, 4, false);   // up
                    simt.memAccess(band_addrs, 4, false);   // diag
                    // Band store (rows are 400 B apart: misaligned)
                    // and the 1 B trace store.
                    for (auto& a : band_addrs) a += b % 2 ? 400 : 0;
                    simt.memAccess(band_addrs, 4, true);
                    // Trace entries: 12 B packed alignment records
                    // (event idx, k-mer idx, move), written per cell.
                    std::vector<u64> trace_addrs;
                    for (size_t i = 0; i < band_addrs.size(); ++i) {
                        trace_addrs.push_back(
                            band_base + 0x4000 +
                            (b * w + first + i) * 12);
                    }
                    simt.memAccess(trace_addrs, 8, true);
                }
            }
        }
    }
    return simt.stats();
}

SimtStats
replayNnBaseGpu(const Benchmark& nn_base, SimtModel& simt)
{
    const u64 num_chunks = nnBaseChunks(nn_base).size();
    const BonitoModel model;

    u32 t = model.config().chunk_size;
    for (const Conv1d& layer : model.layers()) {
        const u32 t_out = ceilDiv(t, layer.stride());
        // Launch: 128-thread blocks over output frames; weights live
        // in shared memory (2-6 KB), registers bound occupancy at
        // ~88 % as on the Titan Xp. Production basecalling batches
        // thousands of chunks per launch; lane statistics are
        // replayed from a sample.
        simt.launch(std::max<u64>(num_chunks, 4096) *
                        ceilDiv(t_out, 128u),
                    128, 4 * 1024, /*regs=*/36);

        const u64 macs_per_frame = layer.macsPerFrame();
        const u64 frame_groups = t_out / 32;
        const u32 tail = t_out % 32;
        // Full groups: perfectly uniform warps (one MAC bundle per
        // lane per step).
        simt.steps(num_chunks * frame_groups * macs_per_frame, 32, 0);
        if (tail) {
            // Tail group: all 32 lanes issue, t_out%32 do real work —
            // the small predication loss the paper attributes to
            // filter sizes not being multiples of 32.
            simt.steps(num_chunks * macs_per_frame, 32, 32 - tail);
        }
        simt.branch(false); // loop bounds are uniform per warp

        // Activation loads in [C][T] layout: lane i reads frame
        // t0 + i*stride -> stride 4*stride bytes between lanes.
        // Sampled: ratios are what matter.
        const u64 samples = std::min<u64>(frame_groups, 64);
        std::vector<u64> lane_addrs(32);
        for (u64 s = 0; s < samples; ++s) {
            for (u32 lane = 0; lane < 32; ++lane) {
                lane_addrs[lane] =
                    0x1000'0000 + s * 0x1000 +
                    static_cast<u64>(lane) * 4 * layer.stride();
            }
            // Weighted by taps x channel rows handled per group.
            const u64 weight = std::max<u64>(
                1, macs_per_frame / layer.outChannels() / 4);
            for (u64 rep = 0; rep < weight; ++rep) {
                simt.memAccess(lane_addrs, 4, false);
            }
            // Output store: consecutive frames.
            for (u32 lane = 0; lane < 32; ++lane) {
                lane_addrs[lane] =
                    0x2000'0000 + s * 0x1000 +
                    static_cast<u64>(lane) * 4;
            }
            simt.memAccess(lane_addrs, 4, true);
        }
        t = t_out;
    }
    return simt.stats();
}

} // namespace gb::bench
