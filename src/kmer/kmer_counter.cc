#include "kmer/kmer_counter.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "util/thread_pool.h"

namespace gb {

u64
revcompKmer(u64 kmer, u32 k)
{
    // Complement: A<->T (00<->11), C<->G (01<->10) == bitwise NOT.
    u64 x = ~kmer;
    // Reverse the 2-bit groups of the full 64-bit word.
    x = ((x & 0x3333333333333333ULL) << 2) |
        ((x >> 2) & 0x3333333333333333ULL);
    x = ((x & 0x0f0f0f0f0f0f0f0fULL) << 4) |
        ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL);
    x = ((x & 0x00ff00ff00ff00ffULL) << 8) |
        ((x >> 8) & 0x00ff00ff00ff00ffULL);
    x = ((x & 0x0000ffff0000ffffULL) << 16) |
        ((x >> 16) & 0x0000ffff0000ffffULL);
    x = (x << 32) | (x >> 32);
    return x >> (64 - 2 * k);
}

u64
canonicalKmer(u64 kmer, u32 k)
{
    const u64 rc = revcompKmer(kmer, k);
    return kmer < rc ? kmer : rc;
}

KmerCounter::KmerCounter(u32 capacity_log2, HashScheme scheme)
    : scheme_(scheme)
{
    requireInput(capacity_log2 >= 4 && capacity_log2 <= 34,
                 "kmer counter capacity_log2 must be in [4, 34]");
    const u64 capacity = u64{1} << capacity_log2;
    mask_ = capacity - 1;
    keys_.assign(capacity, kEmpty);
    counts_.assign(capacity, 0);
}

void
KmerCounter::checkLoad()
{
    if (loadFactor() > 0.95) {
        throw InternalError(
            "kmer counter overflow: table sized too small for input");
    }
}

u16
KmerCounter::count(u64 kmer) const
{
    u64 slot = slotOf(kmer);
    for (;;) {
        if (keys_[slot] == kmer) return counts_[slot];
        if (keys_[slot] == kEmpty) return 0;
        slot = (slot + 1) & mask_;
    }
}

namespace {

/**
 * Partition of a canonical k-mer in [0, parts): the murmur3 64-bit
 * finalizer, range-reduced by its high bits. slotOf() uses a different
 * multiplier and the low bits, so a partition's keys still spread over
 * all of its table's slots.
 */
unsigned
partitionOf(u64 kmer, unsigned parts)
{
    u64 h = kmer;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<unsigned>(
        (static_cast<unsigned __int128>(h) * parts) >> 64);
}

} // namespace

std::vector<KmerCounter>
countKmersPartitioned(std::span<const std::vector<u8>> reads, u32 k,
                      u32 capacity_log2, ThreadPool& pool)
{
    const unsigned parts = pool.numThreads();
    const u32 floor_log2 = static_cast<u32>(std::bit_width(parts)) - 1;
    const u32 part_log2 =
        std::max(capacity_log2, floor_log2 + 4) - floor_log2;
    // Each owner allocates (and so first-touches) its own table.
    std::vector<std::optional<KmerCounter>> tables(parts);
    pool.parallelFor(parts, [&](u64 p) {
        KmerCounter& table =
            tables[p].emplace(part_log2, HashScheme::kRobinHood);
        NullProbe probe;
        std::vector<u64> window;
        window.reserve(4096);
        for (const auto& read : reads) {
            window.clear();
            forEachKmer(std::span<const u8>(read), k,
                        [&](u64 kmer, u64) {
                            const u64 c = canonicalKmer(kmer, k);
                            // One partition takes every k-mer; skipping
                            // the hash saves ~10% of a 1-thread run.
                            if (parts == 1 ||
                                partitionOf(c, parts) == p) {
                                window.push_back(c);
                            }
                        });
            table.addBatch(window, probe);
        }
    });
    std::vector<KmerCounter> out;
    out.reserve(parts);
    for (auto& table : tables) out.push_back(std::move(*table));
    return out;
}

KmerCounter::DisplacementStats
KmerCounter::displacementStats() const
{
    u64 total = 0;
    u64 max = 0;
    u64 occupied = 0;
    for (u64 slot = 0; slot < keys_.size(); ++slot) {
        if (keys_[slot] == kEmpty) continue;
        const u64 d = displacement(slot);
        total += d;
        max = std::max(max, d);
        ++occupied;
    }
    return {occupied ? static_cast<double>(total) /
                           static_cast<double>(occupied)
                     : 0.0,
            max};
}

u64
KmerCounter::solidKmers(u16 threshold) const
{
    u64 n = 0;
    for (u64 i = 0; i < keys_.size(); ++i) {
        if (keys_[i] != kEmpty && counts_[i] >= threshold) ++n;
    }
    return n;
}

} // namespace gb
