/**
 * @file
 * k-mer counting — the kmer-cnt kernel.
 *
 * Models the k-mer counting stage of the Flye assembler: every k-mer of
 * every read is inserted into a large open-addressing hash table with a
 * small (2-byte) saturating counter. The table is laid out
 * structure-of-arrays, so each counter update touches a 2-byte value in
 * a 64-byte line — the "1-2 byte counter updated for every 64 bytes
 * read from memory" behaviour behind the paper's 484 BPKI / 86.6 %
 * memory-bound measurements for kmer-cnt.
 *
 * Two probing schemes are provided for the ablation bench the paper's
 * discussion motivates ("cache-friendly hashing techniques like robin
 * hood hashing"): classic linear probing and robin-hood probing.
 */
#ifndef GB_KMER_KMER_COUNTER_H
#define GB_KMER_KMER_COUNTER_H

#include <span>
#include <string_view>
#include <vector>

#include "arch/probe.h"
#include "util/common.h"

namespace gb {

class ThreadPool;

/** Pack the canonical form (min of k-mer and its reverse complement). */
u64 canonicalKmer(u64 kmer, u32 k);

/** Reverse complement of a packed 2-bit k-mer. */
u64 revcompKmer(u64 kmer, u32 k);

/**
 * Enumerate packed k-mers of an encoded sequence, skipping windows
 * containing ambiguous bases.
 *
 * @param codes 2-bit codes with >= 4 marking ambiguous bases.
 * @param k     k-mer length, 1..31.
 * @param fn    Callback fn(u64 kmer, u64 position).
 */
template <typename Fn>
void
forEachKmer(std::span<const u8> codes, u32 k, Fn&& fn)
{
    const u64 mask = k < 32 ? (u64{1} << (2 * k)) - 1 : ~u64{0};
    u64 kmer = 0;
    u32 filled = 0;
    for (u64 i = 0; i < codes.size(); ++i) {
        if (codes[i] >= 4) {
            filled = 0;
            kmer = 0;
            continue;
        }
        kmer = ((kmer << 2) | codes[i]) & mask;
        if (++filled >= k) fn(kmer, i + 1 - k);
    }
}

/** Probing scheme for the counting table. */
enum class HashScheme { kLinear, kRobinHood };

/**
 * Fixed-capacity open-addressing counting hash table.
 *
 * Capacity must be a power of two and is fixed at construction (the
 * real tools pre-size from the genome size); insertion throws
 * InternalError if the table overflows 95 % load.
 */
class KmerCounter
{
  public:
    static constexpr u64 kEmpty = ~u64{0};
    static constexpr u16 kMaxCount = 0xffff;

    /**
     * @param capacity_log2 Table holds 2^capacity_log2 slots.
     * @param scheme        Probing scheme.
     */
    explicit KmerCounter(u32 capacity_log2,
                         HashScheme scheme = HashScheme::kRobinHood);

    /** Increment the count of `kmer` (saturating at 65535). */
    template <typename Probe>
    void
    add(u64 kmer, Probe& probe)
    {
        if (scheme_ == HashScheme::kRobinHood) {
            addRobinHood(kmer, probe);
        } else {
            addLinear(kmer, probe);
        }
    }

    /** Current count of `kmer` (0 if absent). */
    u16 count(u64 kmer) const;

    /** Default prefetch distance for addBatch (see docs/mlp.md). */
    static constexpr u32 kDefaultLookahead = 8;

    /**
     * Prefetch-pipelined bulk insertion: insert kmers in order while
     * running `lookahead` entries ahead of the insertion point and
     * prefetching each upcoming ideal slot, so the DRAM latency of one
     * insert overlaps the hashing/compare work of the next ones (the
     * optimization the paper proposes for kmer-cnt: "the k-mers to be
     * inserted into the hash table are known a priori").
     *
     * Table contents and probe traffic are identical to calling add()
     * in a loop — prefetches are hints, invisible to the model. A
     * lookahead of 0 disables prefetching (the kmer-prefetch
     * ablation's baseline).
     */
    template <typename Probe>
    void
    addBatch(std::span<const u64> kmers, Probe& probe,
             u32 lookahead = kDefaultLookahead)
    {
        const size_t n = kmers.size();
        for (size_t i = 0; i < n; ++i) {
            if (lookahead != 0 && i + lookahead < n) {
                prefetch(kmers[i + lookahead]);
            }
            add(kmers[i], probe);
        }
    }

    /** Prefetch the ideal slot of `kmer` into the cache hierarchy. */
    void
    prefetch(u64 kmer) const
    {
        const u64 slot = slotOf(kmer);
#if defined(__GNUC__)
        __builtin_prefetch(&keys_[slot], 1 /*write*/, 1);
        __builtin_prefetch(&counts_[slot], 1, 1);
#endif
    }

    u64 capacity() const { return keys_.size(); }
    u64 size() const { return occupied_; }
    double loadFactor() const
    {
        return static_cast<double>(occupied_) /
               static_cast<double>(keys_.size());
    }

    /** Total probe steps over all insertions (locality metric). */
    u64 probeSteps() const { return probe_steps_; }

    /** Mean and maximum resident displacement from the ideal slot. */
    struct DisplacementStats
    {
        double mean;
        u64 max;
    };
    DisplacementStats displacementStats() const;

    /** Visit every occupied slot: fn(kmer, count). */
    template <typename Fn>
    void
    forEachEntry(Fn&& fn) const
    {
        for (u64 i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty) fn(keys_[i], counts_[i]);
        }
    }

    /** Number of distinct k-mers with count >= threshold. */
    u64 solidKmers(u16 threshold) const;

  private:
    template <typename Probe>
    void addLinear(u64 kmer, Probe& probe);
    template <typename Probe>
    void addRobinHood(u64 kmer, Probe& probe);

    u64 slotOf(u64 kmer) const
    {
        u64 h = kmer * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
        return h & mask_;
    }

    /** Displacement of the key in slot i from its ideal slot. */
    u64
    displacement(u64 slot) const
    {
        const u64 ideal = slotOf(keys_[slot]);
        return (slot - ideal) & mask_;
    }

    void checkLoad();

    HashScheme scheme_;
    u64 mask_;
    u64 occupied_ = 0;
    u64 probe_steps_ = 0;
    std::vector<u64> keys_;   // SoA: keys and counts in separate lines
    std::vector<u16> counts_;
};

/** Aggregate result of the counting kernel. */
struct KmerCountStats
{
    u64 total_kmers = 0;     ///< insertions performed
    u64 distinct_kmers = 0;
    u64 probe_steps = 0;
};

/**
 * Count the canonical k-mers of all reads into one table.
 *
 * Each read's canonical k-mers are staged into a window and inserted
 * through KmerCounter::addBatch, so the counting loop overlaps the
 * DRAM latency of one insert with the hashing of the next ones. Counts
 * and modeled probe traffic do not depend on `lookahead`.
 *
 * @param reads     Encoded reads.
 * @param k         k-mer size (Flye uses 17 by default for counting).
 * @param counter   Pre-sized table.
 * @param lookahead addBatch prefetch distance; 0 disables prefetching.
 */
template <typename Probe>
KmerCountStats
countKmers(std::span<const std::vector<u8>> reads, u32 k,
           KmerCounter& counter, Probe& probe,
           u32 lookahead = KmerCounter::kDefaultLookahead)
{
    KmerCountStats stats;
    std::vector<u64> window;
    window.reserve(4096);
    for (const auto& read : reads) {
        window.clear();
        forEachKmer(std::span<const u8>(read), k,
                    [&](u64 kmer, u64) {
                        probe.op(OpClass::kIntAlu, 6); // roll + canon
                        window.push_back(canonicalKmer(kmer, k));
                    });
        counter.addBatch(window, probe, lookahead);
        stats.total_kmers += window.size();
    }
    stats.distinct_kmers = counter.size();
    stats.probe_steps = counter.probeSteps();
    return stats;
}

/**
 * The kmer-cnt kernel's parallel pass: count the canonical k-mers of
 * all reads into P = pool.numThreads() hash-partitioned robin-hood
 * tables.
 *
 * A canonical k-mer's partition is a hash of it that shares no bits
 * with the table's slot hash. Each partition has exactly one owner,
 * which scans every read and inserts only its own k-mers, so no table
 * is shared and nothing is merged: the union of the returned tables'
 * (kmer, count) entries equals countKmers() into one table. Each table
 * has 2^(capacity_log2 - floor(log2 P)) slots, so a partition's
 * expected load is at most the single table's.
 */
std::vector<KmerCounter> countKmersPartitioned(
    std::span<const std::vector<u8>> reads, u32 k, u32 capacity_log2,
    ThreadPool& pool);

// ---------------------------------------------------------------------
// Template member definitions.

template <typename Probe>
void
KmerCounter::addLinear(u64 kmer, Probe& probe)
{
    u64 slot = slotOf(kmer);
    probe.op(OpClass::kIntAlu, 3); // hash
    for (;;) {
        ++probe_steps_;
        probe.load(&keys_[slot], 8);
        if (keys_[slot] == kmer) {
            probe.load(&counts_[slot], 2);
            if (counts_[slot] < kMaxCount) ++counts_[slot];
            probe.store(&counts_[slot], 2);
            return;
        }
        if (keys_[slot] == kEmpty) {
            keys_[slot] = kmer;
            counts_[slot] = 1;
            probe.store(&keys_[slot], 8);
            probe.store(&counts_[slot], 2);
            ++occupied_;
            checkLoad();
            return;
        }
        probe.branch(10, true);
        slot = (slot + 1) & mask_;
    }
}

template <typename Probe>
void
KmerCounter::addRobinHood(u64 kmer, Probe& probe)
{
    u64 slot = slotOf(kmer);
    probe.op(OpClass::kIntAlu, 3);
    u64 dist = 0;
    u64 key = kmer;
    u16 cnt = 1;
    bool carrying_original = true;

    for (;;) {
        ++probe_steps_;
        probe.load(&keys_[slot], 8);
        if (keys_[slot] == kEmpty) {
            keys_[slot] = key;
            counts_[slot] = cnt;
            probe.store(&keys_[slot], 8);
            probe.store(&counts_[slot], 2);
            ++occupied_;
            checkLoad();
            return;
        }
        if (carrying_original && keys_[slot] == key) {
            probe.load(&counts_[slot], 2);
            if (counts_[slot] < kMaxCount) ++counts_[slot];
            probe.store(&counts_[slot], 2);
            return;
        }
        // Robin hood: steal the slot from a richer (less displaced)
        // resident and continue inserting the evicted entry.
        const u64 resident_dist = displacement(slot);
        probe.op(OpClass::kIntAlu, 4);
        probe.branch(11, resident_dist < dist);
        if (resident_dist < dist) {
            std::swap(keys_[slot], key);
            std::swap(counts_[slot], cnt);
            probe.store(&keys_[slot], 8);
            probe.store(&counts_[slot], 2);
            dist = resident_dist;
            carrying_original = false;
        }
        slot = (slot + 1) & mask_;
        ++dist;
    }
}

} // namespace gb

#endif // GB_KMER_KMER_COUNTER_H
