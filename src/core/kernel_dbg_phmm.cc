/**
 * @file
 * The dbg and phmm kernel drivers: per-region De-Bruijn re-assembly
 * and read-vs-haplotype PairHMM likelihoods (the two halves of the
 * GATK HaplotypeCaller hot path).
 *
 * Regions are synthesized with long-tailed coverage (some regions
 * attract many more reads), reproducing the paper's Fig. 4 imbalance —
 * phmm task work spreads over orders of magnitude.
 */
#include "core/kernels.h"

#include <cmath>

#include "dbg/debruijn.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "simdata/genome.h"
#include "simdata/variants.h"
#include "util/rng.h"

namespace gb {

namespace {

/** Shared region synthesis for the two HaplotypeCaller kernels. */
struct RegionSet
{
    std::vector<AssemblyRegion> regions;
};

RegionSet
makeRegions(u64 num_regions, u64 seed)
{
    GenomeParams gp;
    gp.length = std::max<u64>(num_regions * 600 + 2000, 20'000);
    gp.seed = seed;
    const Genome genome = generateGenome(gp);
    VariantParams vp;
    vp.seed = seed + 1;
    vp.snv_rate = 3e-3;
    const SampleGenome sample = injectVariants(genome.seq, vp);
    Rng rng(seed + 2);

    RegionSet set;
    set.regions.reserve(num_regions);
    for (u64 r = 0; r < num_regions; ++r) {
        const u64 region_len = 300 + rng.below(400);
        const u64 start =
            rng.below(genome.seq.size() - region_len - 200);
        AssemblyRegion region;
        region.reference =
            encodeDna(genome.seq.substr(start, region_len));

        // Long-tailed read depth: log-normal around ~12 reads.
        const u64 depth = static_cast<u64>(
            std::min(400.0, rng.logNormal(2.5, 0.9)));
        for (u64 d = 0; d < depth; ++d) {
            const u64 rlen = 151;
            // Sample-space slice roughly covering the region.
            const u64 lo = start > 80 ? start - 80 : 0;
            const u64 span = region_len + 160 - rlen;
            const u64 pos = lo + rng.below(std::max<u64>(1, span));
            if (pos + rlen >= sample.seq.size()) continue;
            std::string read = sample.seq.substr(pos, rlen);
            for (auto& c : read) {
                if (rng.chance(0.002)) c = "ACGT"[rng.below(4)];
            }
            region.reads.push_back(encodeDna(read));
        }
        set.regions.push_back(std::move(region));
    }
    return set;
}

u64
sizesFor(DatasetSize size, u64 tiny, u64 small, u64 large)
{
    switch (size) {
      case DatasetSize::kTiny: return tiny;
      case DatasetSize::kSmall: return small;
      case DatasetSize::kLarge: return large;
    }
    return tiny;
}

class DbgKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "dbg",    "GATK HC / Platypus",
            "graph construction + hash table", "genome region",
            "hash-table lookups", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        regions_ = makeRegions(sizesFor(size, 10, 500, 2500), 121);
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(regions_.regions.size(), [&](u64 i) {
            DbgStats stats;
            assembleRegion(regions_.regions[i], params_, stats);
        });
        return regions_.regions.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& region : regions_.regions) {
            DbgStats stats;
            assembleRegion(region, params_, stats, probe);
        }
        return regions_.regions.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(regions_.regions.size());
        for (const auto& region : regions_.regions) {
            DbgStats stats;
            NullProbe probe;
            assembleRegion(region, params_, stats, probe);
            work.push_back(stats.hash_lookups);
        }
        return work;
    }

  private:
    DbgParams params_;
    RegionSet regions_;
};

class PhmmKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "phmm", "GATK HC",
            "wavefront DP, FP", "genome region",
            "cell updates", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        const RegionSet set =
            makeRegions(sizesFor(size, 5, 100, 500), 131);
        Rng rng(132);
        tasks_.clear();
        tasks_.reserve(set.regions.size());
        for (const auto& region : set.regions) {
            PhmmTask task;
            // Haplotypes from the real dbg kernel.
            DbgStats stats;
            auto haps = assembleRegion(region, DbgParams{}, stats);
            if (haps.size() > 8) haps.resize(8);
            task.haplotypes = std::move(haps);
            for (const auto& read : region.reads) {
                PhmmRead pr;
                pr.bases = read;
                pr.quals.assign(read.size(), 0);
                for (auto& q : pr.quals) {
                    q = static_cast<u8>(20 + rng.below(21));
                }
                task.reads.push_back(std::move(pr));
            }
            if (!task.reads.empty()) {
                tasks_.push_back(std::move(task));
            }
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(tasks_.size(), [&](u64 i) {
            NullProbe probe;
            runPhmmTask(tasks_[i], params_, probe);
        });
        return tasks_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& task : tasks_) {
            runPhmmTask(task, params_, probe);
        }
        return tasks_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(tasks_.size());
        for (const auto& task : tasks_) {
            work.push_back(task.cellUpdates());
        }
        return work;
    }

  private:
    PhmmParams params_;
    std::vector<PhmmTask> tasks_;
};

} // namespace

std::unique_ptr<Benchmark>
makeDbgKernel()
{
    return std::make_unique<DbgKernel>();
}

std::unique_ptr<Benchmark>
makePhmmKernel()
{
    return std::make_unique<PhmmKernel>();
}

} // namespace gb
