/**
 * @file
 * The fmi kernel driver: SMEM search of short reads against an
 * FM-indexed reference (BWA-MEM2's seeding stage).
 *
 * Paper datasets: 1M / 10M human 151 bp reads against GRCh38. Here:
 * synthetic genome + simulated reads at matching read length, scaled
 * so the large set runs in minutes on one core.
 */
#include "core/kernels.h"

#include "index/fm_index.h"
#include "io/dna.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "util/hash.h"

namespace gb {

namespace {

class FmiKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "fmi",   "BWA-MEM2",
            "FM-index backward search", "read",
            "occ-table lookups", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // The paper's index is ~10 GB. Ours holds 8/32 MB of occ
        // lines (1 byte per symbol) at small/large against an 8 MB
        // modelled LLC: large is the paper's irregular-miss regime,
        // while small's occ lines just fit the modelled LLC.
        const u64 genome_len =
            sizesFor(size, 100'000, 4'000'000, 16'000'000);
        const u64 num_reads = sizesFor(size, 200, 20'000, 100'000);
        // Everything below is a pure function of (genome_len,
        // num_reads) and the fixed seeds, so the whole prepared state
        // — index and encoded reads — is cacheable under that key.
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("fmi/v3")
                            .mix(genome_len)
                            .mix(num_reads)
                            .mix(101)
                            .mix(102)
                            .mix(103)
                            .value();
        // fetchOrBuild: under concurrent prepares of the same key
        // (gb::serve), one caller generates, the rest block then load.
        cache.fetchOrBuild(
            "fmi", key,
            [&](const auto& reader) {
                fm_ = std::make_unique<FmIndex>(
                    store::viewFmIndex(reader));
                reads_ = store::readRows<u8>(*reader, "reads");
            },
            [&] {
                GenomeParams gp;
                gp.length = genome_len;
                gp.seed = 101;
                const Genome genome = generateGenome(gp);
                fm_ = std::make_unique<FmIndex>(
                    FmIndex::build(genome.seq));

                VariantParams vp;
                vp.seed = 102;
                const SampleGenome sample =
                    injectVariants(genome.seq, vp);
                ShortReadParams rp;
                rp.seed = 103;
                rp.coverage = static_cast<double>(num_reads) *
                              rp.read_len /
                              static_cast<double>(sample.seq.size());
                reads_.clear();
                simulateShortReads(sample.seq, rp, [&](SimRead&& read) {
                    reads_.push_back(encodeDna(read.record.seq));
                });

                cache.write(
                    "fmi", key, [&](store::StoreWriter& writer) {
                        store::addFmIndex(writer, *fm_);
                        store::addRows<u8>(writer, "reads", reads_);
                    });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(
            reads_.size(),
            [&](u64 i) {
                NullProbe probe;
                std::vector<Smem> mems;
                fm_->smems(std::span<const u8>(reads_[i]), kMinSeedLen,
                           mems, probe);
            },
            16);
        return reads_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& read : reads_) {
            std::vector<Smem> mems;
            fm_->smems(std::span<const u8>(read), kMinSeedLen, mems,
                       probe);
        }
        return reads_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(reads_.size());
        for (const auto& read : reads_) {
            CharProbe probe;
            std::vector<Smem> mems;
            fm_->smems(std::span<const u8>(read), kMinSeedLen, mems,
                       probe);
            // Each occAll() loads one 64-byte occ line.
            work.push_back(probe.counts()[OpClass::kLoad]);
        }
        return work;
    }

  private:
    static constexpr i32 kMinSeedLen = 19;

    std::unique_ptr<FmIndex> fm_;
    std::vector<std::vector<u8>> reads_;
};

} // namespace

std::unique_ptr<Benchmark>
makeFmiKernel()
{
    return std::make_unique<FmiKernel>();
}

} // namespace gb
