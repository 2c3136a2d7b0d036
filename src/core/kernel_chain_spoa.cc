/**
 * @file
 * The chain and spoa kernel drivers: long-read overlap chaining
 * (Minimap2) and window consensus (Racon) — the de-novo assembly and
 * polishing kernels.
 */
#include "core/kernels.h"

#include <string_view>
#include <vector>

#include "chain/chain.h"
#include "io/dna.h"
#include "poa/poa.h"
#include "simdata/genome.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {

namespace {

class ChainKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "chain", "Minimap2",
            "1-D DP over anchors", "read",
            "input anchors", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: anchors for 1K / 10K reads, all-vs-self overlap. We
        // synthesize overlapping long-read pairs and precompute their
        // anchors (the kernel input is the anchor list).
        const u64 num_pairs = sizesFor(size, 20, 1000, 10'000);
        // The anchor sets are a pure function of num_pairs, the fixed
        // genome length, the seeds and the noise rates.
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("chain/v1")
                            .mix(num_pairs)
                            .mix(kGenomeLen)
                            .mix(141)
                            .mix(142)
                            .mix(kDeletionRate)
                            .mix(kInsertionRate)
                            .mix(kSubstitutionRate)
                            .value();
        cache.fetchOrBuild(
            "chain", key,
            [&](const auto& reader) {
                anchor_sets_ = store::readRows<Anchor>(*reader, "anchors");
            },
            [&] {
                generate(num_pairs);
                cache.write(
                    "chain", key, [&](store::StoreWriter& writer) {
                        store::addRows<Anchor>(writer, "anchors",
                                               anchor_sets_);
                    });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(anchor_sets_.size(), [&](u64 i) {
            chainAnchors(anchor_sets_[i], params_);
        });
        return anchor_sets_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& anchors : anchor_sets_) {
            chainAnchors(anchors, params_, probe);
        }
        return anchor_sets_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(anchor_sets_.size());
        for (const auto& anchors : anchor_sets_) {
            work.push_back(anchors.size());
        }
        return work;
    }

    std::span<const std::vector<Anchor>>
    anchorSets() const
    {
        return anchor_sets_;
    }

  private:
    static constexpr u64 kGenomeLen = 400'000;
    static constexpr double kDeletionRate = 0.04;
    static constexpr double kInsertionRate = 0.04;
    static constexpr double kSubstitutionRate = 0.03;

    /** Synthesize the read pairs and match their anchors (a cache miss). */
    void
    generate(u64 num_pairs)
    {
        GenomeParams gp;
        gp.length = kGenomeLen;
        gp.seed = 141;
        const Genome genome = generateGenome(gp);
        Rng rng(142);

        anchor_sets_.clear();
        anchor_sets_.reserve(num_pairs);
        const MinimizerParams mp;
        for (u64 i = 0; i < num_pairs; ++i) {
            const u64 len =
                3000 + rng.below(9000); // 3-12 kb reads
            const u64 overlap = len / 2 + rng.below(len / 3);
            const u64 a_pos =
                rng.below(genome.seq.size() - 2 * len);
            const u64 b_pos = a_pos + (len - overlap);

            // A noisy copy of genome[pos, pos + l), encoded directly:
            // 4% deletions, 4% insertions, 3% substitutions.
            auto noisy = [&](u64 pos, u64 l) {
                const std::string_view src =
                    std::string_view(genome.seq).substr(pos, l);
                std::vector<u8> out;
                out.reserve(l + l / 8);
                for (char c : src) {
                    if (rng.chance(kDeletionRate)) continue;
                    if (rng.chance(kInsertionRate)) {
                        out.push_back(static_cast<u8>(rng.below(4)));
                    }
                    out.push_back(rng.chance(kSubstitutionRate)
                                      ? static_cast<u8>(rng.below(4))
                                      : baseCode(c));
                }
                return out;
            };
            const auto a = noisy(a_pos, len);
            const auto b = noisy(b_pos, len);
            const auto ma = extractMinimizers(a, mp);
            const auto mb = extractMinimizers(b, mp);
            anchor_sets_.push_back(matchAnchors(ma, mb, mp.k));
        }
    }

    ChainParams params_;
    std::vector<std::vector<Anchor>> anchor_sets_;
};

class SpoaKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "spoa", "Racon",
            "DP over a partial-order graph", "read chunk window",
            "cell updates", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: 1000 / 6000 consensus tasks from S. aureus polishing.
        const u64 num_windows = sizesFor(size, 5, 200, 1200);
        GenomeParams gp;
        gp.length = std::max<u64>(num_windows * 250, 20'000);
        gp.seed = 151;
        const Genome genome = generateGenome(gp);
        Rng rng(152);

        tasks_.clear();
        tasks_.reserve(num_windows);
        for (u64 w = 0; w < num_windows; ++w) {
            const u64 window_len = 150 + rng.below(150);
            const u64 start =
                rng.below(genome.seq.size() - window_len - 1);
            const std::string truth =
                genome.seq.substr(start, window_len);
            PoaTask task;
            const u64 depth = 8 + rng.below(10);
            for (u64 d = 0; d < depth; ++d) {
                std::string read;
                for (char c : truth) {
                    if (rng.chance(0.04)) continue;
                    if (rng.chance(0.04)) {
                        read += "ACGT"[rng.below(4)];
                    }
                    read += rng.chance(0.03) ? "ACGT"[rng.below(4)]
                                             : c;
                }
                if (read.empty()) read = "A";
                task.reads.push_back(encodeDna(read));
            }
            tasks_.push_back(std::move(task));
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(tasks_.size(), [&](u64 i) {
            poaConsensus(tasks_[i], params_);
        });
        return tasks_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& task : tasks_) {
            poaConsensus(task, params_, probe, nullptr);
        }
        return tasks_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(tasks_.size());
        NullProbe probe;
        for (const auto& task : tasks_) {
            u64 cells = 0;
            poaConsensus(task, params_, probe, &cells);
            work.push_back(cells);
        }
        return work;
    }

  private:
    PoaParams params_;
    std::vector<PoaTask> tasks_;
};

} // namespace

std::unique_ptr<Benchmark>
makeChainKernel()
{
    return std::make_unique<ChainKernel>();
}

std::unique_ptr<Benchmark>
makeSpoaKernel()
{
    return std::make_unique<SpoaKernel>();
}

std::span<const std::vector<Anchor>>
chainAnchorSets(const Benchmark& kernel)
{
    const auto* chain = dynamic_cast<const ChainKernel*>(&kernel);
    requireInput(chain != nullptr, "chainAnchorSets: not chain");
    return chain->anchorSets();
}

} // namespace gb
