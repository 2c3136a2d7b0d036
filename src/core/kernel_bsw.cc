/**
 * @file
 * The bsw kernel driver: banded Smith-Waterman seed extension over
 * length-sorted query/target pairs (BWA-MEM2's extension stage). run()
 * extends each pair with bandedSw(), the anti-diagonal engine, as the
 * pipeline does; GB_SIMD_LEVEL=scalar makes that bandedSwScalar. The
 * lockstep BatchSwAligner models BWA-MEM2's inter-sequence batches for
 * characterize(), and the Fig. 3 bench runs one over these pairs
 * (bswPairs()) for the modelled overwork.
 */
#include "core/kernels.h"

#include <algorithm>

#include "align/banded_sw.h"
#include "io/dna.h"
#include "simdata/genome.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {

namespace {

class BswKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "bsw",  "BWA-MEM2",
            "banded DP, inter-sequence vectorized", "seed",
            "cell updates", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        const u64 num_pairs = sizesFor(size, 200, 20'000, 100'000);
        // The pairs are a pure function of num_pairs, the fixed
        // genome length and the seeds.
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("bsw/v1")
                            .mix(num_pairs)
                            .mix(kGenomeLen)
                            .mix(111)
                            .mix(112)
                            .value();
        cache.fetchOrBuild(
            "bsw", key,
            [&](const auto& reader) {
                auto queries = store::readRows<u8>(*reader, "queries");
                auto targets = store::readRows<u8>(*reader, "targets");
                requireInput(queries.size() == targets.size(),
                             "bsw cache: queries/targets row mismatch");
                queries_ = std::move(queries);
                targets_ = std::move(targets);
                indexPairs();
            },
            [&] {
                generate(num_pairs);
                cache.write("bsw", key, [&](store::StoreWriter& writer) {
                    store::addRows<u8>(writer, "queries", queries_);
                    store::addRows<u8>(writer, "targets", targets_);
                });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(pairs_.size(), [&](u64 i) {
            bandedSw(pairs_[i].query, pairs_[i].target, params_);
        });
        return pairs_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        const BatchSwAligner aligner{params_};
        aligner.align(std::span<const SwPair>(pairs_), probe);
        return pairs_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(pairs_.size());
        for (const auto& pair : pairs_) {
            work.push_back(
                bandedSw(pair.query, pair.target, params_)
                    .cell_updates);
        }
        return work;
    }

    std::span<const SwPair> pairs() const { return pairs_; }

  private:
    static constexpr u64 kGenomeLen = 300'000;

    /** Synthesize the length-sorted pairs (a cache miss). */
    void
    generate(u64 num_pairs)
    {
        GenomeParams gp;
        gp.length = kGenomeLen;
        gp.seed = 111;
        const Genome genome = generateGenome(gp);
        Rng rng(112);

        queries_.clear();
        targets_.clear();
        queries_.reserve(num_pairs);
        targets_.reserve(num_pairs);
        for (u64 i = 0; i < num_pairs; ++i) {
            // Extension pair: query is a mutated genome slice, target
            // the surrounding reference segment. A fraction of pairs
            // are unrelated (triggering early exit, as in real data).
            const bool spurious = rng.chance(0.12);
            // Spurious-seed extensions are long jobs whose divergent
            // tail lets z-drop fire (score must fall > zdrop, which
            // decays ~1/row through gap extension).
            const u64 qlen = spurious ? 260 + rng.below(60)
                                      : 80 + rng.below(72);
            const u64 tlen = qlen + 20 + rng.below(30);
            const u64 pos =
                rng.below(genome.seq.size() - tlen - 1);
            std::string target = genome.seq.substr(pos, tlen);
            std::string query;
            if (spurious) {
                const u64 other =
                    rng.below(genome.seq.size() - qlen - 1);
                query = genome.seq.substr(pos + 10, 60) +
                        genome.seq.substr(other, qlen - 60);
            } else {
                query = genome.seq.substr(pos + 10, qlen);
                for (auto& c : query) {
                    if (rng.chance(0.03)) c = "ACGT"[rng.below(4)];
                }
            }
            queries_.push_back(encodeDna(query));
            targets_.push_back(encodeDna(target));
        }
        // BWA-MEM2 sorts inputs by length before batching.
        std::vector<u32> order(num_pairs);
        for (u32 i = 0; i < num_pairs; ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
            return queries_[a].size() < queries_[b].size();
        });
        std::vector<std::vector<u8>> q2, t2;
        q2.reserve(num_pairs);
        t2.reserve(num_pairs);
        for (u32 i : order) {
            q2.push_back(std::move(queries_[i]));
            t2.push_back(std::move(targets_[i]));
        }
        queries_ = std::move(q2);
        targets_ = std::move(t2);
        // Index while the genome is still allocated: characterize()'s
        // modelled DRAM columns follow heap placement, and bsw's row-
        // miss rate at tiny reads 9.1% instead of 4.5% when pairs_
        // lands where the freed genome was.
        indexPairs();
    }

    void
    indexPairs()
    {
        pairs_.clear();
        for (size_t i = 0; i < queries_.size(); ++i) {
            pairs_.push_back({queries_[i], targets_[i]});
        }
    }

    SwParams params_;
    std::vector<std::vector<u8>> queries_;
    std::vector<std::vector<u8>> targets_;
    std::vector<SwPair> pairs_;
};

} // namespace

std::unique_ptr<Benchmark>
makeBswKernel()
{
    return std::make_unique<BswKernel>();
}

std::span<const SwPair>
bswPairs(const Benchmark& kernel)
{
    const auto* bsw = dynamic_cast<const BswKernel*>(&kernel);
    requireInput(bsw != nullptr, "bswPairs: not bsw");
    return bsw->pairs();
}

} // namespace gb
