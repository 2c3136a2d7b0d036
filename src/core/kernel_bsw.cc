/**
 * @file
 * The bsw kernel driver: banded Smith-Waterman seed extension over
 * batches of query/target pairs (BWA-MEM2's extension stage). run()
 * takes the inter-sequence scheme (simd::bswAlign);
 * GB_SIMD_LEVEL=scalar makes it per-pair bandedSwScalar over the same
 * batches. The lockstep BatchSwAligner model serves only
 * characterize() and the Fig. 3 work accounting.
 */
#include "core/kernels.h"

#include <algorithm>

#include "align/banded_sw.h"
#include "io/dna.h"
#include "simd/bsw_engine.h"
#include "simdata/genome.h"
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
        u64 num_pairs = 200;
        switch (size) {
          case DatasetSize::kTiny:
            break;
          case DatasetSize::kSmall:
            num_pairs = 20'000;
            break;
          case DatasetSize::kLarge:
            num_pairs = 100'000;
            break;
        }
        GenomeParams gp;
        gp.length = 300'000;
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

        pairs_.clear();
        for (u64 i = 0; i < num_pairs; ++i) {
            pairs_.push_back({queries_[i], targets_[i]});
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        const u64 batches = ceilDiv<u64>(pairs_.size(),
                                         BatchSwAligner::kLanes);
        pool.parallelFor(batches, [&](u64 b) {
            const size_t begin = b * BatchSwAligner::kLanes;
            const size_t count = std::min<size_t>(
                BatchSwAligner::kLanes, pairs_.size() - begin);
            const auto batch =
                std::span<const SwPair>(pairs_).subspan(begin, count);
            simd::bswAlign(batch, params_);
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

    /** Lockstep work accounting for the Fig. 3 bench. */
    BatchSwStats
    batchStats() const
    {
        const BatchSwAligner aligner{params_};
        NullProbe probe;
        BatchSwStats stats;
        aligner.align(std::span<const SwPair>(pairs_), probe, &stats);
        return stats;
    }

  private:
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

} // namespace gb
