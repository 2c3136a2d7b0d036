/**
 * @file
 * The abea and nn-base kernel drivers: the two signal-domain (GPU in
 * the paper) kernels — adaptive banded event alignment and CNN
 * basecalling.
 */
#include "core/kernels.h"

#include <ranges>

#include "abea/abea.h"
#include "abea/event_detect.h"
#include "nn/bonito.h"
#include "simdata/genome.h"
#include "simdata/pore_model.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {

namespace {

class AbeaKernel final : public Benchmark
{
  public:
    AbeaKernel() : model_(6, 161) {}

    const Info&
    info() const override
    {
        static const Info kInfo{
            "abea", "Nanopolish/f5c",
            "adaptive banded DP, FP32", "read",
            "band cells", false, true};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: 1K / 10K NA12878 fast5 reads vs GRCh38 chr22.
        const u64 num_reads = sizesFor(size, 5, 100, 500);

        // Signal simulation + event detection dominate prepare; both
        // are pure functions of num_reads and the fixed seeds (162/163
        // for genome+placement, 164+r per signal, pore model 6/161).
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("abea/v1")
                            .mix(num_reads)
                            .mix(162)
                            .mix(163)
                            .mix(164)
                            .value();
        cache.fetchOrBuild(
            "abea", key,
            [&](const auto& reader) {
                auto refs =
                    store::readRows<char, std::string>(*reader, "refs");
                auto events =
                    store::readRows<store::StoredEvent, std::vector<Event>>(
                        *reader, "events", store::unpackEvent);
                requireInput(refs.size() == events.size(),
                             "abea cache: refs/events row mismatch");
                reads_.clear();
                reads_.reserve(refs.size());
                for (size_t r = 0; r < refs.size(); ++r) {
                    reads_.push_back(AbeaRead{std::move(refs[r]),
                                              std::move(events[r])});
                }
            },
            [&] {
                GenomeParams gp;
                gp.length = 200'000;
                gp.seed = 162;
                const Genome genome = generateGenome(gp);
                Rng rng(163);

                reads_.clear();
                reads_.reserve(num_reads);
                for (u64 r = 0; r < num_reads; ++r) {
                    const u64 seg_len = 1000 + rng.below(2500);
                    const u64 pos =
                        rng.below(genome.seq.size() - seg_len - 1);
                    AbeaRead task;
                    task.ref = genome.seq.substr(pos, seg_len);
                    SignalParams sp;
                    sp.seed = 164 + r;
                    const SimSignal sim =
                        simulateSignal(model_, task.ref, sp);
                    task.events = detectEvents(sim.samples);
                    reads_.push_back(std::move(task));
                }

                cache.write(
                    "abea", key, [&](store::StoreWriter& writer) {
                        store::addRows<char>(
                            writer, "refs",
                            reads_ | std::views::transform(&AbeaRead::ref));
                        store::addRows<store::StoredEvent>(
                            writer, "events",
                            reads_ |
                                std::views::transform(&AbeaRead::events),
                            store::packEvent);
                    });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(reads_.size(), [&](u64 i) {
            alignEvents(reads_[i].events, model_, reads_[i].ref,
                        params_);
        });
        return reads_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& read : reads_) {
            alignEvents(read.events, model_, read.ref, params_, probe);
        }
        return reads_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(reads_.size());
        for (const auto& read : reads_) {
            const auto result =
                alignEvents(read.events, model_, read.ref, params_);
            work.push_back(result.cells_computed);
        }
        return work;
    }

    AbeaInput input() const { return {model_, reads_}; }

  private:
    PoreModel model_;
    AbeaParams params_;
    std::vector<AbeaRead> reads_;
};

class NnBaseKernel final : public Benchmark
{
  public:
    NnBaseKernel() : pore_model_(6, 171) {}

    const Info&
    info() const override
    {
        static const Info kInfo{
            "nn-base", "Bonito",
            "dense CNN + CTC", "signal chunk",
            "multiply-accumulates", true, true};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        const u64 num_chunks = sizesFor(size, 2, 20, 100);
        // The chunks are a pure function of num_chunks, the fixed
        // genome and segment lengths and the seeds (pore model 171,
        // genome 172, placement 173, signals 174 on).
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("nn-base/v1")
                            .mix(num_chunks)
                            .mix(kGenomeLen)
                            .mix(kSegmentLen)
                            .mix(171)
                            .mix(172)
                            .mix(173)
                            .mix(174)
                            .value();
        cache.fetchOrBuild(
            "nn-base", key,
            [&](const auto& reader) {
                auto rows = store::readRows<float>(*reader, "chunks");
                std::vector<Tensor2> chunks;
                chunks.reserve(rows.size());
                for (auto& row : rows) {
                    requireInput(row.size() == kChunk,
                                 "nn-base cache: chunk size");
                    Tensor2& chunk = chunks.emplace_back();
                    chunk.rows = kChunk;
                    chunk.cols = 1;
                    chunk.data = std::move(row);
                }
                chunks_ = std::move(chunks);
            },
            [&] {
                generate(num_chunks);
                cache.write(
                    "nn-base", key, [&](store::StoreWriter& writer) {
                        store::addRows<float>(
                            writer, "chunks",
                            chunks_ | std::views::transform(&Tensor2::data));
                    });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(chunks_.size(), [&](u64 i) {
            NullProbe probe;
            model_.forward(chunks_[i], probe);
        });
        return chunks_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& chunk : chunks_) {
            model_.forward(chunk, probe);
        }
        return chunks_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        // Fixed-size chunks: perfectly regular (paper Table II).
        return std::vector<u64>(chunks_.size(),
                                model_.macsPerChunk());
    }

    std::span<const Tensor2> chunks() const { return chunks_; }

  private:
    static constexpr u32 kChunk = 4000;
    static constexpr u64 kGenomeLen = 100'000;
    static constexpr u64 kSegmentLen = 2000;

    /** Simulate and cut the signal chunks (a cache miss). */
    void
    generate(u64 num_chunks)
    {
        GenomeParams gp;
        gp.length = kGenomeLen;
        gp.seed = 172;
        const Genome genome = generateGenome(gp);
        Rng rng(173);

        chunks_.clear();
        chunks_.reserve(num_chunks);
        // Enough signal to cut into fixed 4000-sample chunks.
        u64 produced = 0;
        u64 seed = 174;
        while (produced < num_chunks) {
            const u64 pos =
                rng.below(genome.seq.size() - kSegmentLen - 1);
            SignalParams sp;
            sp.seed = seed++;
            const SimSignal sim = simulateSignal(
                pore_model_, genome.seq.substr(pos, kSegmentLen), sp);
            const auto norm = normalizeSignal(sim.samples);
            for (size_t begin = 0;
                 begin + kChunk <= norm.size() &&
                 produced < num_chunks;
                 begin += kChunk, ++produced) {
                Tensor2 chunk(kChunk, 1);
                for (u32 i = 0; i < kChunk; ++i) {
                    chunk.at(i, 0) = norm[begin + i];
                }
                chunks_.push_back(std::move(chunk));
            }
        }
    }

    PoreModel pore_model_;
    BonitoModel model_;
    std::vector<Tensor2> chunks_;
};

} // namespace

std::unique_ptr<Benchmark>
makeAbeaKernel()
{
    return std::make_unique<AbeaKernel>();
}

std::unique_ptr<Benchmark>
makeNnBaseKernel()
{
    return std::make_unique<NnBaseKernel>();
}

AbeaInput
abeaInput(const Benchmark& kernel)
{
    const auto* abea = dynamic_cast<const AbeaKernel*>(&kernel);
    requireInput(abea != nullptr, "abeaInput: not abea");
    return abea->input();
}

std::span<const Tensor2>
nnBaseChunks(const Benchmark& kernel)
{
    const auto* nn = dynamic_cast<const NnBaseKernel*>(&kernel);
    requireInput(nn != nullptr, "nnBaseChunks: not nn-base");
    return nn->chunks();
}

} // namespace gb
