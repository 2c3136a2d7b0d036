/**
 * @file
 * Tests for the partial-order alignment graph and consensus.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "io/dna.h"
#include "poa/poa.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

std::string
randomDna(Rng& rng, u64 len)
{
    std::string s(len, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
}

/** Corrupt a sequence with the given substitution/indel rates. */
std::string
corrupt(Rng& rng, const std::string& s, double sub, double ins,
        double del)
{
    std::string out;
    for (char c : s) {
        if (rng.chance(del)) continue;
        if (rng.chance(ins)) out += "ACGT"[rng.below(4)];
        out += rng.chance(sub) ? "ACGT"[rng.below(4)] : c;
    }
    if (out.empty()) out = "A";
    return out;
}

TEST(Poa, SingleSequenceConsensusIsIdentity)
{
    PoaGraph graph;
    NullProbe probe;
    const auto codes = encodeDna("ACGTTGCA");
    graph.addSequence(std::span<const u8>(codes), probe);
    EXPECT_EQ(graph.consensus(), codes);
    EXPECT_EQ(graph.numNodes(), 8u);
    EXPECT_EQ(graph.numEdges(), 7u);
}

TEST(Poa, IdenticalSequencesDoNotGrowGraph)
{
    PoaGraph graph;
    NullProbe probe;
    const auto codes = encodeDna("ACGTTGCAACGT");
    for (int i = 0; i < 5; ++i) {
        graph.addSequence(std::span<const u8>(codes), probe);
    }
    EXPECT_EQ(graph.numNodes(), codes.size());
    EXPECT_EQ(graph.consensus(), codes);
}

TEST(Poa, MajorityVoteOnSubstitution)
{
    PoaGraph graph;
    NullProbe probe;
    const auto truth = encodeDna("ACGTACGTACGT");
    const auto variant = encodeDna("ACGTAGGTACGT"); // C->G at pos 5
    // 3 true reads vs 2 variant reads: consensus = truth.
    for (int i = 0; i < 3; ++i) {
        graph.addSequence(std::span<const u8>(truth), probe);
    }
    for (int i = 0; i < 2; ++i) {
        graph.addSequence(std::span<const u8>(variant), probe);
    }
    EXPECT_EQ(graph.consensus(), truth);
}

TEST(Poa, MajorityVoteFlipsWithSupport)
{
    PoaGraph graph;
    NullProbe probe;
    const auto a = encodeDna("ACGTACGTACGT");
    const auto b = encodeDna("ACGTAGGTACGT");
    for (int i = 0; i < 2; ++i) {
        graph.addSequence(std::span<const u8>(a), probe);
    }
    for (int i = 0; i < 4; ++i) {
        graph.addSequence(std::span<const u8>(b), probe);
    }
    EXPECT_EQ(graph.consensus(), b);
}

TEST(Poa, InsertionCreatesBranchButConsensusStable)
{
    PoaGraph graph;
    NullProbe probe;
    const auto truth = encodeDna("ACGTACGTACGTACGT");
    const auto with_ins = encodeDna("ACGTACGTTTACGTACGT");
    for (int i = 0; i < 4; ++i) {
        graph.addSequence(std::span<const u8>(truth), probe);
    }
    graph.addSequence(std::span<const u8>(with_ins), probe);
    EXPECT_EQ(graph.consensus(), truth);
}

TEST(Poa, PolishesNoisyReadsBackToTruth)
{
    // The Racon use case: ~10 noisy copies recover the true window.
    Rng rng(81);
    const std::string truth = randomDna(rng, 200);
    PoaTask task;
    for (int i = 0; i < 12; ++i) {
        task.reads.push_back(
            encodeDna(corrupt(rng, truth, 0.03, 0.03, 0.03)));
    }
    const auto consensus = poaConsensus(task);
    const std::string decoded = decodeDna(consensus);

    // Consensus should be much closer to the truth than any single
    // read; demand high identity via a quick banded alignment proxy:
    // count exact matching prefix-extension identity.
    ASSERT_GE(decoded.size(), 180u);
    ASSERT_LE(decoded.size(), 220u);
    u64 matches = 0;
    const size_t len = std::min(decoded.size(), truth.size());
    for (size_t i = 0; i < len; ++i) {
        matches += decoded[i] == truth[i];
    }
    // Identical length alignment is too strict with indels; use the
    // weaker but indicative bound of >=70 % positional identity plus
    // a k-mer containment check.
    u64 shared_kmers = 0;
    const u32 k = 15;
    for (size_t i = 0; i + k <= truth.size(); i += k) {
        if (decoded.find(truth.substr(i, k)) != std::string::npos) {
            ++shared_kmers;
        }
    }
    EXPECT_GE(shared_kmers, 10u) << "consensus diverged from truth";
}

TEST(Poa, MeanInDegreeGrowsWithDisagreement)
{
    Rng rng(82);
    const std::string truth = randomDna(rng, 150);

    PoaGraph clean;
    PoaGraph noisy;
    NullProbe probe;
    for (int i = 0; i < 8; ++i) {
        const auto exact = encodeDna(truth);
        clean.addSequence(std::span<const u8>(exact), probe);
        const auto bad =
            encodeDna(corrupt(rng, truth, 0.08, 0.05, 0.05));
        noisy.addSequence(std::span<const u8>(bad), probe);
    }
    EXPECT_GT(noisy.numNodes(), clean.numNodes());
}

TEST(Poa, CellUpdateAccountingMatchesComplexity)
{
    // cell updates for the second identical sequence = n * |V| (chain
    // graph, n_p = 1).
    PoaGraph graph;
    NullProbe probe;
    const auto codes = encodeDna("ACGTACGTAC");
    graph.addSequence(std::span<const u8>(codes), probe);
    EXPECT_EQ(graph.cellUpdates(), 0u);
    graph.addSequence(std::span<const u8>(codes), probe);
    EXPECT_EQ(graph.cellUpdates(), 10u * 10u);
}

TEST(Poa, EdgeWeightsBiasConsensus)
{
    // A single high-weight read (e.g. high base quality in Racon)
    // outvotes two weight-1 reads.
    PoaGraph graph;
    NullProbe probe;
    const auto a = encodeDna("ACGTACGTACGT");
    const auto b = encodeDna("ACGTATGTACGT"); // C->T at pos 5
    graph.addSequence(std::span<const u8>(a), probe, 1);
    graph.addSequence(std::span<const u8>(a), probe, 1);
    graph.addSequence(std::span<const u8>(b), probe, 5);
    EXPECT_EQ(graph.consensus(), b);
}

TEST(Poa, EmptySequenceRejected)
{
    PoaGraph graph;
    NullProbe probe;
    const std::vector<u8> empty;
    EXPECT_THROW(graph.addSequence(std::span<const u8>(empty), probe),
                 InputError);
}

TEST(Poa, ConsensusOfEmptyGraphIsEmpty)
{
    PoaGraph graph;
    EXPECT_TRUE(graph.consensus().empty());
}

TEST(Poa, DuplicateEdgesAccumulateWeightNotCount)
{
    // addEdge keeps its linear duplicate scan: re-adding a sequence
    // must bump edge weights, never edge counts.
    PoaGraph graph;
    NullProbe probe;
    const auto codes = encodeDna("ACGTTGCA");
    graph.addSequence(std::span<const u8>(codes), probe);
    const u64 nodes_once = graph.numNodes();
    const u64 edges_once = graph.numEdges();
    EXPECT_EQ(edges_once, codes.size() - 1);
    for (int i = 0; i < 4; ++i) {
        graph.addSequence(std::span<const u8>(codes), probe);
    }
    EXPECT_EQ(graph.numNodes(), nodes_once);
    EXPECT_EQ(graph.numEdges(), edges_once);
    // The accumulated weight must outvote a lighter variant.
    const auto variant = encodeDna("ACGTCGCA");
    for (int i = 0; i < 3; ++i) {
        graph.addSequence(std::span<const u8>(variant), probe);
    }
    EXPECT_EQ(graph.consensus(), codes);
}

TEST(Poa, MeanInDegreeIsEdgesOverNodes)
{
    Rng rng(83);
    const std::string truth = randomDna(rng, 120);
    PoaGraph graph;
    NullProbe probe;
    for (int i = 0; i < 6; ++i) {
        const auto read =
            encodeDna(corrupt(rng, truth, 0.05, 0.04, 0.04));
        graph.addSequence(std::span<const u8>(read), probe);
        ASSERT_GT(graph.numNodes(), 0u);
        EXPECT_DOUBLE_EQ(graph.meanInDegree(),
                         static_cast<double>(graph.numEdges()) /
                             static_cast<double>(graph.numNodes()));
    }
}

// ---- poa row kernel: every dispatch level vs the scalar level -------

/** Restores the process-global dispatch level on scope exit. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetSimdLevel(); }
};

/** Levels this host can actually execute (always includes scalar). */
std::vector<simd::SimdLevel>
testableLevels()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::kScalar};
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        levels.push_back(simd::SimdLevel::kSse4);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        levels.push_back(simd::SimdLevel::kAvx2);
    }
    return levels;
}

/** addSequence with the row kernel dispatched at `level`. */
void
addAtLevel(PoaGraph& graph, simd::SimdLevel level,
           const std::vector<u8>& codes)
{
    simd::setSimdLevel(level);
    NullProbe probe;
    graph.addSequence(std::span<const u8>(codes), probe);
}

TEST(PoaDispatch, RandomizedGraphsMatchScalarAtEveryLevel)
{
    // Every level must build bit-identical graphs to the scalar
    // level: same node and edge counts after every addSequence, same
    // consensus, same cell accounting. Reads span the interesting
    // regimes (clean repeats, heavy noise, ambiguous bases,
    // single-base reads).
    LevelGuard guard;
    for (const simd::SimdLevel level : testableLevels()) {
        Rng rng(84); // same cases at every level
        for (int rep = 0; rep < 350; ++rep) {
            PoaParams params;
            if (rng.chance(0.2)) params.mismatch = -2;
            if (rng.chance(0.2)) params.gap = -8;
            PoaGraph scalar_graph(params);
            PoaGraph level_graph(params);

            const u64 truth_len = 1 + rng.below(60);
            std::string truth = randomDna(rng, truth_len);
            if (rng.chance(0.1)) truth[0] = 'N';
            const u64 depth = 2 + rng.below(4);
            for (u64 d = 0; d < depth; ++d) {
                std::string read =
                    corrupt(rng, truth, 0.08, 0.05, 0.05);
                if (rng.chance(0.1)) read = "A";
                const auto codes = encodeDna(read);
                addAtLevel(scalar_graph, simd::SimdLevel::kScalar,
                           codes);
                addAtLevel(level_graph, level, codes);
                ASSERT_EQ(level_graph.numNodes(),
                          scalar_graph.numNodes())
                    << "level=" << simd::simdLevelName(level)
                    << " rep=" << rep << " read=" << d;
                ASSERT_EQ(level_graph.numEdges(),
                          scalar_graph.numEdges())
                    << "level=" << simd::simdLevelName(level)
                    << " rep=" << rep << " read=" << d;
            }
            EXPECT_EQ(level_graph.consensus(),
                      scalar_graph.consensus())
                << "level=" << simd::simdLevelName(level)
                << " rep=" << rep;
            EXPECT_EQ(level_graph.cellUpdates(),
                      scalar_graph.cellUpdates());
            EXPECT_DOUBLE_EQ(level_graph.meanInDegree(),
                             scalar_graph.meanInDegree());
        }
    }
}

TEST(PoaDispatch, ConsensusMatchesScalarLevel)
{
    LevelGuard guard;
    Rng rng(85);
    const std::string truth = randomDna(rng, 180);
    PoaTask task;
    for (int i = 0; i < 10; ++i) {
        task.reads.push_back(
            encodeDna(corrupt(rng, truth, 0.04, 0.03, 0.03)));
    }
    simd::setSimdLevel(simd::SimdLevel::kScalar);
    u64 cells_scalar = 0;
    NullProbe probe;
    const auto scalar =
        poaConsensus(task, PoaParams{}, probe, &cells_scalar);
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        u64 cells = 0;
        EXPECT_EQ(poaConsensus(task, PoaParams{}, probe, &cells), scalar)
            << "level=" << simd::simdLevelName(level);
        EXPECT_EQ(cells, cells_scalar);
        EXPECT_EQ(poaConsensus(task), scalar)
            << "level=" << simd::simdLevelName(level);
    }
}

TEST(PoaDispatch, WideInDegreeExercisesPackedOverflow)
{
    // Force a node with more than 63 predecessors so the packed
    // traceback's 6-bit field saturates and the candidate rescan has
    // to resolve it: seed the graph with a G-free backbone ending in
    // G, then add every truncated prefix + "G". Each truncation's G
    // aligns to the shared G sink across a tail of deletions, so the
    // sink gains one distinct predecessor (the truncation point) per
    // read. Graphs built at every level must match the scalar level's
    // and the traceback must never lose a predecessor.
    LevelGuard guard;
    Rng backbone_rng(86);
    std::string backbone;
    for (int i = 0; i < 140; ++i) {
        backbone += "ACT"[backbone_rng.below(3)]; // no G: unique sink
    }
    for (const simd::SimdLevel level : testableLevels()) {
        PoaGraph scalar_graph;
        PoaGraph level_graph;
        for (size_t len = backbone.size(); len >= 1; --len) {
            const auto codes =
                encodeDna(backbone.substr(0, len) + "G");
            addAtLevel(scalar_graph, simd::SimdLevel::kScalar, codes);
            addAtLevel(level_graph, level, codes);
            ASSERT_EQ(level_graph.numNodes(),
                      scalar_graph.numNodes())
                << "level=" << simd::simdLevelName(level)
                << " len=" << len;
            ASSERT_EQ(level_graph.numEdges(),
                      scalar_graph.numEdges());
        }
        // The 6-bit pred-index field saturates at 63; the test only
        // proves anything if some node is genuinely wider than that.
        EXPECT_GT(scalar_graph.maxInDegree(), 63u);
        EXPECT_EQ(level_graph.maxInDegree(),
                  scalar_graph.maxInDegree());
        EXPECT_EQ(level_graph.consensus(), scalar_graph.consensus());
    }
}

} // namespace
} // namespace gb
