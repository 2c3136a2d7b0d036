/**
 * @file
 * Tests for event detection and adaptive banded event alignment.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "abea/abea.h"
#include "abea/event_detect.h"
#include "simd/simd.h"
#include "simdata/pore_model.h"
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

TEST(EventDetect, EmptyAndTinySignals)
{
    EXPECT_TRUE(detectEvents(std::vector<float>{}).empty());
    const std::vector<float> tiny{80.f, 81.f, 80.f};
    const auto events = detectEvents(tiny);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].length, 3u);
}

TEST(EventDetect, StepSignalSegmented)
{
    // Three flat levels -> three events.
    std::vector<float> samples;
    for (int i = 0; i < 30; ++i) samples.push_back(70.0f);
    for (int i = 0; i < 30; ++i) samples.push_back(110.0f);
    for (int i = 0; i < 30; ++i) samples.push_back(85.0f);
    const auto events = detectEvents(samples);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_NEAR(events[0].mean, 70.0f, 0.5f);
    EXPECT_NEAR(events[1].mean, 110.0f, 0.5f);
    EXPECT_NEAR(events[2].mean, 85.0f, 0.5f);
    // Events tile the signal.
    u64 total = 0;
    for (const auto& e : events) total += e.length;
    EXPECT_EQ(total, samples.size());
}

TEST(EventDetect, RecoversSimulatedEventCount)
{
    Rng rng(101);
    PoreModel model(6, 17);
    const std::string seq = randomDna(rng, 120);
    // Boundaries between re-sampled events of the *same* k-mer carry
    // no level change and are inherently undetectable, so measure the
    // detector on a resample-free signal with comfortable dwells.
    SignalParams sp;
    sp.noise_stdv = 0.5;
    sp.dwell_mean = 14.0;
    sp.resample_prob = 0.0;
    sp.seed = 5;
    const auto sim = simulateSignal(model, seq, sp);

    const auto events = detectEvents(sim.samples);
    const double ratio = static_cast<double>(events.size()) /
                         static_cast<double>(sim.events.size());
    EXPECT_GT(ratio, 0.65) << events.size() << " vs "
                           << sim.events.size();
    EXPECT_LT(ratio, 1.35);
}

/** Build events directly from simulator ground truth. */
std::vector<Event>
truthEvents(const SimSignal& sim)
{
    std::vector<Event> events;
    for (const auto& te : sim.events) {
        events.push_back({te.start_sample, te.length, te.mean, 1.0f});
    }
    return events;
}

TEST(Abea, AlignsTrueSignalWithHighScore)
{
    Rng rng(102);
    PoreModel model(6, 17);
    const std::string ref = randomDna(rng, 300);
    SignalParams sp;
    sp.seed = 7;
    const auto sim = simulateSignal(model, ref, sp);
    const auto events = truthEvents(sim);

    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);
    EXPECT_FALSE(result.alignment.empty());

    // Score per event should be near the expected Gaussian log-pdf
    // scale (>> random alignment, tested below).
    const auto wrong =
        alignEvents(events, model, randomDna(rng, 300));
    ASSERT_TRUE(wrong.valid);
    EXPECT_GT(result.score, wrong.score + 100.0f);
}

TEST(Abea, AlignmentIsMonotone)
{
    Rng rng(103);
    PoreModel model(6, 19);
    const std::string ref = randomDna(rng, 250);
    const auto sim = simulateSignal(model, ref, SignalParams{});
    const auto events = truthEvents(sim);
    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);
    for (size_t i = 1; i < result.alignment.size(); ++i) {
        EXPECT_GE(result.alignment[i].event_idx,
                  result.alignment[i - 1].event_idx);
        EXPECT_GE(result.alignment[i].kmer_idx,
                  result.alignment[i - 1].kmer_idx);
    }
}

TEST(Abea, RecoversTrueEventToKmerMapping)
{
    Rng rng(104);
    PoreModel model(6, 23);
    const std::string ref = randomDna(rng, 200);
    SignalParams sp;
    sp.resample_prob = 0.3;
    sp.seed = 11;
    const auto sim = simulateSignal(model, ref, sp);
    const auto events = truthEvents(sim);

    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);

    // Compare against ground truth: most aligned events should map to
    // a k-mer close to their true k-mer.
    u64 close = 0;
    u64 total = 0;
    for (const auto& ea : result.alignment) {
        const auto& te = sim.events[ea.event_idx];
        ++total;
        if (std::abs(static_cast<i64>(te.kmer_index) -
                     static_cast<i64>(ea.kmer_idx)) <= 2) {
            ++close;
        }
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(close) / static_cast<double>(total),
              0.9);
}

TEST(Abea, OverRepresentedEventsHandledByStays)
{
    // Heavy resampling (~2x events per k-mer, the paper's case).
    Rng rng(105);
    PoreModel model(6, 29);
    const std::string ref = randomDna(rng, 150);
    SignalParams sp;
    sp.resample_prob = 0.5;
    sp.seed = 13;
    const auto sim = simulateSignal(model, ref, sp);
    const auto events = truthEvents(sim);
    ASSERT_GT(events.size(), ref.size() - 6 + 1); // over-represented

    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);
    // Nearly every event gets assigned (few trims).
    EXPECT_GT(result.alignment.size(), events.size() * 8 / 10);
}

TEST(Abea, BandAccountingMatchesStructure)
{
    Rng rng(106);
    PoreModel model(6, 31);
    const std::string ref = randomDna(rng, 100);
    const auto sim = simulateSignal(model, ref, SignalParams{});
    const auto events = truthEvents(sim);

    AbeaParams params;
    params.record_bands = true;
    const auto result = alignEvents(events, model, ref, params);
    ASSERT_TRUE(result.valid);
    const u64 n_kmers = ref.size() - 6 + 1;
    EXPECT_EQ(result.bands, events.size() + n_kmers);
    // Cells per band never exceed the bandwidth.
    u64 cells = 0;
    for (const auto& [lo, hi] : result.band_ranges) {
        EXPECT_LE(hi - lo, params.bandwidth);
        cells += hi - lo;
    }
    EXPECT_EQ(cells, result.cells_computed);
}

TEST(Abea, InputValidation)
{
    PoreModel model(6, 37);
    std::vector<Event> events{{0, 5, 80.0f, 1.0f}};
    EXPECT_THROW(alignEvents(events, model, "ACG"), InputError);
    AbeaParams odd;
    odd.bandwidth = 7;
    EXPECT_THROW(alignEvents(events, model, "ACGTACGTACGT", odd),
                 InputError);
    // band_ranges stores u16 offsets: a wider band would truncate them.
    AbeaParams too_wide;
    too_wide.bandwidth = 65536;
    EXPECT_THROW(alignEvents(events, model, "ACGTACGTACGT", too_wide),
                 InputError);
    too_wide.bandwidth = 65534;
    EXPECT_NO_THROW(alignEvents(events, model, "ACGTACGTACGT", too_wide));
    // No events: invalid result, no crash.
    const auto r =
        alignEvents(std::vector<Event>{}, model, "ACGTACGTACGT");
    EXPECT_FALSE(r.valid);
}

// ---- abea engine: bit identity with the template --------------------

/** One alignment input with its parameters. */
struct AbeaCase
{
    std::string label;
    std::string ref;
    std::vector<Event> events;
    AbeaParams params;
};

/** Detected events of `ref`'s simulated signal, as the kernel makes. */
std::vector<Event>
detectedEvents(const PoreModel& model, const std::string& ref, u64 seed)
{
    SignalParams sp;
    sp.seed = seed;
    return detectEvents(simulateSignal(model, ref, sp).samples);
}

std::vector<AbeaCase>
makeAbeaCases(const PoreModel& model)
{
    Rng rng(107);
    std::vector<AbeaCase> cases;
    auto add = [&](std::string label, std::string ref,
                   std::vector<Event> events, u32 bandwidth) {
        AbeaCase c{std::move(label), std::move(ref), std::move(events),
                   AbeaParams{}};
        c.params.bandwidth = bandwidth;
        c.params.record_bands = true;
        cases.push_back(std::move(c));
    };

    // Kernel-style reads at the default band, one at kernel length.
    for (int r = 0; r < 6; ++r) {
        const std::string ref =
            randomDna(rng, r == 0 ? 3000 : 150 + rng.below(900));
        add("read " + std::to_string(r), ref,
            detectedEvents(model, ref, 300 + r), 100);
    }
    // Bands below one vector and not a multiple of the lane count.
    for (const u32 w : {4u, 6u, 100u, 102u, 130u}) {
        const std::string ref = randomDna(rng, 400);
        add("bandwidth " + std::to_string(w), ref,
            detectedEvents(model, ref, 400 + w), w);
    }
    // One k-mer; a single event.
    {
        const std::string ref = randomDna(rng, model.k());
        add("one k-mer", ref, detectedEvents(model, ref, 501), 100);
        add("one k-mer, one event", ref, {{0, 8, 90.0f, 1.0f}}, 100);
        const std::string longer = randomDna(rng, 300);
        add("one event", longer,
            {{0, 8, model.byKmer(longer.substr(0, model.k())).level_mean,
              1.0f}},
            100);
    }
    // Events >> k-mers and k-mers >> events force the boundary moves.
    {
        const std::string ref = randomDna(rng, 16);
        std::vector<Event> events = detectedEvents(model, ref, 502);
        while (events.size() < 400) {
            events.insert(events.end(), events.begin(),
                          events.begin() + std::min<size_t>(
                                               events.size(), 50));
        }
        add("events >> k-mers", ref, events, 100);
        add("events >> k-mers, w=6", ref, events, 6);
        const std::string long_ref = randomDna(rng, 1200);
        std::vector<Event> few = detectedEvents(model, long_ref, 503);
        few.resize(25);
        add("k-mers >> events", long_ref, few, 100);
        add("k-mers >> events, w=102", long_ref, few, 102);
    }
    // Means far from every level (finite emissions, then -inf ones):
    // the best path trims events and skips k-mers. NaN means leave
    // every cell at -inf, so the result is invalid at both.
    for (const float mean : {1.0e5f, 1.0e30f,
                             std::numeric_limits<float>::quiet_NaN()}) {
        const std::string ref = randomDna(rng, 200);
        std::vector<Event> events = detectedEvents(model, ref, 504);
        for (Event& e : events) e.mean = mean;
        add("means at " + std::to_string(mean), ref, events, 100);
    }
    // Homopolymers with every event at the level: all emissions are
    // equal, so paths tie and the strict-> selects pick the traceback.
    for (const auto& [len, n_events, skip] :
         {std::tuple{41, 28, 1e-10}, std::tuple{22, 48, 1.0 / 3}}) {
        const std::string ref(static_cast<size_t>(len), 'C');
        const float level =
            model.byKmer(ref.substr(0, model.k())).level_mean;
        add("homopolymer ties, " + std::to_string(n_events) + " events",
            ref,
            std::vector<Event>(static_cast<size_t>(n_events),
                               Event{0, 8, level, 1.0f}),
            100);
        cases.back().params.skip_prob = skip;
    }
    return cases;
}

/** Restores the process-global dispatch level on scope exit. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetSimdLevel(); }
};

TEST(AbeaEngine, BitIdenticalAtEveryLevel)
{
    const PoreModel model(6, 161);
    const auto cases = makeAbeaCases(model);
    LevelGuard guard;
    bool saw_invalid = false;
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::SimdLevel::kSse4,
          simd::SimdLevel::kAvx2}) {
        if (level > simd::detectSimdLevel()) continue;
        simd::setSimdLevel(level);
        for (const AbeaCase& c : cases) {
            const std::string where =
                std::string("level ") + simd::simdLevelName(level) + ", " +
                c.label;
            NullProbe probe;
            const AbeaResult want =
                alignEvents(c.events, model, c.ref, c.params, probe);
            const AbeaResult got =
                alignEvents(c.events, model, c.ref, c.params);
            EXPECT_EQ(std::bit_cast<u32>(got.score),
                      std::bit_cast<u32>(want.score))
                << where << ": " << got.score << " vs " << want.score;
            EXPECT_EQ(got.valid, want.valid) << where;
            EXPECT_EQ(got.cells_computed, want.cells_computed) << where;
            EXPECT_EQ(got.bands, want.bands) << where;
            EXPECT_EQ(got.band_ranges, want.band_ranges) << where;
            ASSERT_EQ(got.alignment.size(), want.alignment.size())
                << where;
            for (size_t i = 0; i < want.alignment.size(); ++i) {
                ASSERT_EQ(got.alignment[i].event_idx,
                          want.alignment[i].event_idx)
                    << where << " at " << i;
                ASSERT_EQ(got.alignment[i].kmer_idx,
                          want.alignment[i].kmer_idx)
                    << where << " at " << i;
            }
            saw_invalid = saw_invalid || !want.valid;
        }
    }
    EXPECT_TRUE(saw_invalid) << "no case exercises an invalid result";
}

} // namespace
} // namespace gb
