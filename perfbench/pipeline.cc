#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "align/banded_sw.h"
#include "dbg/debruijn.h"
#include "io/dna.h"
#include "phases.h"
#include "phmm/pairhmm.h"
#include "pileup/pileup.h"
#include "simdata/genome.h"
#include "simdata/variants.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr gb::u64 kGenomeLen = 150'000;
constexpr double kCoverage = 35.0;
/** Repeats cover 10% of the genome (generator default 25%): with one
 *  locate() hit per read, SNVs inside repeats are unreachable, and at
 *  25% recall falls below the gate on some seeds. */
constexpr double kRepeatFraction = 0.10;
/** SNVs are homozygous; 0.45 drops columns diluted by misplaced reads. */
constexpr double kMinAltFraction = 0.45;
constexpr gb::u64 kWindow = 400;     ///< re-assembly window, bp
constexpr size_t kPhmmReads = 16;    ///< reads per window given to phmm
/** Re-assembled windows per pass, and haplotypes per window (assembler
 *  default 64). Both bound the phmm work, which otherwise followed the
 *  seed's genome: the number of calls, and the windows in repeats that
 *  yield many paths, moved a pass's phmm time by 50% between seeds. */
constexpr size_t kMaxWindows = 96;
constexpr gb::u32 kMaxHaplotypes = 4;
constexpr double kMinAccuracy = 0.9; ///< recall and precision gate

/** Span names; also the per-layer metric suffixes. */
constexpr const char* kStages[] = {"ref.smems", "ref.locate", "ref.bsw",
                                   "ref.pileup", "ref.call", "ref.dbg",
                                   "ref.phmm"};

} // namespace

struct RefGuided::Data
{
    gb::Genome genome;
    std::set<u64> truth; ///< injected SNV positions
    std::vector<gb::SimRead> reads;
    gb::FmIndex fm;
};

RefGuided::RefGuided(gb::ThreadPool& pool, u64 seed)
    : pool_(pool), seed_(seed)
{
}

RefGuided::~RefGuided() = default;

void
RefGuided::setup(bool traced)
{
    data_.reset();
    auto d = std::make_unique<Data>();
    gb::Rng rng(seed_);

    gb::GenomeParams gp;
    gp.length = kGenomeLen;
    gp.repeat_fraction = kRepeatFraction;
    gp.seed = rng.next();
    d->genome = gb::generateGenome(gp);

    gb::VariantParams vp;
    vp.snv_rate = 1e-3;
    vp.ins_rate = 0.0; // SNVs only: keeps coordinates comparable
    vp.del_rate = 0.0;
    vp.het_fraction = 0.0;
    vp.seed = rng.next();
    const gb::SampleGenome sample = gb::injectVariants(d->genome.seq, vp);
    for (const auto& v : sample.truth) d->truth.insert(v.ref_pos);

    gb::ShortReadParams rp;
    rp.coverage = kCoverage;
    rp.seed = rng.next();
    d->reads = gb::simulateShortReads(sample.seq, rp);

    const u64 t0 = nowNs();
    {
        spans::Scope span("ref.index_build");
        d->fm = gb::FmIndex::build(d->genome.seq);
    }
    index_build_s_[traced].push_back(secondsSince(t0));
    data_ = std::move(d);
}

void
RefGuided::warmUp(Checks& checks)
{
    pass(checks, false);
    passes_.pop_back();
}

void
RefGuided::pass(Checks& checks, bool traced)
{
    using namespace gb;
    const Data& d = *data_;
    const std::string& ref = d.genome.seq;
    const u64 t0 = nowNs();

    // Per read: smems -> locate the longest seed -> bandedSw around it.
    const size_t n = d.reads.size();
    std::vector<AlnRecord> alignments(n);
    std::vector<char> aligned(n, 0);
    const SwParams sw;
    pool_.parallelFor(n, [&](u64 i) {
        const SeqRecord& read = d.reads[i].record;
        const auto fwd = encodeDna(read.seq);
        NullProbe probe;
        std::vector<Smem> seeds;
        {
            spans::Scope span("ref.smems");
            d.fm.smems(std::span<const u8>(fwd), 19, seeds, probe);
        }
        if (seeds.empty()) return;
        const Smem& best = *std::max_element(
            seeds.begin(), seeds.end(), [](const Smem& a, const Smem& b) {
                return a.length() < b.length();
            });
        std::vector<FmIndex::Hit> hits;
        {
            spans::Scope span("ref.locate");
            hits = d.fm.locate(best, 1);
        }
        if (hits.empty()) return;

        const bool rev = hits[0].reverse;
        const std::string oriented =
            rev ? reverseComplement(read.seq) : read.seq;
        const auto query = encodeDna(oriented);
        const i64 read_start =
            static_cast<i64>(hits[0].pos) -
            (rev ? static_cast<i64>(read.seq.size()) - best.end
                 : best.begin);
        const i64 window_start = std::max<i64>(0, read_start - 10);
        if (window_start >= static_cast<i64>(ref.size())) return;
        const u64 window_len = std::min<u64>(
            read.seq.size() + 20, ref.size() - window_start);
        const auto target = encodeDna(
            std::string_view(ref).substr(window_start, window_len));
        SwResult ext;
        {
            spans::Scope span("ref.bsw");
            ext = bandedSw(query, target, sw);
        }
        if (ext.score < static_cast<i32>(read.seq.size())) return;

        AlnRecord rec;
        rec.qname = read.name;
        rec.reverse = rev;
        rec.pos = static_cast<u64>(window_start) +
                  static_cast<u64>(ext.target_end - ext.query_end);
        rec.seq = oriented;
        rec.cigar.push(CigarOp::kMatch, static_cast<u32>(oriented.size()));
        rec.qual = rev ? std::string(read.qual.rbegin(), read.qual.rend())
                       : read.qual;
        alignments[i] = std::move(rec);
        aligned[i] = 1;
    });
    std::vector<AlnRecord> records;
    for (size_t i = 0; i < n; ++i) {
        if (aligned[i]) records.push_back(std::move(alignments[i]));
    }
    std::sort(records.begin(), records.end(),
              [](const AlnRecord& a, const AlnRecord& b) {
                  return a.pos < b.pos;
              });

    Pileup pileup;
    {
        spans::Scope span("ref.pileup");
        pileup = countPileup(records, 0, ref.size());
    }
    std::vector<SimpleCall> calls;
    {
        spans::Scope span("ref.call");
        calls = callSnvs(pileup, d.genome.codes, kMinAltFraction, 10);
    }

    // Re-assemble and score the first kMaxWindows windows that hold a
    // candidate.
    std::vector<u64> windows;
    for (const auto& call : calls) windows.push_back(call.pos / kWindow);
    std::sort(windows.begin(), windows.end());
    windows.erase(std::unique(windows.begin(), windows.end()),
                  windows.end());
    windows.resize(std::min(windows.size(), kMaxWindows));
    std::vector<char> finite(windows.size(), 1);
    pool_.parallelFor(windows.size(), [&](u64 w) {
        const u64 start = windows[w] * kWindow;
        const u64 end = std::min<u64>(start + kWindow, ref.size());
        AssemblyRegion region;
        region.reference.assign(d.genome.codes.begin() + start,
                                d.genome.codes.begin() + end);
        // Reads are shorter than kWindow, so any overlapping read
        // starts at most kWindow before the window.
        auto it = std::lower_bound(
            records.begin(), records.end(),
            start > kWindow ? start - kWindow : 0,
            [](const AlnRecord& r, u64 pos) { return r.pos < pos; });
        for (; it != records.end() && it->pos < end; ++it) {
            if (it->endPos() > start) {
                region.reads.push_back(encodeDna(it->seq));
            }
        }
        DbgParams dbg;
        dbg.max_haplotypes = kMaxHaplotypes;
        DbgStats stats;
        PhmmTask task;
        {
            spans::Scope span("ref.dbg");
            task.haplotypes = assembleRegion(region, dbg, stats);
        }
        const size_t nreads = std::min(region.reads.size(), kPhmmReads);
        for (size_t r = 0; r < nreads; ++r) {
            task.reads.push_back(
                {region.reads[r],
                 std::vector<u8>(region.reads[r].size(), 30)});
        }
        NullProbe probe;
        std::vector<double> likelihoods;
        {
            spans::Scope span("ref.phmm");
            likelihoods = runPhmmTask(task, PhmmParams{}, probe);
        }
        for (double l : likelihoods) {
            if (!std::isfinite(l)) finite[w] = 0;
        }
    });

    Pass p;
    p.traced = traced;
    p.wall_s = secondsSince(t0);
    u64 tp = 0;
    for (const auto& call : calls) tp += d.truth.count(call.pos);
    p.aligned_frac =
        static_cast<double>(records.size()) / static_cast<double>(n);
    p.recall = static_cast<double>(tp) /
               static_cast<double>(std::max<size_t>(d.truth.size(), 1));
    p.precision = static_cast<double>(tp) /
                  static_cast<double>(std::max<size_t>(calls.size(), 1));
    const bool all_finite =
        std::all_of(finite.begin(), finite.end(), [](char f) { return f; });
    checks.expect(p.recall >= kMinAccuracy && p.precision >= kMinAccuracy &&
                      all_finite,
                  "ref-guided pass: recall " + std::to_string(p.recall) +
                      ", precision " + std::to_string(p.precision) +
                      (all_finite ? "" : ", non-finite phmm likelihood"));
    if (traced) {
        auto spans_taken = spans::take();
        const auto self = spans::selfSecondsByName(spans_taken);
        for (const char* stage : kStages) {
            const auto it = self.find(stage);
            p.stage_s.emplace_back(stage,
                                   it == self.end() ? 0.0 : it->second);
        }
        spans::keep(std::move(spans_taken));
    }
    passes_.push_back(std::move(p));
}

void
RefGuided::report(Report& e2e, Report& layers) const
{
    std::vector<double> wall, frac, recall, precision;
    const bool any_traced =
        std::any_of(passes_.begin(), passes_.end(),
                    [](const Pass& p) { return p.traced; });
    for (const Pass& p : passes_) {
        if (!p.traced) wall.push_back(p.wall_s);
        if (p.traced != any_traced) continue;
        frac.push_back(p.aligned_frac);
        recall.push_back(p.recall);
        precision.push_back(p.precision);
    }
    e2e.set("pipeline_s", median(wall), "s");

    const auto& build_s = index_build_s_[any_traced];
    layers.set("ref.index_build_s", median(build_s), "s");
    for (size_t s = 0; s < std::size(kStages); ++s) {
        std::vector<double> stage;
        for (const Pass& p : passes_) {
            if (p.traced) stage.push_back(p.stage_s[s].second);
        }
        layers.set(std::string(kStages[s]) + "_s", median(stage), "s");
    }
    layers.set("ref.aligned_frac", median(frac), "ratio");
    layers.set("ref.recall", median(recall), "ratio");
    layers.set("ref.precision", median(precision), "ratio");
}

} // namespace perfbench
