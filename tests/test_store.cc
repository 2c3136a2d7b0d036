/**
 * @file
 * Tests for the gb::store artifact store: container round trips,
 * corruption/truncation/version detection, the
 * FM-index / dataset serializers, and the build-or-load
 * cache (including warm-vs-cold kernel-input identity).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "arch/probe.h"
#include "chain/chain.h"
#include "core/benchmark.h"
#include "core/kernels.h"
#include "index/fm_index.h"
#include "io/cigar.h"
#include "io/dna.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "store/container.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {
namespace {

using store::StoreHeader;
using store::StoreReader;
using store::StoreWriter;

/** Fresh per-test scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const auto* info =
            testing::UnitTest::GetInstance()->current_test_info();
        path_ = std::filesystem::temp_directory_path() /
                (std::string("gb_store_") + info->test_suite_name() +
                 "_" + info->name());
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }

    std::string
    file(const std::string& name) const
    {
        return (path_ / name).string();
    }
    std::string dir() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

void
flipByte(const std::string& path, u64 offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

std::string
writeSample(const ScratchDir& scratch)
{
    const std::string path = scratch.file("sample.gbs");
    StoreWriter writer(path);
    std::vector<u32> numbers(1000);
    for (u32 i = 0; i < numbers.size(); ++i) numbers[i] = i * 7 + 1;
    writer.addVec("numbers", std::span<const u32>(numbers));
    const std::string text = "the quick brown fox";
    writer.add("text", text.data(), text.size());
    writer.addPod("answer", u64{42});
    writer.finish();
    return path;
}

TEST(StoreContainer, RoundTripBothModes)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);

    auto reader = StoreReader::open(path);
    EXPECT_EQ(reader.sections().size(), 3u);
    EXPECT_TRUE(reader.has("numbers"));
    EXPECT_TRUE(reader.has("text"));
    EXPECT_FALSE(reader.has("missing"));

    const auto numbers = reader.sectionAs<u32>("numbers");
    ASSERT_EQ(numbers.size(), 1000u);
    EXPECT_EQ(numbers[0], 1u);
    EXPECT_EQ(numbers[999], 999u * 7 + 1);

    const auto text = reader.section("text");
    EXPECT_EQ(std::string(text.begin(), text.end()),
              "the quick brown fox");

    const auto answer = reader.sectionAs<u64>("answer");
    ASSERT_EQ(answer.size(), 1u);
    EXPECT_EQ(answer[0], 42u);

    EXPECT_NO_THROW(reader.verifyAll());
    EXPECT_THROW(reader.section("missing"), InputError);
}

TEST(StoreContainer, SectionsAreAligned)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    auto reader = StoreReader::open(path);
    for (const auto& entry : reader.sections()) {
        EXPECT_EQ(entry.offset % store::kAlign, 0u) << entry.name;
    }
}

TEST(StoreContainer, DetectsFlippedPayloadByte)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    // Flip one byte inside every section in turn; each must fail.
    const auto toc = StoreReader::open(path).sections();
    for (const auto& entry : toc) {
        const std::string copy = scratch.file("flip.gbs");
        std::filesystem::copy_file(
            path, copy,
            std::filesystem::copy_options::overwrite_existing);
        flipByte(copy, entry.offset + entry.size / 2);
        auto reader = StoreReader::open(copy);
        EXPECT_THROW(reader.verifySection(entry.name), InputError)
            << entry.name;
        EXPECT_THROW(reader.verifyAll(), InputError) << entry.name;
    }
}

TEST(StoreContainer, DetectsTocCorruption)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    const u64 size = std::filesystem::file_size(path);
    flipByte(path, size - 10); // inside the trailing TOC block
    EXPECT_THROW(StoreReader::open(path), InputError);

    // Offsets whose sum with a size wraps past 2^64 must be rejected,
    // not dereferenced: once in the header's toc_offset, and once in a
    // TOC entry whose header digest is recomputed to match.
    const u64 wrap = ~u64{0} - (store::kAlign - 1);
    const std::string original = writeSample(scratch); // unflipped
    StoreHeader header;
    std::vector<store::TocEntry> toc;
    {
        std::ifstream in(original, std::ios::binary);
        in.read(reinterpret_cast<char*>(&header), sizeof(header));
        toc.resize(header.section_count);
        in.seekg(static_cast<std::streamoff>(header.toc_offset));
        in.read(reinterpret_cast<char*>(toc.data()),
                static_cast<std::streamsize>(header.toc_bytes));
        ASSERT_TRUE(in);
    }
    const auto patch = [&](const StoreHeader& h,
                           const std::vector<store::TocEntry>& t) {
        const std::string bad = scratch.file("wrap.gbs");
        std::filesystem::copy_file(
            original, bad,
            std::filesystem::copy_options::overwrite_existing);
        std::fstream f(bad,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.write(reinterpret_cast<const char*>(&h), sizeof(h));
        f.seekp(static_cast<std::streamoff>(header.toc_offset));
        f.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(header.toc_bytes));
        return bad;
    };
    StoreHeader wrapped_header = header;
    wrapped_header.toc_offset = wrap;
    EXPECT_THROW(StoreReader::open(patch(wrapped_header, toc)),
                 InputError);
    std::vector<store::TocEntry> wrapped_toc = toc;
    wrapped_toc[0].offset = wrap;
    wrapped_toc[0].size = 2 * store::kAlign;
    StoreHeader redigested = header;
    redigested.toc_digest =
        xxhash64(wrapped_toc.data(), header.toc_bytes);
    EXPECT_THROW(StoreReader::open(patch(redigested, wrapped_toc)),
                 InputError);
}

TEST(StoreContainer, DetectsTruncation)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    const u64 size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    EXPECT_THROW(StoreReader::open(path), InputError);
    std::filesystem::resize_file(path, 10); // shorter than the header
    EXPECT_THROW(StoreReader::open(path), InputError);
    std::filesystem::resize_file(path, 0);
    try {
        StoreReader::open(path);
        FAIL() << "expected truncation error";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("truncated (no header)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StoreContainer, RejectsBadMagicAndVersion)
{
    ScratchDir scratch;
    const std::string garbage = scratch.file("garbage.gbs");
    {
        std::ofstream out(garbage, std::ios::binary);
        for (int i = 0; i < 500; ++i) out.put(static_cast<char>(i));
    }
    EXPECT_THROW(StoreReader::open(garbage), InputError);

    const std::string path = writeSample(scratch);
    flipByte(path, 4); // header version field
    try {
        StoreReader::open(path);
        FAIL() << "expected version error";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(StoreContainer, WriterRejectsBadSections)
{
    ScratchDir scratch;
    StoreWriter writer(scratch.file("bad.gbs"));
    const u64 v = 1;
    writer.addPod("dup", v);
    EXPECT_THROW(writer.addPod("dup", v), InputError);
    EXPECT_THROW(writer.addPod("", v), InputError);
    EXPECT_THROW(writer.addPod(std::string(60, 'x'), v), InputError);
}

TEST(StoreContainer, UnfinishedWriterLeavesNoFile)
{
    ScratchDir scratch;
    const std::string path = scratch.file("never.gbs");
    {
        StoreWriter writer(path);
        const u64 v = 7;
        writer.addPod("v", v);
        // no finish()
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(StoreHash, Xxhash64KnownVectors)
{
    // Reference values from the xxHash specification test suite.
    EXPECT_EQ(xxhash64(nullptr, 0, 0), 0xef46db3751d8e999ULL);
    const u8 one = 42;
    EXPECT_EQ(xxhash64(&one, 1, 0), 0x0a9edecebeb03ae4ULL);
    const std::string hello = "Hello, world!";
    EXPECT_EQ(xxhash64(hello.data(), hello.size(), 0),
              0xf58336a78b6f9476ULL);
    const std::string long_text(101, 'a');
    EXPECT_EQ(xxhash64(long_text.data(), long_text.size(), 0),
              0x05d162fa42c9ea90ULL);
}

TEST(StoreHash, KeyMixerIsOrderAndValueSensitive)
{
    const u64 a = KeyMixer().mix("fmi/v1").mix(1).mix(2).value();
    const u64 b = KeyMixer().mix("fmi/v1").mix(2).mix(1).value();
    const u64 c = KeyMixer().mix("fmi/v2").mix(1).mix(2).value();
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, KeyMixer().mix("fmi/v1").mix(1).mix(2).value());
}

// ---------------------------------------------------------------------
// Artifact serializers

std::string
randomReference(u64 length, u64 seed)
{
    Rng rng(seed);
    std::string ref;
    ref.reserve(length);
    for (u64 i = 0; i < length; ++i) ref += "ACGT"[rng.below(4)];
    return ref;
}

TEST(StoreArtifacts, FmIndexRoundTripAndView)
{
    ScratchDir scratch;
    const std::string ref = randomReference(5000, 33);
    for (const u32 block_len : {64u, 128u, 256u}) {
        SCOPED_TRACE(block_len);
        const FmIndex original = FmIndex::build(ref, block_len);

        const std::string path = scratch.file("fm.gbs");
        {
            StoreWriter writer(path);
            store::addFmIndex(writer, original);
            writer.finish();
        }

        const FmIndex viewed = store::viewFmIndex(
            std::make_shared<StoreReader>(StoreReader::open(path)));
        EXPECT_TRUE(viewed.isView());
        EXPECT_EQ(viewed.referenceLength(), original.referenceLength());
        EXPECT_EQ(viewed.blockLen(), original.blockLen());
        EXPECT_EQ(viewed.bwtLength(), original.bwtLength());
        EXPECT_EQ(viewed.cumulative(), original.cumulative());
        for (const char* pattern : {"ACGT", "TTT", "GATTACA", "CCGG"}) {
            EXPECT_EQ(viewed.count(pattern), original.count(pattern))
                << pattern;
        }
        // SMEMs exercise occ tables, cumulative counts and the SA.
        const auto codes = encodeDna(ref.substr(100, 80));
        std::vector<Smem> expect_mems;
        std::vector<Smem> got_mems;
        NullProbe probe;
        original.smems(std::span<const u8>(codes), 19, expect_mems, probe);
        viewed.smems(std::span<const u8>(codes), 19, got_mems, probe);
        ASSERT_EQ(got_mems.size(), expect_mems.size());
        for (size_t i = 0; i < got_mems.size(); ++i) {
            EXPECT_EQ(got_mems[i].k, expect_mems[i].k);
            EXPECT_EQ(got_mems[i].s, expect_mems[i].s);
        }

        // The mapped arrays must be bitwise-identical to the original.
        const auto same = [](auto a, auto b) {
            return std::equal(a.begin(), a.end(), b.begin(), b.end());
        };
        EXPECT_TRUE(same(viewed.occLines(), original.occLines()));
        EXPECT_EQ(reinterpret_cast<uintptr_t>(viewed.occLines().data()) % 64,
                  0u);
        EXPECT_TRUE(same(viewed.saSamples(), original.saSamples()));
        EXPECT_EQ(viewed.saSamples().size(),
                  (viewed.bwtLength() + FmIndex::kSaSampleRate - 1) /
                      FmIndex::kSaSampleRate);

        // locate() reads the marks and counts in the mapped lines and the
        // mapped samples: every base-led row gives the original's hits.
        BiInterval all;
        all.k = original.cumulative()[2];
        all.s = original.bwtLength() - all.k;
        all.end = 1;
        const auto want = original.locate(all);
        const auto got = viewed.locate(all);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].pos, want[i].pos);
            EXPECT_EQ(got[i].reverse, want[i].reverse);
        }
    }
}

TEST(StoreArtifacts, FmIndexLoadDetectsCorruption)
{
    ScratchDir scratch;
    const FmIndex fm = FmIndex::build(randomReference(2000, 7));
    const std::string path = scratch.file("fm.gbs");
    {
        StoreWriter writer(path);
        store::addFmIndex(writer, fm);
        writer.finish();
    }
    // A byte inside the occ payload, flipped last.
    u64 occ_offset = 0;
    auto probe_reader = StoreReader::open(path);
    for (const auto& entry : probe_reader.sections()) {
        if (std::string(entry.name) == "fm.occ") {
            occ_offset = entry.offset + entry.size / 3;
        }
    }
    ASSERT_NE(occ_offset, 0u);

    // Rewrites the container with one section's payload patched and
    // fresh digests, so only the loader's consistency checks can
    // reject it.
    auto patched = [&](const StoreReader& from, const std::string& section,
                       auto&& patch) {
        const std::string bad = scratch.file("bad.gbs");
        {
            StoreWriter writer(bad);
            for (const auto& entry : from.sections()) {
                const auto bytes = from.section(entry.name);
                std::vector<u8> payload(bytes.begin(), bytes.end());
                if (std::string(entry.name) == section) patch(payload);
                writer.add(entry.name, payload.data(), payload.size());
            }
            writer.finish();
        }
        auto bad_reader =
            std::make_shared<StoreReader>(StoreReader::open(bad));
        EXPECT_NO_THROW(bad_reader->verifyAll());
        return bad_reader;
    };

    // Containers whose fm.meta cumulative counts c[0..6] are
    // inconsistent: baseInterval() would index past the BWT, so the
    // loader must reject them. c[i] sits after ref_len.
    const u64 n = fm.bwtLength();
    const std::vector<std::pair<u32, u64>> bad_counts{
        {6, n + 1000}, // c[6] != n
        {3, fm.cumulative()[4] + 1}, // c decreasing
        {0, 1}, // c[0] != 0
    };
    for (const auto& [index, value] : bad_counts) {
        auto bad_reader =
            patched(probe_reader, "fm.meta", [&](std::vector<u8>& p) {
                std::memcpy(p.data() + 8 + 8 * index, &value,
                            sizeof(value));
            });
        EXPECT_THROW(store::viewFmIndex(bad_reader), InputError)
            << "c[" << index << "] = " << value;
    }

    // The same for fm.occ. Each 64-symbol block is one 64-byte line:
    // 6 u32 checkpoints, then planes 0, 1, 2 (bit k of each symbol's
    // code) as u64 words at bytes 24, 32, 40, the mark word of the
    // sampled rows at 48 and the count of earlier samples (a u32 in a
    // u64 word) at 56. An occ checkpoint past
    // its symbol's total would send the next count() outside the BWT,
    // one that drops or jumps by more than a block cannot be a prefix
    // count, and the first block's checkpoints must be 0.
    const u8* lines = reinterpret_cast<const u8*>(fm.occLines().data());
    const u64 blocks = fm.occBytes() / 64;
    ASSERT_EQ(fm.blockLen(), 64u);
    ASSERT_GE(blocks, 4u);
    const u64 mid = blocks / 2;
    auto checkpoint = [&](u64 block, u32 sym) {
        u32 value;
        std::memcpy(&value, lines + block * 64 + 4 * sym, sizeof(value));
        return value;
    };
    const std::vector<std::tuple<u64, u32, u32>> bad_checkpoints{
        {mid, 2, 0x7fffffffu},                    // past the total
        {mid, 2, checkpoint(mid, 2) + 64 + 1},    // jumps > block
        {mid, 2, checkpoint(mid - 1, 2) - 1},     // drops
        {0, 2, 1},                                // block 0 != 0
    };
    for (const auto& [block, sym, value] : bad_checkpoints) {
        auto bad_reader =
            patched(probe_reader, "fm.occ", [&](std::vector<u8>& p) {
                std::memcpy(p.data() + block * 64 + 4 * sym, &value,
                            sizeof(value));
            });
        EXPECT_THROW(store::viewFmIndex(bad_reader), InputError)
            << "block " << block << " checkpoint " << sym << " = "
            << value;
    }

    // And the planes: a flipped bit changes a symbol, so its block no
    // longer matches the step between its checkpoints; code 6 (planes
    // 1 and 2 set) is no symbol; a bit past n would be counted by no
    // checkpoint; and a truncated section has too few lines. locate()
    // reads sample number (count + marks below the row), so a count
    // off by one, a count word with its high half set, a flipped mark
    // (the next line's count no longer follows), a mark past n, and
    // an extra mark in the last line (the marks then total one more
    // than fm.sa's samples) would each read a wrong sample.
    auto setPlaneBit = [](std::vector<u8>& p, u64 block, u32 plane,
                          u32 bit, bool on) {
        u64 word;
        u8* at = p.data() + block * 64 + 24 + 8 * plane;
        std::memcpy(&word, at, sizeof(word));
        word = on ? word | u64{1} << bit : word & ~(u64{1} << bit);
        std::memcpy(at, &word, sizeof(word));
    };
    const u64 last = n / 64;
    const u64 last_marks = fm.occLines()[last * 8 + 6];
    u32 unmarked = 0;
    while (last_marks >> unmarked & 1) ++unmarked;
    ASSERT_LT(unmarked, n % 64);
    const std::vector<std::pair<const char*,
                                std::function<void(std::vector<u8>&)>>>
        bad_lines{
            {"flipped plane bit",
             [&](std::vector<u8>& p) {
                 p[mid * 64 + 24 + 1] ^= 0x20; // plane 0, bit 13
             }},
            {"code 6",
             [&](std::vector<u8>& p) {
                 setPlaneBit(p, mid, 0, 5, false);
                 setPlaneBit(p, mid, 1, 5, true);
                 setPlaneBit(p, mid, 2, 5, true);
             }},
            {"bit past n",
             [&](std::vector<u8>& p) {
                 setPlaneBit(p, last, 0, static_cast<u32>(n % 64), true);
             }},
            {"sample count off by one",
             [&](std::vector<u8>& p) { ++p[mid * 64 + 56]; }},
            {"count high half set",
             [&](std::vector<u8>& p) { p[mid * 64 + 60] = 1; }},
            {"flipped mark",
             [&](std::vector<u8>& p) { p[mid * 64 + 48] ^= 1; }},
            {"mark past n",
             [&](std::vector<u8>& p) {
                 p[last * 64 + 48 + n % 64 / 8] |= 1 << (n % 8);
             }},
            {"extra mark in the last line",
             [&](std::vector<u8>& p) {
                 p[last * 64 + 48 + unmarked / 8] |= 1 << (unmarked % 8);
             }},
            {"truncated section",
             [&](std::vector<u8>& p) { p.resize(p.size() - 64); }},
        };
    for (const auto& [what, patch] : bad_lines) {
        auto bad_reader = patched(probe_reader, "fm.occ", patch);
        EXPECT_THROW(store::viewFmIndex(bad_reader), InputError) << what;
    }

    // fm.sa holds exactly the marked rows' text positions, each a
    // multiple of the sampling rate below n: locate() adds its LF
    // steps to one.
    const u32 past_n = static_cast<u32>(
        roundUp<u64>(n, FmIndex::kSaSampleRate));
    const std::vector<std::pair<const char*,
                                std::function<void(std::vector<u8>&)>>>
        bad_samples{
            {"one sample short",
             [&](std::vector<u8>& p) { p.resize(p.size() - 4); }},
            {"sample off the sampled positions",
             [&](std::vector<u8>& p) { ++p[0]; }},
            {"sample past n",
             [&](std::vector<u8>& p) {
                 std::memcpy(p.data(), &past_n, sizeof(past_n));
             }},
        };
    for (const auto& [what, patch] : bad_samples) {
        auto bad_reader = patched(probe_reader, "fm.sa", patch);
        EXPECT_THROW(store::viewFmIndex(bad_reader), InputError) << what;
    }

    // At block_len 128 a block is 12 words padded to 16: the spare
    // words must be zero.
    const std::string wide_path = scratch.file("fm128.gbs");
    {
        StoreWriter writer(wide_path);
        store::addFmIndex(writer, FmIndex::build(randomReference(2000, 7),
                                                 128));
        writer.finish();
    }
    const auto wide_reader = StoreReader::open(wide_path);
    EXPECT_NO_THROW(store::viewFmIndex(patched(
        wide_reader, "fm.occ", [](std::vector<u8>&) {})));
    EXPECT_THROW(store::viewFmIndex(patched(wide_reader, "fm.occ",
                                            [&](std::vector<u8>& p) {
                                                p[mid * 128 + 8 * 12] = 1;
                                            })),
                 InputError);

    flipByte(path, occ_offset);
    auto reader = std::make_shared<StoreReader>(StoreReader::open(path));
    EXPECT_THROW(store::viewFmIndex(reader), InputError);
}

/** Write `rows` as addRows<T>(pack) under "rows", read them back. */
template <typename T, typename Row, typename Pack = std::identity,
          typename Unpack = std::identity>
std::vector<Row>
rowsRoundTrip(const ScratchDir& scratch, const std::vector<Row>& rows,
              Pack pack = {}, Unpack unpack = {})
{
    const std::string path = scratch.file("rows.gbs");
    {
        StoreWriter writer(path);
        store::addRows<T>(writer, "rows", rows, pack);
        writer.finish();
    }
    const auto reader = StoreReader::open(path);
    return store::readRows<T, Row>(reader, "rows", unpack);
}

/** Every row type the kernels store, each with an empty row, and
 *  each as an empty row set. */
TEST(StoreArtifacts, RaggedRowsRoundTrip)
{
    ScratchDir scratch;
    auto round_trips = [&](const auto& rows, auto tag, auto... codec) {
        using T = decltype(tag);
        EXPECT_EQ(rowsRoundTrip<T>(scratch, rows, codec...), rows);
        const std::remove_cvref_t<decltype(rows)> none;
        EXPECT_TRUE(rowsRoundTrip<T>(scratch, none, codec...).empty());
    };
    round_trips(std::vector<std::vector<u8>>{{0, 1, 2, 3}, {}, {3, 3}},
                u8{});
    round_trips(std::vector<std::string>{"ACGT", "", "TTAGGG"}, char{});
    round_trips(std::vector<std::vector<float>>{{1.5f, -0.0f}, {}, {3e-40f}},
                float{});
    round_trips(
        std::vector<std::vector<Anchor>>{{{7, 3, 15}, {9, 4, 15}}, {}},
        Anchor{});
    round_trips(
        std::vector<std::vector<CigarUnit>>{
            {{5, CigarOp::kSoftClip}, {(1u << 28) - 1, CigarOp::kMatch}},
            {},
            {{1, CigarOp::kInsertion}, {2, CigarOp::kDeletion},
             {3, CigarOp::kEqual}, {4, CigarOp::kDiff}}},
        u32{}, store::packCigar, store::unpackCigar);

    std::vector<std::vector<Event>> event_rows(3);
    event_rows[0].push_back(Event{10, 5, 80.5f, 1.25f});
    event_rows[0].push_back(Event{15, 3, 91.0f, 0.5f});
    event_rows[2].push_back(Event{0, 1, 60.0f, 2.0f});
    const auto events = rowsRoundTrip<store::StoredEvent>(
        scratch, event_rows, store::packEvent, store::unpackEvent);
    ASSERT_EQ(events.size(), event_rows.size());
    for (size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(events[i].size(), event_rows[i].size()) << i;
        for (size_t j = 0; j < events[i].size(); ++j) {
            EXPECT_EQ(events[i][j].start, event_rows[i][j].start);
            EXPECT_EQ(events[i][j].length, event_rows[i][j].length);
            EXPECT_EQ(events[i][j].mean, event_rows[i][j].mean);
            EXPECT_EQ(events[i][j].stdv, event_rows[i][j].stdv);
        }
    }
    EXPECT_TRUE(rowsRoundTrip<store::StoredEvent>(
                    scratch, std::vector<std::vector<Event>>{},
                    store::packEvent, store::unpackEvent)
                    .empty());
}

TEST(StoreArtifacts, CigarPackRejectsBadUnits)
{
    EXPECT_THROW(store::packCigar({1u << 28, CigarOp::kMatch}),
                 InputError);
    EXPECT_THROW(store::unpackCigar(1u << 4 | 6), InputError);
    EXPECT_THROW(store::unpackCigar(0xf), InputError);
}

/**
 * A container written through StoreWriter has valid digests whatever
 * its offsets say. Offsets whose last element times the element size
 * wraps to the blob's byte size must still be rejected as input
 * errors, not reach an allocation.
 */
TEST(StoreArtifacts, RowOffsetsRejectWrappingCount)
{
    ScratchDir scratch;
    store::ArtifactCache cache(scratch.dir());
    const u64 key = 7;
    const store::StoredEvent event =
        store::packEvent(Event{0, 4, 80.0f, 1.0f});
    const std::vector<u64> offsets{0, 1 + (u64{1} << 61)};
    auto fill = [&](StoreWriter& writer) {
        writer.addPod("ev.blob", event);
        writer.addVec("ev.offsets", std::span<const u64>(offsets));
    };
    ASSERT_TRUE(cache.write("fam", key, fill));
    {
        const auto reader = StoreReader::open(cache.pathFor("fam", key));
        EXPECT_THROW((store::readRows<store::StoredEvent,
                                      std::vector<Event>>(
                         reader, "ev", store::unpackEvent)),
                     InputError);
    }

    // Through fetchOrBuild the file is discarded and rebuilt, and the
    // failed load is not counted as a hit.
    bool built = false;
    const bool loaded = cache.fetchOrBuild(
        "fam", key,
        [&](const auto& reader) {
            store::readRows<store::StoredEvent, std::vector<Event>>(
                *reader, "ev", store::unpackEvent);
        },
        [&] { built = true; });
    EXPECT_FALSE(loaded);
    EXPECT_TRUE(built);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor("fam", key)));
}

// ---------------------------------------------------------------------
// Cache

TEST(StoreCache, BuildOrLoadAndCorruptFallback)
{
    ScratchDir scratch;
    store::ArtifactCache cache(scratch.dir());
    const u64 key = KeyMixer().mix("test/v1").mix(123).value();

    EXPECT_EQ(cache.tryOpen("fam", key), nullptr);
    EXPECT_EQ(cache.misses(), 1u);

    const std::vector<std::vector<u8>> rows{{1, 2, 3}, {4, 5}};
    ASSERT_TRUE(cache.write("fam", key,
                            [&](StoreWriter& writer) {
                                store::addRows<u8>(writer, "rows",
                                                   rows);
                            }));

    auto reader = cache.tryOpen("fam", key);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(store::readRows<u8>(*reader, "rows"), rows);

    // Different key: clean miss.
    EXPECT_EQ(cache.tryOpen("fam", key + 1), nullptr);

    // A file that fails open-time validation is discarded, not fatal.
    const std::string path = cache.pathFor("fam", key);
    std::filesystem::resize_file(path, 32);
    EXPECT_EQ(cache.tryOpen("fam", key), nullptr);
    EXPECT_FALSE(std::filesystem::exists(path));
}

/**
 * Payload corruption is only detectable by the lazy digest checks
 * inside the artifact loaders (open-time validation covers just the
 * header/TOC), so load() must turn that late failure into a
 * discard-and-miss too — a corrupt cache file may never fail a run.
 */
TEST(StoreCache, LoadDiscardsPayloadCorruptFile)
{
    ScratchDir scratch;
    store::ArtifactCache cache(scratch.dir());
    const u64 key = 99;
    const std::vector<std::vector<u8>> rows{{1, 2, 3, 4, 5, 6, 7, 8}};
    ASSERT_TRUE(cache.write("fam", key, [&](StoreWriter& writer) {
        store::addRows<u8>(writer, "rows", rows);
    }));
    // Damage the first payload byte: the TOC stays valid, so tryOpen
    // alone would hand this file out.
    const std::string path = cache.pathFor("fam", key);
    flipByte(path, store::kAlign);

    bool used = false;
    const bool loaded =
        cache.load("fam", key, [&](const auto& reader) {
            store::readRows<u8>(*reader, "rows");
            used = true;
        });
    EXPECT_FALSE(loaded);
    EXPECT_FALSE(used);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    // The caller rebuilds and re-writes; the next load succeeds.
    ASSERT_TRUE(cache.write("fam", key, [&](StoreWriter& writer) {
        store::addRows<u8>(writer, "rows", rows);
    }));
    std::vector<std::vector<u8>> reloaded;
    EXPECT_TRUE(cache.load("fam", key, [&](const auto& reader) {
        reloaded = store::readRows<u8>(*reader, "rows");
    }));
    EXPECT_EQ(reloaded, rows);
}

TEST(StoreCache, DisabledCacheIsInert)
{
    store::ArtifactCache cache;
    EXPECT_FALSE(cache.enabled());
    EXPECT_EQ(cache.tryOpen("fam", 1), nullptr);
    EXPECT_FALSE(cache.write("fam", 1, [](StoreWriter&) {}));
}

/** The cache-aware kernels: each prepare() builds or loads through
 *  the global artifact cache. */
const std::vector<std::string> kCachedKernels{
    "fmi", "kmer-cnt", "abea", "pileup",
    "nn-variant", "chain", "bsw", "nn-base"};

void
pushFloatRow(std::vector<u64>& out, std::span<const float> row)
{
    out.push_back(row.size());
    for (float f : row) out.push_back(std::bit_cast<u32>(f));
}

/**
 * What a warm prepare must restore bit for bit. taskWork() is a pure
 * function of the inputs run() reads where it depends on them; for
 * pileup the probe's op counts add the strands and bases, which its
 * taskWork() (CIGAR units walked) does not see. nn-variant's and
 * nn-base's taskWork() is constant, so their float rows are compared
 * as bit patterns.
 */
std::vector<u64>
preparedInputs(const std::string& name, Benchmark& kernel)
{
    std::vector<u64> out;
    if (name == "nn-variant") {
        for (const auto& row : nnVariantFeatures(kernel)) {
            pushFloatRow(out, row);
        }
        return out;
    }
    if (name == "nn-base") {
        for (const Tensor2& chunk : nnBaseChunks(kernel)) {
            out.push_back(chunk.rows);
            out.push_back(chunk.cols);
            pushFloatRow(out, chunk.data);
        }
        return out;
    }
    out = kernel.taskWork();
    if (name == "pileup") {
        CharProbe probe;
        out.push_back(kernel.characterize(probe));
        for (OpClass c :
             {OpClass::kIntAlu, OpClass::kFpAlu, OpClass::kVecAlu,
              OpClass::kLoad, OpClass::kStore, OpClass::kBranch}) {
            out.push_back(probe.counts()[c]);
        }
        out.push_back(probe.mispredicts());
    }
    return out;
}

/**
 * Warm-vs-cold identity for the cache-aware kernels: a prepare() that
 * loads from the store must produce bitwise-identical kernel inputs.
 */
TEST(StoreCache, WarmPrepareMatchesColdPrepare)
{
    ScratchDir scratch;
    for (const std::string& name : kCachedKernels) {
        store::setCacheDir(scratch.dir());
        const u64 hits_before = store::globalCache().hits();

        auto cold = createKernel(name);
        cold->prepare(DatasetSize::kTiny);
        const auto cold_inputs = preparedInputs(name, *cold);
        EXPECT_FALSE(cold_inputs.empty()) << name;
        EXPECT_EQ(store::globalCache().hits(), hits_before) << name;

        auto warm = createKernel(name);
        warm->prepare(DatasetSize::kTiny);
        EXPECT_EQ(store::globalCache().hits(), hits_before + 1) << name;
        EXPECT_EQ(preparedInputs(name, *warm), cold_inputs) << name;

        // And a cache-disabled prepare agrees too.
        store::setCacheDir("");
        auto plain = createKernel(name);
        plain->prepare(DatasetSize::kTiny);
        EXPECT_EQ(preparedInputs(name, *plain), cold_inputs) << name;
    }
    store::setCacheDir("");
}

/**
 * A flipped payload byte in a new family's artifact: the warm prepare
 * discards the file, rebuilds with identical inputs and re-publishes
 * it, so the next prepare hits again.
 */
TEST(StoreCache, CorruptPileupArtifactIsRebuilt)
{
    ScratchDir scratch;
    store::setCacheDir(scratch.dir());
    auto cold = createKernel("pileup");
    cold->prepare(DatasetSize::kTiny);
    const auto cold_inputs = preparedInputs("pileup", *cold);

    std::vector<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch.dir())) {
        files.push_back(entry.path().string());
    }
    ASSERT_EQ(files.size(), 1u);
    // Inside the "seq" blob, the last and largest section.
    const auto reader = StoreReader::open(files[0]);
    const auto& toc = reader.sections();
    const auto seq = std::find_if(toc.begin(), toc.end(), [](const auto& e) {
        return std::string(e.name) == "seq.blob";
    });
    ASSERT_NE(seq, toc.end());
    flipByte(files[0], seq->offset + seq->size / 2);

    auto& cache = store::globalCache();
    auto rebuilt = createKernel("pileup");
    rebuilt->prepare(DatasetSize::kTiny);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_EQ(preparedInputs("pileup", *rebuilt), cold_inputs);

    auto warm = createKernel("pileup");
    warm->prepare(DatasetSize::kTiny);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(preparedInputs("pileup", *warm), cold_inputs);
    store::setCacheDir("");
}

} // namespace
} // namespace gb
