#include "store/artifacts.h"

#include <algorithm>
#include <cstring>

namespace gb::store {

namespace {

std::string
sec(std::string_view prefix, const char* suffix)
{
    return std::string(prefix) + "." + suffix;
}

/** Fixed-layout meta block for the FM-index (no padding: 72 bytes). */
struct FmMeta
{
    u64 ref_len;
    u64 c[FmIndex::kAlphabet + 1];
    u32 block_len;
    u32 reserved;
};
static_assert(sizeof(FmMeta) == 72 &&
              std::is_trivially_copyable_v<FmMeta>);

void
verifySections(const StoreReader& reader,
               std::initializer_list<std::string> names)
{
    for (const auto& name : names) reader.verifySection(name);
}

} // namespace

// ---------------------------------------------------------------------
// FM-index

void
addFmIndex(StoreWriter& writer, const FmIndex& fm,
           std::string_view prefix)
{
    FmMeta meta{};
    meta.ref_len = fm.referenceLength();
    const auto& c = fm.cumulative();
    for (size_t i = 0; i < c.size(); ++i) meta.c[i] = c[i];
    meta.block_len = fm.blockLen();
    writer.addPod(sec(prefix, "meta"), meta);
    writer.addVec(sec(prefix, "occ"), fm.occLines());
    writer.addVec(sec(prefix, "sa"), fm.saSamples());
}

FmIndex
viewFmIndex(std::shared_ptr<StoreReader> reader, std::string_view prefix)
{
    requireInput(reader != nullptr, "store: viewFmIndex(null reader)");
    verifySections(*reader, {sec(prefix, "meta"), sec(prefix, "occ"),
                             sec(prefix, "sa")});
    const auto meta_bytes = reader->section(sec(prefix, "meta"));
    requireInput(meta_bytes.size() == sizeof(FmMeta),
                 "store: " + sec(prefix, "meta") + " has wrong size");
    FmMeta meta;
    std::memcpy(&meta, meta_bytes.data(), sizeof(FmMeta));
    std::array<u64, FmIndex::kAlphabet + 1> c;
    std::copy(std::begin(meta.c), std::end(meta.c), c.begin());
    const auto occ = reader->sectionAs<u64>(sec(prefix, "occ"));
    const auto sa = reader->sectionAs<u32>(sec(prefix, "sa"));
    return FmIndex::fromViews(meta.ref_len, meta.block_len, c, occ, sa,
                              std::move(reader));
}

// ---------------------------------------------------------------------
// Ragged rows

namespace detail {

void
addRowSections(StoreWriter& writer, std::string_view prefix,
               const void* blob, u64 blob_bytes,
               std::span<const u64> offsets)
{
    writer.add(sec(prefix, "blob"), blob, blob_bytes);
    writer.addVec(sec(prefix, "offsets"), offsets);
}

RowSections
readRowSections(const StoreReader& reader, std::string_view prefix,
                u64 elem_size)
{
    verifySections(reader, {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob = reader.section(sec(prefix, "blob"));
    const auto offsets = reader.sectionAs<u64>(sec(prefix, "offsets"));
    // Compare element counts, not offsets.back() * elem_size: that
    // product wraps for a crafted offset and would pass the check.
    requireInput(!offsets.empty() && offsets.front() == 0 &&
                     blob.size() % elem_size == 0 &&
                     offsets.back() == blob.size() / elem_size,
                 "store: " + sec(prefix, "offsets") +
                     " inconsistent with blob size");
    requireInput(std::is_sorted(offsets.begin(), offsets.end()),
                 "store: " + sec(prefix, "offsets") + " not monotonic");
    return {blob, offsets};
}

} // namespace detail

// ---------------------------------------------------------------------
// Packed element forms

u32
packCigar(const CigarUnit& unit)
{
    // Called per unit: build no message unless it throws.
    if (unit.len >= (1u << 28)) {
        throw InputError("store: CIGAR unit too long to pack");
    }
    return unit.len << 4 | static_cast<u32>(unit.op);
}

CigarUnit
unpackCigar(u32 packed)
{
    const u32 op = packed & 0xf;
    if (op > static_cast<u32>(CigarOp::kDiff)) {
        throw InputError("store: unknown CIGAR op " + std::to_string(op));
    }
    return {packed >> 4, static_cast<CigarOp>(op)};
}

} // namespace gb::store
