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

/** Packed on-disk form of gb::Event (24 bytes, no padding — the
 *  in-memory struct has 4 tail-padding bytes that would make digests
 *  nondeterministic). */
struct StoredEvent
{
    u64 start;
    u32 length;
    float mean;
    float stdv;
    u32 reserved;
};
static_assert(sizeof(StoredEvent) == 24 &&
              std::is_trivially_copyable_v<StoredEvent>);

void
verifySections(const StoreReader& reader,
               std::initializer_list<std::string> names)
{
    for (const auto& name : names) reader.verifySection(name);
}

/** Offsets section: n+1 prefix byte-offsets into the blob section. */
template <typename Rows, typename SizeOf>
std::vector<u64>
rowOffsets(const Rows& rows, SizeOf size_of)
{
    std::vector<u64> offsets;
    offsets.reserve(rows.size() + 1);
    u64 total = 0;
    offsets.push_back(0);
    for (const auto& row : rows) {
        total += size_of(row);
        offsets.push_back(total);
    }
    return offsets;
}

std::span<const u64>
checkedOffsets(StoreReader& reader, std::string_view prefix,
               u64 blob_bytes, u64 elem_size)
{
    const auto offsets = reader.sectionAs<u64>(sec(prefix, "offsets"));
    requireInput(!offsets.empty() && offsets.front() == 0 &&
                     offsets.back() * elem_size == blob_bytes,
                 "store: " + sec(prefix, "offsets") +
                     " inconsistent with blob size");
    for (size_t i = 1; i < offsets.size(); ++i) {
        requireInput(offsets[i - 1] <= offsets[i],
                     "store: " + sec(prefix, "offsets") +
                         " not monotonic");
    }
    return offsets;
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

void
addByteRows(StoreWriter& writer, std::string_view prefix,
            std::span<const std::vector<u8>> rows)
{
    const auto offsets =
        rowOffsets(rows, [](const std::vector<u8>& r) { return r.size(); });
    std::vector<u8> blob;
    blob.reserve(offsets.back());
    for (const auto& row : rows) {
        blob.insert(blob.end(), row.begin(), row.end());
    }
    writer.addVec(sec(prefix, "blob"), std::span<const u8>(blob));
    writer.addVec(sec(prefix, "offsets"),
                  std::span<const u64>(offsets));
}

std::vector<std::vector<u8>>
readByteRows(StoreReader& reader, std::string_view prefix)
{
    verifySections(reader, {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob = reader.sectionAs<u8>(sec(prefix, "blob"));
    const auto offsets =
        checkedOffsets(reader, prefix, blob.size(), 1);
    std::vector<std::vector<u8>> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        rows.emplace_back(blob.begin() + offsets[i],
                          blob.begin() + offsets[i + 1]);
    }
    return rows;
}

void
addStringRows(StoreWriter& writer, std::string_view prefix,
              std::span<const std::string> rows)
{
    const auto offsets =
        rowOffsets(rows, [](const std::string& r) { return r.size(); });
    std::string blob;
    blob.reserve(offsets.back());
    for (const auto& row : rows) blob += row;
    writer.add(sec(prefix, "blob"), blob.data(), blob.size());
    writer.addVec(sec(prefix, "offsets"),
                  std::span<const u64>(offsets));
}

std::vector<std::string>
readStringRows(StoreReader& reader, std::string_view prefix)
{
    verifySections(reader, {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob = reader.sectionAs<u8>(sec(prefix, "blob"));
    const auto offsets =
        checkedOffsets(reader, prefix, blob.size(), 1);
    std::vector<std::string> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        rows.emplace_back(
            reinterpret_cast<const char*>(blob.data()) + offsets[i],
            offsets[i + 1] - offsets[i]);
    }
    return rows;
}

void
addEventRows(StoreWriter& writer, std::string_view prefix,
             std::span<const std::vector<Event>> rows)
{
    const auto offsets = rowOffsets(
        rows, [](const std::vector<Event>& r) { return r.size(); });
    std::vector<StoredEvent> blob;
    blob.reserve(offsets.back());
    for (const auto& row : rows) {
        for (const Event& e : row) {
            StoredEvent se{};
            se.start = e.start;
            se.length = e.length;
            se.mean = e.mean;
            se.stdv = e.stdv;
            blob.push_back(se);
        }
    }
    writer.addVec(sec(prefix, "blob"),
                  std::span<const StoredEvent>(blob));
    writer.addVec(sec(prefix, "offsets"),
                  std::span<const u64>(offsets));
}

std::vector<std::vector<Event>>
readEventRows(StoreReader& reader, std::string_view prefix)
{
    verifySections(reader, {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob =
        reader.sectionAs<StoredEvent>(sec(prefix, "blob"));
    const auto offsets = checkedOffsets(reader, prefix,
                                        blob.size() * sizeof(StoredEvent),
                                        sizeof(StoredEvent));
    std::vector<std::vector<Event>> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        std::vector<Event> row;
        row.reserve(offsets[i + 1] - offsets[i]);
        for (u64 j = offsets[i]; j < offsets[i + 1]; ++j) {
            Event e;
            e.start = blob[j].start;
            e.length = blob[j].length;
            e.mean = blob[j].mean;
            e.stdv = blob[j].stdv;
            row.push_back(e);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace gb::store
