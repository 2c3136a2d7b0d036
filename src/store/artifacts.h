/**
 * @file
 * Serializers between suite artifacts and gb::store containers.
 *
 * Two serializers cover every cached prepare()-phase product:
 *   - FM-index / BWT        (src/index) — sections "<p>.meta",
 *     "<p>.occ" (the 64-byte occ lines), "<p>.sa"; loaded as a
 *     zero-copy view over the reader's mapping, whose 64-byte section
 *     alignment keeps each occ line one cache line. This is the
 *     index's only on-disk form.
 *   - ragged rows           (addRows/readRows) — any list of rows of a
 *     padding-free element type ("<p>.blob" + "<p>.offsets"): encoded
 *     reads, reference strings, nanopore events, CIGARs, anchors,
 *     feature tensors and signal chunks, copied into owned rows.
 *     Types with padding or in-memory-only layouts (Event, CigarUnit)
 *     go through the packed forms below.
 *
 * Every loader verifies the digests of the sections it consumes
 * before trusting their payloads.
 */
#ifndef GB_STORE_ARTIFACTS_H
#define GB_STORE_ARTIFACTS_H

#include <bit>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "abea/event_detect.h"
#include "index/fm_index.h"
#include "io/cigar.h"
#include "store/container.h"
#include "util/common.h"

namespace gb::store {

// ---------------------------------------------------------------------
// FM-index

void addFmIndex(StoreWriter& writer, const FmIndex& fm,
                std::string_view prefix = "fm");

/**
 * Zero-copy load: the index's flat arrays view the reader's mapping
 * and the reader is kept alive by the returned index.
 */
FmIndex viewFmIndex(std::shared_ptr<StoreReader> reader,
                    std::string_view prefix = "fm");

// ---------------------------------------------------------------------
// Ragged rows

/**
 * A type the row codec stores byte for byte: trivially copyable and
 * free of padding, so a row set's bytes — and its section digests —
 * are a function of its values alone. float counts as padding-free
 * (its bytes are its bit pattern); the standard trait rejects it only
 * because two bit patterns (+0, -0) compare equal.
 */
template <typename T>
concept RowElement =
    std::is_trivially_copyable_v<T> &&
    (std::has_unique_object_representations_v<T> ||
     std::is_same_v<T, float>);

namespace detail {

/** Write "<prefix>.blob" and "<prefix>.offsets". */
void addRowSections(StoreWriter& writer, std::string_view prefix,
                    const void* blob, u64 blob_bytes,
                    std::span<const u64> offsets);

struct RowSections
{
    std::span<const u8> blob;
    std::span<const u64> offsets;
};

/** "<prefix>.blob" and "<prefix>.offsets", digests verified; the
 *  offsets start at 0, never decrease and end at the blob's count of
 *  `elem_size`-byte elements. */
RowSections readRowSections(const StoreReader& reader,
                            std::string_view prefix, u64 elem_size);

} // namespace detail

/**
 * Store `rows` (a range of ranges) under `prefix` as "<prefix>.blob"
 * — every row's elements back to back, each mapped to `T` by `pack` —
 * and "<prefix>.offsets", the n+1 u64 prefix element counts.
 */
template <RowElement T, typename Rows, typename Pack = std::identity>
void
addRows(StoreWriter& writer, std::string_view prefix, const Rows& rows,
        Pack pack = {})
{
    std::vector<u64> offsets{0};
    std::vector<T> blob;
    for (const auto& row : rows) {
        if constexpr (std::is_same_v<Pack, std::identity>) {
            blob.insert(blob.end(), std::begin(row), std::end(row));
        } else {
            for (const auto& elem : row) blob.push_back(pack(elem));
        }
        offsets.push_back(blob.size());
    }
    detail::addRowSections(writer, prefix, blob.data(),
                           blob.size() * sizeof(T), offsets);
}

/**
 * Load the rows stored under `prefix` by addRows<T>. Each `Row` is
 * built from the row's `T` range directly (vector, string), or
 * element by element through `unpack` into its push_back. Throws
 * InputError on a digest mismatch or inconsistent offsets.
 */
template <RowElement T, typename Row = std::vector<T>,
          typename Unpack = std::identity>
std::vector<Row>
readRows(const StoreReader& reader, std::string_view prefix,
         Unpack unpack = {})
{
    const auto [bytes, offsets] =
        detail::readRowSections(reader, prefix, sizeof(T));
    const T* blob = reinterpret_cast<const T*>(bytes.data());
    std::vector<Row> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        const T* first = blob + offsets[i];
        const T* last = blob + offsets[i + 1];
        if constexpr (std::is_same_v<Unpack, std::identity>) {
            rows.emplace_back(first, last);
        } else {
            Row& row = rows.emplace_back();
            row.reserve(static_cast<size_t>(last - first));
            for (const T* p = first; p != last; ++p) {
                row.push_back(unpack(*p));
            }
        }
    }
    return rows;
}

// ---------------------------------------------------------------------
// Packed element forms

/**
 * On-disk gb::Event: 24 bytes, no padding (the in-memory struct has 4
 * tail-padding bytes that would make digests nondeterministic). The
 * floats are held as their bit patterns so the type is a RowElement.
 */
struct StoredEvent
{
    u64 start;
    u32 length;
    u32 mean_bits;
    u32 stdv_bits;
    u32 reserved;
};
static_assert(sizeof(StoredEvent) == 24 && RowElement<StoredEvent>);

inline StoredEvent
packEvent(const Event& e)
{
    return {e.start, e.length, std::bit_cast<u32>(e.mean),
            std::bit_cast<u32>(e.stdv), 0};
}

inline Event
unpackEvent(const StoredEvent& s)
{
    return {s.start, s.length, std::bit_cast<float>(s.mean_bits),
            std::bit_cast<float>(s.stdv_bits)};
}

/** BAM-style CIGAR unit: `len << 4 | op` (CigarUnit has 3 padding
 *  bytes). Throws InputError if the length does not fit 28 bits. */
u32 packCigar(const CigarUnit& unit);

/** Inverse of packCigar(); throws InputError on an unknown op. */
CigarUnit unpackCigar(u32 packed);

} // namespace gb::store

#endif // GB_STORE_ARTIFACTS_H
