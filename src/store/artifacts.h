/**
 * @file
 * Serializers between suite artifacts and gb::store containers.
 *
 * Two artifact families (the expensive prepare()-phase products):
 *   - FM-index / BWT        (src/index) — sections "<p>.meta",
 *     "<p>.occ" (the 64-byte occ lines), "<p>.sa"; loaded as a
 *     zero-copy view over the reader's mapping, whose 64-byte section
 *     alignment keeps each occ line one cache line. This is the
 *     index's only on-disk form.
 *   - synthesized datasets  (src/simdata) — ragged rows of encoded
 *     reads ("<p>.blob" + "<p>.offsets"), reference strings, and
 *     nanopore event streams, copied into owned rows.
 *
 * Every loader verifies the digests of the sections it consumes
 * before trusting their payloads.
 */
#ifndef GB_STORE_ARTIFACTS_H
#define GB_STORE_ARTIFACTS_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abea/event_detect.h"
#include "index/fm_index.h"
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
// Synthesized datasets: ragged rows stored as blob + offsets

/** Encoded reads (2-bit-code byte rows). */
void addByteRows(StoreWriter& writer, std::string_view prefix,
                 std::span<const std::vector<u8>> rows);
std::vector<std::vector<u8>> readByteRows(
    StoreReader& reader, std::string_view prefix);

/** Reference segments / basecalled sequences. */
void addStringRows(StoreWriter& writer, std::string_view prefix,
                   std::span<const std::string> rows);
std::vector<std::string> readStringRows(
    StoreReader& reader, std::string_view prefix);

/** Per-read nanopore event streams (abea inputs). */
void addEventRows(StoreWriter& writer, std::string_view prefix,
                  std::span<const std::vector<Event>> rows);
std::vector<std::vector<Event>> readEventRows(
    StoreReader& reader, std::string_view prefix);

} // namespace gb::store

#endif // GB_STORE_ARTIFACTS_H
