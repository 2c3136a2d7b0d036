/**
 * @file
 * Serializers between suite artifacts and gb::store containers.
 *
 * Two artifact families (the expensive prepare()-phase products):
 *   - FM-index / BWT        (src/index) — sections "<p>.meta",
 *     "<p>.counts", "<p>.bwt", "<p>.sa"; loadable as an owning copy or
 *     as a zero-copy view over an mmap'd reader.
 *   - synthesized datasets  (src/simdata) — ragged rows of encoded
 *     reads ("<p>.blob" + "<p>.offsets"), reference strings, and
 *     nanopore event streams.
 *
 * All loaders verify the section digests by default (Verify::kDigest);
 * pass Verify::kNone to trade corruption detection for a strictly
 * O(pages touched) load.
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

/** Whether a loader checks section digests before trusting payloads. */
enum class Verify
{
    kDigest,
    kNone,
};

// ---------------------------------------------------------------------
// FM-index

void addFmIndex(StoreWriter& writer, const FmIndex& fm,
                std::string_view prefix = "fm");

/** Owning load (works in both reader modes). */
FmIndex readFmIndex(StoreReader& reader, std::string_view prefix = "fm",
                    Verify verify = Verify::kDigest);

/**
 * Zero-copy load: the index's flat arrays view the reader's mapping
 * and the reader is kept alive by the returned index. Requires a
 * reader opened in ReadMode::kMmap (falls back to an owning load for
 * stream readers).
 */
FmIndex viewFmIndex(std::shared_ptr<StoreReader> reader,
                    std::string_view prefix = "fm",
                    Verify verify = Verify::kDigest);

// ---------------------------------------------------------------------
// Synthesized datasets: ragged rows stored as blob + offsets

/** Encoded reads (2-bit-code byte rows). */
void addByteRows(StoreWriter& writer, std::string_view prefix,
                 std::span<const std::vector<u8>> rows);
std::vector<std::vector<u8>> readByteRows(
    StoreReader& reader, std::string_view prefix,
    Verify verify = Verify::kDigest);

/** Reference segments / basecalled sequences. */
void addStringRows(StoreWriter& writer, std::string_view prefix,
                   std::span<const std::string> rows);
std::vector<std::string> readStringRows(
    StoreReader& reader, std::string_view prefix,
    Verify verify = Verify::kDigest);

/** Per-read nanopore event streams (abea inputs). */
void addEventRows(StoreWriter& writer, std::string_view prefix,
                  std::span<const std::vector<Event>> rows);
std::vector<std::vector<Event>> readEventRows(
    StoreReader& reader, std::string_view prefix,
    Verify verify = Verify::kDigest);

} // namespace gb::store

#endif // GB_STORE_ARTIFACTS_H
