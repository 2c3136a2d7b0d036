/**
 * @file
 * gb::store container — a versioned, checksummed, endian-tagged binary
 * file holding named flat sections (the on-disk artifact format for
 * prebuilt indexes and synthesized datasets).
 *
 * Layout (all integers little-endian; the header carries an endian tag
 * and readers reject foreign-endian files rather than byte-swapping):
 *
 *   [0, 64)                 Header (see StoreHeader)
 *   [64, toc_offset)        section payloads, each 64-byte aligned,
 *                           zero-padded between sections
 *   [toc_offset, EOF)       TOC: section_count x 64-byte TocEntry
 *
 * Every section carries an xxhash64 digest in its TOC entry; the TOC
 * itself is digested into the header. The reader maps the whole file
 * and validates the header and TOC on open (O(#sections)); section
 * payloads are verified on demand via verifySection()/verifyAll(), so
 * a caller that reads only the TOC (`store inspect`) faults in the
 * header and TOC pages, not the payload.
 *
 * Writing is atomic: payload goes to `<path>.tmp` and is renamed over
 * the final path in finish(), so a crashed build never leaves a
 * half-written artifact where a reader would find it.
 */
#ifndef GB_STORE_CONTAINER_H
#define GB_STORE_CONTAINER_H

#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace gb::store {

/** Container magic: "GBST" read as a little-endian u32. */
constexpr u32 kMagic = 0x54534247u;
/** Container format version; bump on any layout change. */
constexpr u32 kFormatVersion = 1;
/** Written as-is; a foreign-endian reader sees it byte-swapped. */
constexpr u32 kEndianTag = 0x01020304u;
/** Section payload alignment (also the TOC entry size). */
constexpr u32 kAlign = 64;
/** Maximum section-name length (TocEntry reserves name[40]). */
constexpr u32 kMaxName = 39;

/** On-disk file header, exactly 64 bytes. */
struct StoreHeader
{
    u32 magic;
    u32 version;
    u32 endian;
    u32 section_count;
    u64 toc_offset;
    u64 toc_bytes;
    u64 toc_digest; ///< xxhash64 of the TOC block
    u8 reserved[24];
};
static_assert(sizeof(StoreHeader) == 64);

/** On-disk TOC entry, exactly 64 bytes. */
struct TocEntry
{
    char name[40]; ///< NUL-terminated section name
    u64 offset;    ///< absolute file offset, kAlign-aligned
    u64 size;      ///< payload bytes (unpadded)
    u64 digest;    ///< xxhash64 of the payload
};
static_assert(sizeof(TocEntry) == 64);

/**
 * Sequential section writer.
 *
 * add() appends sections in call order; finish() writes the TOC,
 * patches the header and atomically publishes the file. A writer
 * destroyed without finish() removes its temporary file.
 */
class StoreWriter
{
  public:
    explicit StoreWriter(std::string path);
    ~StoreWriter();

    StoreWriter(const StoreWriter&) = delete;
    StoreWriter& operator=(const StoreWriter&) = delete;

    /** Append a section of raw bytes. Names must be unique, non-empty
     *  and at most kMaxName characters. */
    void add(std::string_view name, const void* data, u64 bytes);

    /** Append a span of trivially-copyable elements. */
    template <typename T>
    void
    addVec(std::string_view name, std::span<const T> values)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        add(name, values.data(), values.size() * sizeof(T));
    }

    /** Append one trivially-copyable value (fixed-layout meta blocks). */
    template <typename T>
    void
    addPod(std::string_view name, const T& value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        add(name, &value, sizeof(T));
    }

    /** Write TOC + header and rename the temp file into place. */
    void finish();

  private:
    std::string path_;
    std::string tmp_path_;
    std::ofstream out_;
    std::vector<TocEntry> toc_;
    u64 cursor_ = 0;
    bool finished_ = false;
};

/**
 * Container reader over a read-only mapping of the whole file. Header
 * and TOC are validated on open; payload digests are checked by
 * verifySection()/verifyAll() or by the artifact loaders in
 * artifacts.h.
 *
 * section() returns views into the mapping, valid for the reader's
 * lifetime — artifact "views" therefore keep the reader alive via
 * shared_ptr.
 */
class StoreReader
{
  public:
    static StoreReader open(const std::string& path);
    ~StoreReader();

    StoreReader(StoreReader&& other) noexcept;
    StoreReader& operator=(StoreReader&& other) noexcept;
    StoreReader(const StoreReader&) = delete;
    StoreReader& operator=(const StoreReader&) = delete;

    const std::string& path() const { return path_; }
    u64 fileBytes() const { return map_bytes_; }
    u32 formatVersion() const { return version_; }

    const std::vector<TocEntry>& sections() const { return toc_; }
    bool has(std::string_view name) const;

    /** Payload bytes of a section; throws InputError if absent. */
    std::span<const u8> section(std::string_view name) const;

    /** Payload reinterpreted as trivially-copyable elements. */
    template <typename T>
    std::span<const T>
    sectionAs(std::string_view name) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto bytes = section(name);
        requireInput(bytes.size() % sizeof(T) == 0,
                     "store: section '" + std::string(name) +
                         "' size is not a multiple of element size");
        return {reinterpret_cast<const T*>(bytes.data()),
                bytes.size() / sizeof(T)};
    }

    /** Recompute and check one section digest; throws on mismatch. */
    void verifySection(std::string_view name) const;

    /** Verify every section digest. */
    void verifyAll() const;

  private:
    StoreReader() = default;

    const TocEntry& entry(std::string_view name) const;

    std::string path_;
    u32 version_ = 0;
    std::vector<TocEntry> toc_;
    const u8* map_base_ = nullptr;
    u64 map_bytes_ = 0;
};

} // namespace gb::store

#endif // GB_STORE_CONTAINER_H
