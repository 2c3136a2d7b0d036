#include "store/container.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/hash.h"

namespace gb::store {

namespace {

std::string
quoted(std::string_view name)
{
    return "'" + std::string(name) + "'";
}

/**
 * Per-writer temporary path. The pid + process-wide sequence suffix
 * keeps concurrent builders of the *same* destination (two threads or
 * two processes racing on one cache key) on distinct temp files, so
 * neither can truncate or interleave with the other's half-written
 * payload; whoever finishes last simply renames over the winner with
 * identical bytes. A fixed "<path>.tmp" name had exactly that race.
 */
std::string
uniqueTmpPath(const std::string& path)
{
    static std::atomic<u64> seq{0};
    const long pid = static_cast<long>(::getpid());
    return path + ".tmp." + std::to_string(pid) + "." +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

// ---------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(std::string path)
    : path_(std::move(path)), tmp_path_(uniqueTmpPath(path_))
{
    out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
    requireInput(out_.is_open(),
                 "store: cannot create " + quoted(tmp_path_));
    const StoreHeader placeholder{};
    out_.write(reinterpret_cast<const char*>(&placeholder),
               sizeof(placeholder));
    cursor_ = sizeof(StoreHeader);
}

StoreWriter::~StoreWriter()
{
    if (!finished_) {
        out_.close();
        std::remove(tmp_path_.c_str());
    }
}

void
StoreWriter::add(std::string_view name, const void* data, u64 bytes)
{
    requireInput(!finished_, "store: add() after finish()");
    requireInput(!name.empty() && name.size() <= kMaxName,
                 "store: section name must be 1.." +
                     std::to_string(kMaxName) + " chars: " +
                     quoted(name));
    for (const TocEntry& e : toc_) {
        requireInput(name != e.name,
                     "store: duplicate section " + quoted(name));
    }

    // Pad to the section alignment boundary.
    const u64 aligned = roundUp<u64>(cursor_, kAlign);
    static const char kZeros[kAlign] = {};
    out_.write(kZeros, static_cast<std::streamsize>(aligned - cursor_));
    cursor_ = aligned;

    TocEntry entry{};
    std::memcpy(entry.name, name.data(), name.size());
    entry.offset = cursor_;
    entry.size = bytes;
    entry.digest = xxhash64(data, bytes);
    toc_.push_back(entry);

    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
    cursor_ += bytes;
    requireInput(static_cast<bool>(out_),
                 "store: write failed for " + quoted(tmp_path_));
}

void
StoreWriter::finish()
{
    requireInput(!finished_, "store: finish() called twice");

    const u64 toc_offset = roundUp<u64>(cursor_, kAlign);
    static const char kZeros[kAlign] = {};
    out_.write(kZeros,
               static_cast<std::streamsize>(toc_offset - cursor_));
    out_.write(reinterpret_cast<const char*>(toc_.data()),
               static_cast<std::streamsize>(toc_.size() *
                                            sizeof(TocEntry)));

    StoreHeader header{};
    header.magic = kMagic;
    header.version = kFormatVersion;
    header.endian = kEndianTag;
    header.section_count = static_cast<u32>(toc_.size());
    header.toc_offset = toc_offset;
    header.toc_bytes = toc_.size() * sizeof(TocEntry);
    header.toc_digest = xxhash64(toc_.data(), header.toc_bytes);
    out_.seekp(0);
    out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out_.close();
    requireInput(!out_.fail(),
                 "store: write failed for " + quoted(tmp_path_));

    requireInput(std::rename(tmp_path_.c_str(), path_.c_str()) == 0,
                 "store: cannot rename " + quoted(tmp_path_) + " to " +
                     quoted(path_));
    finished_ = true;
}

// ---------------------------------------------------------------------
// StoreReader

StoreReader
StoreReader::open(const std::string& path)
{
    StoreReader reader;
    reader.path_ = path;

    const int fd = ::open(path.c_str(), O_RDONLY);
    requireInput(fd >= 0, "store: cannot open " + quoted(path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw InputError("store: cannot stat " + quoted(path));
    }
    if (static_cast<u64>(st.st_size) < sizeof(StoreHeader)) {
        ::close(fd);
        throw InputError("store: " + quoted(path) +
                         " is truncated (no header)");
    }
    void* base = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    requireInput(base != MAP_FAILED,
                 "store: mmap failed for " + quoted(path));
    reader.map_base_ = static_cast<const u8*>(base);
    reader.map_bytes_ = static_cast<u64>(st.st_size);

    // Header.
    StoreHeader header;
    std::memcpy(&header, reader.map_base_, sizeof(header));
    requireInput(header.magic == kMagic,
                 "store: " + quoted(path) +
                     " is not a gb::store container (bad magic)");
    requireInput(header.endian == kEndianTag,
                 "store: " + quoted(path) +
                     " was written on a different-endian machine");
    requireInput(header.version == kFormatVersion,
                 "store: " + quoted(path) + " has format version " +
                     std::to_string(header.version) +
                     "; this build reads version " +
                     std::to_string(kFormatVersion));
    requireInput(header.toc_bytes ==
                     u64{header.section_count} * sizeof(TocEntry),
                 "store: " + quoted(path) + " has an inconsistent TOC");
    requireInput(header.toc_offset >= sizeof(StoreHeader) &&
                     header.toc_offset % kAlign == 0 &&
                     header.toc_offset <= reader.map_bytes_ &&
                     header.toc_bytes <=
                         reader.map_bytes_ - header.toc_offset,
                 "store: " + quoted(path) +
                     " is truncated (TOC out of bounds)");
    reader.version_ = header.version;

    // TOC.
    reader.toc_.resize(header.section_count);
    std::memcpy(reader.toc_.data(), reader.map_base_ + header.toc_offset,
                header.toc_bytes);
    requireInput(xxhash64(reader.toc_.data(), header.toc_bytes) ==
                     header.toc_digest,
                 "store: " + quoted(path) +
                     " TOC checksum mismatch (file corrupt)");
    for (const TocEntry& e : reader.toc_) {
        requireInput(e.name[0] != '\0' &&
                         std::memchr(e.name, '\0', sizeof(e.name)) !=
                             nullptr,
                     "store: " + quoted(path) +
                         " has a malformed section name");
        requireInput(e.offset % kAlign == 0 &&
                         e.offset >= sizeof(StoreHeader) &&
                         e.offset <= header.toc_offset &&
                         e.size <= header.toc_offset - e.offset,
                     "store: " + quoted(path) + " section " +
                         quoted(e.name) + " out of bounds");
    }
    return reader;
}

StoreReader::~StoreReader()
{
    if (map_base_ != nullptr) {
        ::munmap(const_cast<u8*>(map_base_), map_bytes_);
    }
}

StoreReader::StoreReader(StoreReader&& other) noexcept
{
    *this = std::move(other);
}

StoreReader&
StoreReader::operator=(StoreReader&& other) noexcept
{
    if (this == &other) return *this;
    if (map_base_ != nullptr) {
        ::munmap(const_cast<u8*>(map_base_), map_bytes_);
    }
    path_ = std::move(other.path_);
    version_ = other.version_;
    toc_ = std::move(other.toc_);
    map_base_ = other.map_base_;
    map_bytes_ = other.map_bytes_;
    other.map_base_ = nullptr;
    other.map_bytes_ = 0;
    return *this;
}

const TocEntry&
StoreReader::entry(std::string_view name) const
{
    for (const TocEntry& e : toc_) {
        if (name == e.name) return e;
    }
    throw InputError("store: " + quoted(path_) + " has no section " +
                     quoted(name));
}

bool
StoreReader::has(std::string_view name) const
{
    return std::any_of(toc_.begin(), toc_.end(),
                       [&](const TocEntry& e) { return name == e.name; });
}

std::span<const u8>
StoreReader::section(std::string_view name) const
{
    const TocEntry& e = entry(name);
    return {map_base_ + e.offset, e.size};
}

void
StoreReader::verifySection(std::string_view name) const
{
    const TocEntry& e = entry(name);
    const auto bytes = section(name);
    requireInput(xxhash64(bytes.data(), bytes.size()) == e.digest,
                 "store: " + quoted(path_) + " section " + quoted(name) +
                     " checksum mismatch (file corrupt)");
}

void
StoreReader::verifyAll() const
{
    for (const TocEntry& e : toc_) verifySection(e.name);
}

} // namespace gb::store
