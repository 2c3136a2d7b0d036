/**
 * @file
 * Build-or-load artifact cache on top of gb::store containers.
 *
 * An ArtifactCache maps (family, key) -> one container file
 * `<dir>/<family>-<key:16-hex>.gbs`. The key is an xxhash64 fold (see
 * util/hash.h KeyMixer) of every parameter that influences the
 * artifact — RNG seeds, sizes, rates, and the artifact format
 * version — so a cache hit is by construction the same bytes that
 * regeneration would produce, and any parameter change simply misses.
 *
 * The process-global cache is disabled by default; the bench harness
 * and CLI enable it from --cache-dir. Kernels consult it inside
 * prepare(), which makes caching transparent to every entry point
 * (bench binaries, `genomicsbench run/characterize`, examples, the
 * gb::serve scheduler).
 *
 * Concurrency: all methods are safe to call from multiple threads.
 * Concurrent builders of one key are handled at two levels — on disk,
 * every StoreWriter publishes via a unique temp file + atomic rename
 * (so even two *processes* racing on a key cannot corrupt it), and
 * in-process, fetchOrBuild() adds a single-flight guard so N
 * concurrent requesters of the same artifact run exactly one build
 * while the rest block and then load the published file.
 */
#ifndef GB_STORE_CACHE_H
#define GB_STORE_CACHE_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "store/container.h"
#include "util/common.h"
#include "util/hash.h"

namespace gb::store {

class ArtifactCache
{
  public:
    /** Disabled cache: tryOpen() misses, write() is a no-op. */
    ArtifactCache() = default;

    /** Cache rooted at `dir` (created if absent). */
    explicit ArtifactCache(std::string dir);

    ArtifactCache(ArtifactCache&& other) noexcept;
    ArtifactCache& operator=(ArtifactCache&& other) noexcept;
    ArtifactCache(const ArtifactCache&) = delete;
    ArtifactCache& operator=(const ArtifactCache&) = delete;

    bool enabled() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /** Container path for (family, key). */
    std::string pathFor(std::string_view family, u64 key) const;

    /**
     * Open an existing artifact for zero-copy reading. Returns null on
     * a miss (or when disabled). A file that exists but fails header/
     * TOC validation is deleted and reported as a miss, so callers
     * fall back to rebuilding instead of crashing on a corrupt cache.
     */
    std::shared_ptr<StoreReader> tryOpen(std::string_view family,
                                         u64 key);

    /**
     * Populate the (family, key) artifact by calling `fill` with a
     * fresh writer. I/O failures are downgraded to a stderr warning —
     * a bench run must not die because the cache disk is full.
     * @return true if the artifact was persisted.
     */
    bool write(std::string_view family, u64 key,
               const std::function<void(StoreWriter&)>& fill);

    /**
     * tryOpen() + run `use` on the reader. Payload digests are
     * verified lazily inside the artifact loaders, so corruption can
     * also surface as an InputError from `use` — in that case the file
     * is discarded and this returns false (a miss), keeping the
     * rebuild fallback complete: no corrupt cache file, whether the
     * damage is in the TOC or a payload, can fail a run.
     * @return true if `use` consumed a valid artifact.
     */
    bool load(
        std::string_view family, u64 key,
        const std::function<void(const std::shared_ptr<StoreReader>&)>&
            use);

    /**
     * Single-flight build-or-load. Tries load(family, key, use)
     * first; on a miss, exactly one concurrent in-process caller runs
     * `build` (which is expected to generate state and persist it via
     * write()) while every other caller of the same (family, key)
     * blocks, then loads the published artifact. A waiter whose
     * builder failed to persist (e.g. disk full) falls back to
     * building locally, so the call always leaves the caller with
     * usable state. With the cache disabled every caller builds.
     *
     * @return true if `use` consumed a cached artifact, false if this
     *         caller ran `build`.
     */
    template <typename Use, typename Build>
    bool
    fetchOrBuild(std::string_view family, u64 key, Use&& use,
                 Build&& build)
    {
        // std::function holds a reference_wrapper in place: a prepare
        // that builds allocates exactly what its build does, so the
        // modelled cache behaviour of a cache-disabled characterize
        // run does not depend on the callbacks' capture sizes.
        return fetchOrBuildRef(family, key, std::ref(use), std::ref(build));
    }

    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    u64 misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    /** fetchOrBuild() calls that ran their `build` callback. */
    u64 builds() const
    {
        return builds_.load(std::memory_order_relaxed);
    }
    /** fetchOrBuild() calls that blocked on another caller's build. */
    u64 flightWaits() const
    {
        return flight_waits_.load(std::memory_order_relaxed);
    }

  private:
    bool fetchOrBuildRef(
        std::string_view family, u64 key,
        const std::function<void(const std::shared_ptr<StoreReader>&)>&
            use,
        const std::function<void()>& build);

    std::string dir_;
    std::atomic<u64> hits_{0};
    std::atomic<u64> misses_{0};
    std::atomic<u64> builds_{0};
    std::atomic<u64> flight_waits_{0};
};

/** The process-global cache (disabled until setCacheDir()). */
ArtifactCache& globalCache();

/** Enable the global cache under `dir`; empty string disables it. */
void setCacheDir(const std::string& dir);

} // namespace gb::store

#endif // GB_STORE_CACHE_H
