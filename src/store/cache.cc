#include "store/cache.h"

#include "trace/trace.h"

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>

namespace gb::store {

namespace {

/**
 * In-process single-flight table: one entry per artifact path with a
 * build in progress. Keyed by path (not cache instance) so two
 * ArtifactCache objects rooted at the same directory still dedup.
 * Entries are created on demand and kept — the table is bounded by
 * the number of distinct artifacts a process ever builds (dozens).
 */
struct Flight
{
    std::mutex m;
    std::condition_variable cv;
    bool building = false;
};

Flight&
flightFor(const std::string& path)
{
    static std::mutex table_mutex;
    static std::map<std::string, std::unique_ptr<Flight>> table;
    std::lock_guard<std::mutex> lock(table_mutex);
    auto& slot = table[path];
    if (!slot) slot = std::make_unique<Flight>();
    return *slot;
}

} // namespace

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir))
{
    requireInput(!dir_.empty(), "cache: empty directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    requireInput(!ec, "cache: cannot create directory '" + dir_ +
                          "': " + ec.message());
}

ArtifactCache::ArtifactCache(ArtifactCache&& other) noexcept
    : dir_(std::move(other.dir_)),
      hits_(other.hits_.load(std::memory_order_relaxed)),
      misses_(other.misses_.load(std::memory_order_relaxed)),
      builds_(other.builds_.load(std::memory_order_relaxed)),
      flight_waits_(other.flight_waits_.load(std::memory_order_relaxed))
{
    other.dir_.clear();
}

ArtifactCache&
ArtifactCache::operator=(ArtifactCache&& other) noexcept
{
    if (this != &other) {
        dir_ = std::move(other.dir_);
        other.dir_.clear();
        hits_.store(other.hits_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
        misses_.store(other.misses_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        builds_.store(other.builds_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        flight_waits_.store(
            other.flight_waits_.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    }
    return *this;
}

std::string
ArtifactCache::pathFor(std::string_view family, u64 key) const
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + std::string(family) + "-" + hex + ".gbs";
}

std::shared_ptr<StoreReader>
ArtifactCache::tryOpen(std::string_view family, u64 key)
{
    if (!enabled()) return nullptr;
    const std::string path = pathFor(family, key);
    if (!std::filesystem::exists(path)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    try {
        auto reader = std::make_shared<StoreReader>(StoreReader::open(path));
        hits_.fetch_add(1, std::memory_order_relaxed);
        return reader;
    } catch (const std::exception& e) {
        std::cerr << "warning: discarding unreadable cache file "
                  << path << ": " << e.what() << '\n';
        std::error_code ec;
        std::filesystem::remove(path, ec);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
}

bool
ArtifactCache::load(
    std::string_view family, u64 key,
    const std::function<void(const std::shared_ptr<StoreReader>&)>& use)
{
    auto reader = tryOpen(family, key);
    if (!reader) return false;
    try {
        use(reader);
        return true;
    } catch (const InputError& e) {
        const std::string path = pathFor(family, key);
        std::cerr << "warning: discarding corrupt cache file " << path
                  << ": " << e.what() << '\n';
        std::error_code ec;
        std::filesystem::remove(path, ec);
        hits_.fetch_sub(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
}

bool
ArtifactCache::write(std::string_view family, u64 key,
                     const std::function<void(StoreWriter&)>& fill)
{
    if (!enabled()) return false;
    const std::string path = pathFor(family, key);
    try {
        StoreWriter writer(path);
        fill(writer);
        writer.finish();
        return true;
    } catch (const std::exception& e) {
        std::cerr << "warning: could not write cache file " << path
                  << ": " << e.what() << '\n';
        return false;
    }
}

bool
ArtifactCache::fetchOrBuildRef(
    std::string_view family, u64 key,
    const std::function<void(const std::shared_ptr<StoreReader>&)>& use,
    const std::function<void()>& build)
{
    if (load(family, key, use)) return true;
    if (!enabled()) {
        // No shared medium to dedup through: every caller builds.
        builds_.fetch_add(1, std::memory_order_relaxed);
        GB_TRACE_SPAN(trace::Category::kCache, "cache:build", key);
        build();
        return false;
    }

    Flight& flight = flightFor(pathFor(family, key));
    std::unique_lock<std::mutex> lock(flight.m);
    if (flight.building) {
        flight_waits_.fetch_add(1, std::memory_order_relaxed);
        {
            GB_TRACE_SPAN(trace::Category::kCache, "cache:flight_wait",
                          key);
            flight.cv.wait(lock, [&] { return !flight.building; });
        }
        lock.unlock();
        // The builder finished; its artifact should now load. If it
        // could not persist (disk full, ...), build locally — dedup
        // is an optimization, usable state is the contract.
        if (load(family, key, use)) return true;
        builds_.fetch_add(1, std::memory_order_relaxed);
        GB_TRACE_SPAN(trace::Category::kCache, "cache:build", key);
        build();
        return false;
    }
    flight.building = true;
    lock.unlock();

    // Re-check under the flight: another thread (or process) may have
    // published between our miss above and winning the build slot.
    bool loaded = false;
    try {
        loaded = load(family, key, use);
        if (!loaded) {
            builds_.fetch_add(1, std::memory_order_relaxed);
            GB_TRACE_SPAN(trace::Category::kCache, "cache:build", key);
            build();
        }
    } catch (...) {
        lock.lock();
        flight.building = false;
        lock.unlock();
        flight.cv.notify_all();
        throw;
    }
    lock.lock();
    flight.building = false;
    lock.unlock();
    flight.cv.notify_all();
    return loaded;
}

ArtifactCache&
globalCache()
{
    static ArtifactCache cache;
    return cache;
}

void
setCacheDir(const std::string& dir)
{
    globalCache() =
        dir.empty() ? ArtifactCache() : ArtifactCache(dir);
}

} // namespace gb::store
