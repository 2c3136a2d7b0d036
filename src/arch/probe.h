/**
 * @file
 * Instrumentation probes for kernel characterization.
 *
 * The paper characterizes kernels with the MICA pintool (dynamic
 * instruction mix, Fig. 5) and hardware performance counters (memory
 * behaviour, Figs. 6/8/9). We have no pintool, so the kernels themselves
 * are instrumented: every kernel's hot loop is templated on a Probe
 * policy and reports the operations it performs.
 *
 *  - NullProbe: all hooks are empty inline functions; the optimizer
 *    removes them entirely, so timing runs measure the plain kernel.
 *  - CharProbe: tallies operation classes and load/store bytes (the
 *    MICA substitute). Given an arch::CacheSim, it also feeds the
 *    memory trace into it and models a per-site branch predictor (the
 *    perf counter substitute); the cache only adds modelling, so the
 *    counts are the same with or without one.
 *
 * Kernels report *architectural* operations: one op() per arithmetic
 * primitive, one load()/store() per data access with its real address
 * and size (so the cache simulator sees the true locality), and one
 * branch() per data-dependent branch.
 *
 * Thread-safety: CharProbe is NOT thread-safe.
 * Characterization runs use a single-threaded pool (matching the
 * paper, which characterizes single-thread behaviour and measures
 * thread scaling separately with uninstrumented kernels).
 */
#ifndef GB_ARCH_PROBE_H
#define GB_ARCH_PROBE_H

#include <array>
#include <cstring>
#include <string>

#include "util/common.h"

namespace gb {

class CacheSim;

/** Operation classes mirroring the paper's Fig. 5 categories. */
enum class OpClass : u8
{
    kIntAlu,  ///< scalar integer arithmetic/logic
    kFpAlu,   ///< scalar floating point
    kVecAlu,  ///< SIMD (vectorized lanes count as one op per vector)
    kLoad,    ///< memory read
    kStore,   ///< memory write
    kBranch,  ///< conditional branch
    kOther,   ///< string/sync/system/etc.
    kNumClasses,
};

inline constexpr size_t kNumOpClasses =
    static_cast<size_t>(OpClass::kNumClasses);

/** Display name of an operation class. */
const char* opClassName(OpClass c);

/** Aggregate operation counts. */
struct OpCounts
{
    std::array<u64, kNumOpClasses> by_class{};

    u64& operator[](OpClass c)
    {
        return by_class[static_cast<size_t>(c)];
    }
    u64 operator[](OpClass c) const
    {
        return by_class[static_cast<size_t>(c)];
    }

    /** Total dynamic operations. */
    u64
    total() const
    {
        u64 t = 0;
        for (u64 v : by_class) t += v;
        return t;
    }

    /** Fraction of the total contributed by class c (0 when empty). */
    double
    fraction(OpClass c) const
    {
        const u64 t = total();
        return t ? static_cast<double>((*this)[c]) /
                       static_cast<double>(t)
                 : 0.0;
    }

    void
    merge(const OpCounts& o)
    {
        for (size_t i = 0; i < kNumOpClasses; ++i) {
            by_class[i] += o.by_class[i];
        }
    }
};

/** No-op probe; every hook vanishes under optimization. */
struct NullProbe
{
    static constexpr bool enabled = false;

    void op(OpClass, u64 = 1) {}
    void load(const void*, u32) {}
    void store(const void*, u32) {}
    void branch(u32, bool) {}
};

namespace detail {

/** Dynamic load/store ops for one access: one per 32 B vector word. */
inline u64
memOpsFor(u32 size)
{
    return size <= 32 ? 1 : ceilDiv<u64>(size, 32);
}

} // namespace detail

/**
 * Full characterization probe: op counts + cache simulation + a small
 * per-site 2-bit branch predictor (for the bad-speculation estimate in
 * the top-down model).
 *
 * Branch sites are small kernel-chosen integers standing in for branch
 * PCs; they index a table of 2-bit saturating counters.
 */
class CharProbe
{
  public:
    static constexpr bool enabled = true;
    static constexpr size_t kBranchSites = 256;

    /** @param cache Optional cache simulator fed by load()/store(). */
    explicit CharProbe(CacheSim* cache = nullptr) : cache_(cache)
    {
        predictor_.fill(1); // weakly not-taken
    }

    void op(OpClass c, u64 n = 1) { counts_[c] += n; }

    void load(const void* addr, u32 size);
    void store(const void* addr, u32 size);

    void
    branch(u32 site, bool taken)
    {
        counts_[OpClass::kBranch] += 1;
        u8& state = predictor_[site % kBranchSites];
        const bool predict_taken = state >= 2;
        if (predict_taken != taken) ++mispredicts_;
        if (taken && state < 3) ++state;
        if (!taken && state > 0) --state;
    }

    const OpCounts& counts() const { return counts_; }
    u64 mispredicts() const { return mispredicts_; }
    u64 loadBytes() const { return load_bytes_; }
    u64 storeBytes() const { return store_bytes_; }
    CacheSim* cache() const { return cache_; }

  private:
    OpCounts counts_;
    CacheSim* cache_;
    std::array<u8, kBranchSites> predictor_;
    u64 mispredicts_ = 0;
    u64 load_bytes_ = 0;
    u64 store_bytes_ = 0;
};

} // namespace gb

#endif // GB_ARCH_PROBE_H
