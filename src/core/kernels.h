/**
 * @file
 * Internal factory functions for the 12 suite kernels (one per
 * paper-§III benchmark). Users go through createKernel(); these are
 * exposed for the registry and for tests that need a concrete type.
 */
#ifndef GB_CORE_KERNELS_H
#define GB_CORE_KERNELS_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abea/event_detect.h"
#include "align/banded_sw.h"
#include "chain/chain.h"
#include "core/benchmark.h"
#include "nn/tensor.h"
#include "simdata/pore_model.h"

namespace gb {

std::unique_ptr<Benchmark> makeFmiKernel();
std::unique_ptr<Benchmark> makeBswKernel();
std::unique_ptr<Benchmark> makeDbgKernel();
std::unique_ptr<Benchmark> makePhmmKernel();
std::unique_ptr<Benchmark> makeChainKernel();
std::unique_ptr<Benchmark> makeSpoaKernel();
std::unique_ptr<Benchmark> makeAbeaKernel();
std::unique_ptr<Benchmark> makeKmerCntKernel();
std::unique_ptr<Benchmark> makeGrmKernel();
std::unique_ptr<Benchmark> makePileupKernel();
std::unique_ptr<Benchmark> makeNnBaseKernel();
std::unique_ptr<Benchmark> makeNnVariantKernel();

/**
 * The preset of a dataset size: `tiny`, `small` or `large`. Every
 * kernel's prepare() picks its input scale through this.
 */
inline u64
sizesFor(DatasetSize size, u64 tiny, u64 small, u64 large)
{
    switch (size) {
      case DatasetSize::kTiny: return tiny;
      case DatasetSize::kSmall: return small;
      case DatasetSize::kLarge: return large;
    }
    return tiny;
}

/** kmer-cnt's reads and its count table's log2 slot count. */
struct KmerCntInput
{
    std::span<const std::vector<u8>> reads;
    u32 capacity_log2 = 0;
};

/** One abea task: a reference segment and its signal's events. */
struct AbeaRead
{
    std::string ref;
    std::vector<Event> events;
};

/** abea's pore model and reads. */
struct AbeaInput
{
    const PoreModel& model;
    std::span<const AbeaRead> reads;
};

/**
 * The prepared inputs of a kernel, for the benches and tests that
 * sweep a kernel's own dataset: each dataset, its presets and its
 * seeds are defined once, in the kernel's prepare(). bswPairs() keeps
 * the kernel's order, sorted by query length. Each view lives as long
 * as `kernel` and until its next prepare(). Throw InputError when
 * `kernel` is another kernel.
 */
std::span<const SwPair> bswPairs(const Benchmark& kernel);
KmerCntInput kmerCntInput(const Benchmark& kernel);
std::span<const std::vector<Anchor>> chainAnchorSets(
    const Benchmark& kernel);
AbeaInput abeaInput(const Benchmark& kernel);
std::span<const std::vector<float>> nnVariantFeatures(
    const Benchmark& kernel);
std::span<const Tensor2> nnBaseChunks(const Benchmark& kernel);

} // namespace gb

#endif // GB_CORE_KERNELS_H
