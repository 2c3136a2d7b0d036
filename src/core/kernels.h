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
#include <vector>

#include "core/benchmark.h"
#include "nn/tensor.h"

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

/**
 * The prepared model inputs of an nn-variant (Clair feature rows) and
 * an nn-base (signal chunks) kernel, for tests that compare two
 * prepares: neither kernel's taskWork() depends on the data. Throw
 * InputError when `kernel` is another kernel.
 */
std::span<const std::vector<float>> nnVariantFeatures(
    const Benchmark& kernel);
std::span<const Tensor2> nnBaseChunks(const Benchmark& kernel);

} // namespace gb

#endif // GB_CORE_KERNELS_H
