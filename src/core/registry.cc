#include "core/benchmark.h"

#include <functional>
#include <utility>

#include "core/kernels.h"

namespace gb {

namespace {

using Factory = std::function<std::unique_ptr<Benchmark>()>;

const std::vector<std::pair<std::string, Factory>>&
registry()
{
    static const std::vector<std::pair<std::string, Factory>> kRegistry{
        {"fmi", makeFmiKernel},
        {"bsw", makeBswKernel},
        {"dbg", makeDbgKernel},
        {"phmm", makePhmmKernel},
        {"nn-variant", makeNnVariantKernel},
        {"chain", makeChainKernel},
        {"spoa", makeSpoaKernel},
        {"kmer-cnt", makeKmerCntKernel},
        {"abea", makeAbeaKernel},
        {"grm", makeGrmKernel},
        {"nn-base", makeNnBaseKernel},
        {"pileup", makePileupKernel},
    };
    return kRegistry;
}

} // namespace

DatasetSize
parseDatasetSize(const std::string& name)
{
    if (name == "tiny") return DatasetSize::kTiny;
    if (name == "small") return DatasetSize::kSmall;
    if (name == "large") return DatasetSize::kLarge;
    throw InputError("unknown size: " + name +
                     " (expected tiny, small or large)");
}

const char*
datasetSizeName(DatasetSize size)
{
    switch (size) {
      case DatasetSize::kTiny: return "tiny";
      case DatasetSize::kSmall: return "small";
      case DatasetSize::kLarge: return "large";
    }
    return "?";
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& [name, factory] : registry()) {
        names.push_back(name);
    }
    return names;
}

std::unique_ptr<Benchmark>
createKernel(const std::string& name)
{
    for (const auto& [key, factory] : registry()) {
        if (key == name) return factory();
    }
    throw InputError("unknown kernel: " + name);
}

} // namespace gb
