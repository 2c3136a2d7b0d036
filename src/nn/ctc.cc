#include "nn/ctc.h"

namespace gb {

namespace {

constexpr char kBases[] = "_ACGT"; // index 0 unused in output

} // namespace

std::string
ctcGreedyDecode(const Tensor2& probs)
{
    requireInput(probs.cols == kCtcClasses,
                 "CTC: expected 5 classes per frame");
    std::string out;
    u32 prev = kCtcBlank;
    for (u32 t = 0; t < probs.rows; ++t) {
        const float* row = probs.row(t);
        u32 best = 0;
        for (u32 c = 1; c < kCtcClasses; ++c) {
            if (row[c] > row[best]) best = c;
        }
        if (best != kCtcBlank && best != prev) {
            out.push_back(kBases[best]);
        }
        prev = best;
    }
    return out;
}

} // namespace gb
