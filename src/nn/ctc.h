/**
 * @file
 * Connectionist Temporal Classification decoder.
 *
 * Basecallers emit per-frame probabilities over {blank, A, C, G, T};
 * a CTC decoder turns the frame sequence into a base sequence. This
 * is the greedy (best-path) decoder, the common fast approximation of
 * Bonito's beam search.
 */
#ifndef GB_NN_CTC_H
#define GB_NN_CTC_H

#include <string>

#include "nn/tensor.h"
#include "util/common.h"

namespace gb {

/** Alphabet layout: column 0 = blank, columns 1..4 = ACGT. */
inline constexpr u32 kCtcBlank = 0;
inline constexpr u32 kCtcClasses = 5;

/**
 * Greedy best-path decode of [T][5] probabilities: per-frame argmax,
 * collapse repeats, drop blanks.
 */
std::string ctcGreedyDecode(const Tensor2& probs);

} // namespace gb

#endif // GB_NN_CTC_H
