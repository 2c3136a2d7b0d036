/**
 * @file
 * Suffix-array construction (SA-IS).
 *
 * Substrate for the FM-index used by the fmi kernel. SA-IS (Nong, Zhang
 * and Chan, 2009) builds the suffix array of an n-symbol text in O(n)
 * time by induced sorting; this is the same family of construction
 * BWA-MEM2 uses for its index.
 */
#ifndef GB_INDEX_SUFFIX_ARRAY_H
#define GB_INDEX_SUFFIX_ARRAY_H

#include <vector>

#include "util/common.h"

namespace gb {

/**
 * Build the suffix array of `text`.
 *
 * Requirements: the text must be terminated by a single sentinel
 * symbol 0 that appears exactly once, at the end (the usual SA-IS
 * convention), and hold fewer than 2^32 - 1 symbols. The alphabet is
 * [0, max symbol]. Violations throw InputError.
 *
 * Memory: linear-space SA-IS. Besides the text and the returned 4n-byte
 * SA it keeps one type bit per symbol at every recursion level (n/4
 * bytes in all) and the buckets of one level at a time, k words for a
 * k-symbol level (the reduced texts and their names live inside SA).
 * A reduced alphabet is below n/2, so the peak is under 6.3 bytes per
 * symbol beyond the text; on DNA it is ~4.7 (~5.7 with the u8 text),
 * measured on the fmi kernel's 8 Mbp two-strand small text.
 *
 * @param text Symbol string ending in its unique smallest symbol 0.
 * @return SA with SA[i] = start of the i-th smallest suffix.
 */
std::vector<u32> buildSuffixArray(const std::vector<u8>& text);

/**
 * Reference O(n^2 log n) construction used as a test oracle.
 * Same contract as buildSuffixArray.
 */
std::vector<u32> buildSuffixArrayNaive(const std::vector<u8>& text);

/** Burrows-Wheeler transform from a text and its suffix array. */
std::vector<u8> bwtFromSuffixArray(const std::vector<u8>& text,
                                   const std::vector<u32>& sa);

} // namespace gb

#endif // GB_INDEX_SUFFIX_ARRAY_H
