/**
 * @file
 * Real SIMD PairHMM forward pass (the phmm engine).
 *
 * Executes the GATK GKL scheme that the instrumented kernel only
 * *models*: the float forward pass sweeps anti-diagonals of the
 * (read x haplotype) DP matrix, kF32Lanes cells per vector step —
 * along an anti-diagonal the three state recurrences have no
 * loop-carried dependency, which is exactly why GKL vectorizes this
 * way. The FTZ/DAZ guard stays on around the float pass, and results
 * that underflow re-run on the same kernel instantiated for double
 * (kF64Lanes cells per step) with denormals kept, as the template's
 * scalar double pass keeps them. The engine therefore preserves the
 * template's execution strategy and matches its log10 likelihoods,
 * used_double flags and cell counts bit for bit.
 *
 * The engine is the definition of the uninstrumented
 * gb::pairHmmLogLikelihood() and gb::runPhmmTask(..., NullProbe&)
 * declared in phmm/pairhmm.h. Dispatch: AVX2 (8 float / 4 double
 * lanes) / SSE4.2 (4 / 2) / the scalar template, chosen by
 * gb::simd::activeSimdLevel().
 */
#ifndef GB_SIMD_PHMM_ENGINE_H
#define GB_SIMD_PHMM_ENGINE_H

#include "phmm/pairhmm.h"
#include "simd/simd.h"

#endif // GB_SIMD_PHMM_ENGINE_H
