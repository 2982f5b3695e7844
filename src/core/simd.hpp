// Portable SIMD annotation for the DP gather loops.
//
// MH_SIMD_LOOP marks a loop whose iterations are independent element-wise
// assignments (no reductions, no cross-iteration dependencies) so the
// compiler may vectorize it. It expands to `#pragma omp simd` when the build
// defines MH_SIMD_ENABLED (CMake does whenever the compiler accepts
// -fopenmp-simd — the pragma-only mode, no OpenMP runtime, no _OPENMP) and
// to nothing otherwise, leaving the identical scalar loop.
//
// Contract: annotate ONLY loops where each iteration computes its own output
// cell in a fixed per-element FP order. Vectorization then processes lanes
// in parallel without reassociating within an element, so Reference stays
// bit-identical and Fast keeps its pinned tolerance. Never annotate a
// reduction (sinks, nonneg_mass): lane-split accumulation reorders adds.
#pragma once

#if defined(MH_SIMD_ENABLED)
#define MH_SIMD_LOOP _Pragma("omp simd")
#else
#define MH_SIMD_LOOP
#endif
