#ifndef MLCASK_ML_TANH_INTERNAL_H_
#define MLCASK_ML_TANH_INTERNAL_H_

// The kernels behind `TanhInPlace`, exposed for the differential test and
// the micro bench. Not part of the library's API.

#include <cstddef>
#include <cstdint>  // on glibc, defines __GLIBC__

#include "ml/cpu.h"

#if defined(MLCASK_X86_64) && defined(__GLIBC__)
#define MLCASK_TANH_X86_KERNELS 1
#endif

namespace mlcask::ml::tanh_internal {

/// The lane width of the kernel `TanhInPlace` runs on this CPU: 8, 4, or 1
/// for the std::tanh loop.
size_t LiveLanes();

#if defined(MLCASK_TANH_X86_KERNELS)
/// `TanhInPlace`'s contract on four lanes per instruction (AVX2 and FMA).
/// Call only when `cpu::HasFourLane()` is true.
void TanhFourLane(double* v, size_t n);

/// `TanhInPlace`'s contract on eight lanes per instruction (AVX-512F and
/// DQ). Call only when `cpu::HasEightLane()` is true.
void TanhEightLane(double* v, size_t n);
#endif

}  // namespace mlcask::ml::tanh_internal

#endif  // MLCASK_ML_TANH_INTERNAL_H_
