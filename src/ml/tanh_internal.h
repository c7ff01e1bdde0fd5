#ifndef MLCASK_ML_TANH_INTERNAL_H_
#define MLCASK_ML_TANH_INTERNAL_H_

// The kernels behind `TanhInPlace`, exposed for the differential test and
// the micro bench. Not part of the library's API.

#include <cstddef>
#include <cstdint>  // on glibc, defines __GLIBC__

#if defined(__x86_64__) && defined(__GLIBC__)
#define MLCASK_TANH_X86_KERNELS 1
#endif

namespace mlcask::ml::tanh_internal {

/// True when the CPU passes the test glibc makes before it binds
/// `__expm1_fma`: CPUID reports FMA, AVX and AVX2, and XGETBV shows the OS
/// saves XMM and YMM state. Detected once; always false on other builds.
bool HasFourLane();

/// True when `HasFourLane()` holds and CPUID also reports AVX-512F and
/// AVX-512DQ, and XGETBV shows the OS saves opmask and ZMM state. Detected
/// once; always false on other builds.
bool HasEightLane();

/// The lane width of the kernel `TanhInPlace` runs on this CPU: 8, 4, or 1
/// for the std::tanh loop.
size_t LiveLanes();

#if defined(MLCASK_TANH_X86_KERNELS)
/// `TanhInPlace`'s contract on four lanes per instruction (AVX2 and FMA).
/// Call only when `HasFourLane()` is true.
void TanhFourLane(double* v, size_t n);

/// `TanhInPlace`'s contract on eight lanes per instruction (AVX-512F and
/// DQ). Call only when `HasEightLane()` is true.
void TanhEightLane(double* v, size_t n);
#endif

}  // namespace mlcask::ml::tanh_internal

#endif  // MLCASK_ML_TANH_INTERNAL_H_
