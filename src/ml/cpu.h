#ifndef MLCASK_ML_CPU_H_
#define MLCASK_ML_CPU_H_

// The CPU probe behind the ML kernels' vector paths: the hidden-layer tanh
// (`TanhInPlace`) and the MLP and AdaBoost training kernels
// (`src/ml/train_internal.h`) each pick their path from these, once.

#if defined(__x86_64__) && defined(__GNUC__)
#define MLCASK_X86_64 1
#endif

namespace mlcask::ml::cpu {

/// True when the CPU passes the test glibc makes before it binds
/// `__expm1_fma`: CPUID reports FMA, AVX and AVX2, and XGETBV shows the OS
/// saves XMM and YMM state. Detected once; always false on other builds.
bool HasFourLane();

/// True when `HasFourLane()` holds and CPUID also reports AVX-512F and
/// AVX-512DQ, and XGETBV shows the OS saves opmask and ZMM state. Detected
/// once; always false on other builds.
bool HasEightLane();

}  // namespace mlcask::ml::cpu

#endif  // MLCASK_ML_CPU_H_
