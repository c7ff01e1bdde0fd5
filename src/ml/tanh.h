#ifndef MLCASK_ML_TANH_H_
#define MLCASK_ML_TANH_H_

#include <cstddef>

namespace mlcask::ml {

/// Replaces each v[i] with std::tanh(v[i]), bit for bit.
///
/// On x86-64 glibc builds whose CPU has AVX2 and FMA usable, std::tanh is
/// glibc's `__tanh` over `__expm1_fma`, a fixed sequence of IEEE operations;
/// this computes that sequence on four values per instruction, fusing
/// exactly where `__expm1_fma` fuses. Every other build or CPU runs the
/// std::tanh loop.
void TanhInPlace(double* v, size_t n);

/// True when TanhInPlace runs the four-lane path on this CPU: CPUID reports
/// FMA, AVX and AVX2, and XGETBV shows the OS saves YMM state (the test
/// glibc makes before it binds `__expm1_fma`). Detected once; always false
/// on other builds.
bool TanhIsVectorized();

}  // namespace mlcask::ml

#endif  // MLCASK_ML_TANH_H_
