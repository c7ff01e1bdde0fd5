#ifndef MLCASK_ML_TANH_H_
#define MLCASK_ML_TANH_H_

#include <cstddef>

namespace mlcask::ml {

/// Replaces each v[i] with std::tanh(v[i]), bit for bit.
///
/// On x86-64 glibc builds whose CPU has AVX2 and FMA usable, std::tanh is
/// glibc's `__tanh` over `__expm1_fma`, a fixed sequence of IEEE operations;
/// this computes that sequence on eight values per instruction where the
/// CPU also has AVX-512F and DQ, four otherwise, fusing exactly where
/// `__expm1_fma` fuses. Every other build or CPU runs the std::tanh loop.
/// The kernel is chosen once, by CPUID and XGETBV (`src/ml/cpu.h`).
void TanhInPlace(double* v, size_t n);

}  // namespace mlcask::ml

#endif  // MLCASK_ML_TANH_H_
