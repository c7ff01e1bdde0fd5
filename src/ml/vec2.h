#ifndef MLCASK_ML_VEC2_H_
#define MLCASK_ML_VEC2_H_

#include <cstring>

namespace mlcask::ml {

/// Two doubles handled as one value through the GCC/Clang vector
/// extensions: one SSE2 register on the x86-64 baseline, NEON or scalar
/// pairs elsewhere. Each lane rounds exactly as the scalar expression would,
/// so a kernel that spreads only independent accumulators across lanes
/// (never the terms of one sum) returns the scalar kernel's bits. That
/// holds on an FMA-capable target too because the library is built with
/// -ffp-contract=off (CMakeLists.txt): no multiply and add is fused into
/// one rounding unless written as an FMA intrinsic.
typedef double V2 __attribute__((vector_size(16)));
/// What comparing two `V2` yields: per lane, all ones (true) or all zeros.
typedef decltype(V2{} < V2{}) V2Mask;

/// Unaligned load/store of two consecutive doubles.
inline V2 LoadV2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreV2(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

inline V2 SplatV2(double x) { return V2{x, x}; }

}  // namespace mlcask::ml

#endif  // MLCASK_ML_VEC2_H_
