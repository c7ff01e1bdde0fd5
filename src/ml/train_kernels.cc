// Builds src/ml/train_kernels.inc twice: on two-lane vectors for every CPU,
// and on eight-lane AVX-512F/DQ vectors for the CPUs that have them.
//
// The library is built with -ffp-contract=off (CMakeLists.txt), so a
// multiply and an add stay two roundings even where the target has FMA, as
// the eight-lane one does. The eight-lane code is compiled for its target by
// `#pragma GCC target` below, which reaches only functions defined after
// it; every header is included first, so no inline function or template
// another file also instantiates is built for that target.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "ml/cpu.h"
#include "ml/tanh.h"
#include "ml/train_internal.h"
#include "ml/vec2.h"

#if defined(MLCASK_X86_64) && !defined(__clang__)
#define MLCASK_TRAIN_EIGHT_LANE 1
// GCC 12's AVX-512 intrinsics build their don't-care operands from a
// self-initialized variable, which -Wuninitialized reports at each use
// (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace mlcask::ml::train_internal {

namespace two_lane {

constexpr size_t kLanes = 2;
using Vec = V2;
// SSE2 has no load-and-splat, so a block row holds each value twice and a
// plain load reads it splatted.
constexpr size_t kSplat = 2;

inline Vec Load(const double* p) { return LoadV2(p); }
inline void Store(double* p, Vec v) { StoreV2(p, v); }
inline Vec LoadSplat(const double* xs) { return LoadV2(xs); }
inline Vec Splat(double x) { return SplatV2(x); }
// The first lane only: n is 1.
inline Vec LoadFirst(const double* p, size_t) { return V2{p[0], 0.0}; }
inline void StoreFirst(double* p, Vec v, size_t) { p[0] = v[0]; }

// All ones in the lanes it selects. An unselected lane adds +0.0: an error
// sum starts at +0.0 and adds only non-negative weights, so it is never
// -0.0, and x + 0.0 == x for every other x.
using RowMask = V2Mask;
inline RowMask LabelMask(bool positive) {
  return positive ? ~RowMask{} : RowMask{};
}
inline RowMask Below(Vec t, Vec r) { return t < r; }
inline Vec AddWhere(Vec sum, RowMask m, Vec w) {
  return sum + reinterpret_cast<V2>(m & reinterpret_cast<V2Mask>(w));
}
inline Vec Iota(double base) { return V2{base, base + 1}; }
constexpr size_t kThresholdSums = 4;

#include "ml/train_kernels.inc"

constexpr Kernels kKernels = {"two-lane", MlpFit, MlpPredict, AdaBoostFit};

}  // namespace two_lane

#if defined(MLCASK_TRAIN_EIGHT_LANE)

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")

namespace eight_lane {

constexpr size_t kLanes = 8;
using Vec = __m512d;
// Broadcast loads splat a value straight from the row.
constexpr size_t kSplat = 1;

inline Vec Load(const double* p) { return _mm512_loadu_pd(p); }
inline void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
inline Vec Splat(double x) { return _mm512_set1_pd(x); }
inline Vec LoadSplat(const double* xs) { return Splat(*xs); }
inline __mmask8 FirstLanes(size_t n) {
  return static_cast<__mmask8>((1u << n) - 1);
}
inline Vec LoadFirst(const double* p, size_t n) {
  return _mm512_maskz_loadu_pd(FirstLanes(n), p);
}
inline void StoreFirst(double* p, Vec v, size_t n) {
  _mm512_mask_storeu_pd(p, FirstLanes(n), v);
}

// A mask register. An unselected lane keeps its sum's bits, as the two-lane
// build's +0.0 does.
using RowMask = __mmask8;
inline RowMask LabelMask(bool positive) { return positive ? 0xff : 0; }
inline RowMask Below(Vec t, Vec r) {
  return _mm512_cmp_pd_mask(t, r, _CMP_LT_OQ);
}
inline Vec AddWhere(Vec sum, RowMask m, Vec w) {
  return _mm512_mask_add_pd(sum, m, sum, w);
}
inline Vec Iota(double base) {
  return Splat(base) + _mm512_setr_pd(0, 1, 2, 3, 4, 5, 6, 7);
}
constexpr size_t kThresholdSums = 2;

#include "ml/train_kernels.inc"

constexpr Kernels kKernels = {"eight-lane avx512f+dq", MlpFit, MlpPredict,
                              AdaBoostFit};

}  // namespace eight_lane

#pragma GCC pop_options

#endif  // MLCASK_TRAIN_EIGHT_LANE

const Kernels& TwoLane() { return two_lane::kKernels; }

const Kernels* EightLane() {
#if defined(MLCASK_TRAIN_EIGHT_LANE)
  if (cpu::HasEightLane()) return &eight_lane::kKernels;
#endif
  return nullptr;
}

const Kernels& Live() {
  static const Kernels& live =
      EightLane() != nullptr ? *EightLane() : TwoLane();
  return live;
}

}  // namespace mlcask::ml::train_internal
