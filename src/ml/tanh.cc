#include "ml/tanh.h"

#include <cmath>
#include <cstdint>

#include "ml/tanh_internal.h"

#if defined(MLCASK_TANH_X86_KERNELS)
// GCC 12's AVX-512 intrinsics build their don't-care operands from a
// self-initialized variable, which -Wuninitialized reports at each use
// (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

// Built with -ffp-contract=off, as the whole library (CMakeLists.txt): a
// multiply and an add in this file stay two roundings unless written as an
// FMA intrinsic.

namespace mlcask::ml {

namespace {

void TanhLoop(double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] = std::tanh(v[i]);
}

}  // namespace

#if defined(MLCASK_TANH_X86_KERNELS)

namespace {

// glibc 2.36 sysdeps/ieee754/dbl-64/s_expm1.c, the source of __expm1_fma.
constexpr double kLn2Hi = 6.93147180369123816490e-01;   // 0x3fe62e42fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;   // 0x3dea39ef35793c76
constexpr double kInvLn2 = 1.44269504088896338700e+00;  // 0x3ff71547652b82fe
constexpr double kQ1 = -3.33333333333331316428e-02;     // 0xbfa11111111110f4
constexpr double kQ2 = 1.58730158725481460165e-03;      // 0x3f5a01a019fe5585
constexpr double kQ3 = -7.93650757867487942473e-05;     // 0xbf14ce199eaadbb7
constexpr double kQ4 = 4.00821782732936239552e-06;      // 0x3ed0cfca86e65239
constexpr double kQ5 = -2.01099218183624371326e-07;     // 0xbe8afdb76e09c32d

// The C source reduces y only when the high word of |y| is above
// 0x3fd62e42, that is when |y| >= 0x3fd62e43:00000000.
constexpr double kHalfLn2Bound = 0x1.62e43p-2;

#define MLCASK_AVX2_FMA __attribute__((target("avx2,fma")))

MLCASK_AVX2_FMA inline __m256d Splat(double x) { return _mm256_set1_pd(x); }

MLCASK_AVX2_FMA inline __m256i Splat64(int64_t x) {
  return _mm256_set1_epi64x(x);
}

MLCASK_AVX2_FMA inline __m256d Select(__m256d mask, __m256d if_true,
                                      __m256d if_false) {
  return _mm256_blendv_pd(if_false, if_true, mask);
}

MLCASK_AVX2_FMA inline __m256d Select(__m256i mask, __m256d if_true,
                                      __m256d if_false) {
  return _mm256_blendv_pd(if_false, if_true, _mm256_castsi256_pd(mask));
}

// __expm1_fma(y) for y in [2, 44) or (-2, -2^-54], the arguments __tanh
// passes. Each lane computes every branch's value and keeps its own with a
// blend; the k = 1, tiny and overflow branches are never taken here.
MLCASK_AVX2_FMA inline __m256d Expm1(__m256d y) {
  const __m256d sign_bit = Splat(-0.0);
  const __m256d one = Splat(1.0);
  const __m256d half = Splat(0.5);
  const __m256d ay = _mm256_andnot_pd(sign_bit, y);

  // Argument reduction y = k*ln2 + (hi - lo), x = hi - lo, c its error.
  // k = (int)(invln2*y +- 0.5): an unfused multiply, then an add. The C
  // source sets k = -1, hi = y + ln2_hi and lo = -ln2_lo directly when the
  // high word puts |y| between 0.5 ln2 and 1.5 ln2; on that whole range
  // (only y < 0 reaches it) the computed k is -1, giving the same values.
  const __m256d half_signed = _mm256_or_pd(half, _mm256_and_pd(sign_bit, y));
  const __m128i k32 = _mm256_cvttpd_epi32(
      _mm256_add_pd(_mm256_mul_pd(y, Splat(kInvLn2)), half_signed));
  const __m256d t = _mm256_cvtepi32_pd(k32);
  __m256i k = _mm256_cvtepi32_epi64(k32);
  const __m256d hi = _mm256_fnmadd_pd(t, Splat(kLn2Hi), y);  // y - t*ln2_hi
  const __m256d lo = _mm256_mul_pd(t, Splat(kLn2Lo));
  __m256d x = _mm256_sub_pd(hi, lo);
  const __m256d c = _mm256_sub_pd(_mm256_sub_pd(hi, x), lo);
  // No reduction below the high-word bound, where the computed k may
  // already be -1: k = 0.
  const __m256d unreduced = _mm256_cmp_pd(ay, Splat(kHalfLn2Bound), _CMP_LT_OQ);
  x = Select(unreduced, y, x);
  k = _mm256_andnot_si256(_mm256_castpd_si256(unreduced), k);

  // x is now in the primary range.
  const __m256d hfx = _mm256_mul_pd(half, x);
  const __m256d hxs = _mm256_mul_pd(x, hfx);
  const __m256d r1_lo = _mm256_fmadd_pd(hxs, Splat(kQ1), one);
  const __m256d r2 = _mm256_fmadd_pd(hxs, Splat(kQ3), Splat(kQ2));
  const __m256d h2 = _mm256_mul_pd(hxs, hxs);
  const __m256d r3 = _mm256_fmadd_pd(hxs, Splat(kQ5), Splat(kQ4));
  const __m256d h4 = _mm256_mul_pd(h2, h2);
  const __m256d r1 =
      _mm256_fmadd_pd(h4, r3, _mm256_fmadd_pd(h2, r2, r1_lo));
  const __m256d t3 = _mm256_fnmadd_pd(r1, hfx, Splat(3.0));
  __m256d e = _mm256_mul_pd(
      hxs, _mm256_div_pd(_mm256_sub_pd(r1, t3),
                         _mm256_fnmadd_pd(x, t3, Splat(6.0))));

  // k = 0: x - (x*e - hxs).
  const __m256d k0 = _mm256_sub_pd(x, _mm256_fmsub_pd(x, e, hxs));
  e = _mm256_sub_pd(_mm256_fmsub_pd(x, _mm256_sub_pd(e, c), c), hxs);
  // k = -1: 0.5*(x - e) - 0.5.
  const __m256d k_minus1 =
      _mm256_fmadd_pd(half, _mm256_sub_pd(x, e), Splat(-0.5));

  // Any other k: a value near 1 whose exponent gets k added.
  const __m256d e_minus_x = _mm256_sub_pd(e, x);
  // 2 <= k <= 19: (1 - 2^-k) - (e - x).
  const __m256i one_minus = _mm256_slli_epi64(
      _mm256_sub_epi64(Splat64(0x3ff00000),
                       _mm256_srlv_epi64(Splat64(0x200000), k)),
      32);
  const __m256d near_low =
      _mm256_sub_pd(_mm256_castsi256_pd(one_minus), e_minus_x);
  // 20 <= k <= 56: (x - (e + 2^-k)) + 1.
  const __m256i two_minus_k =
      _mm256_slli_epi64(_mm256_sub_epi64(Splat64(0x3ff), k), 52);
  const __m256d near_mid = _mm256_add_pd(
      _mm256_sub_pd(x, _mm256_add_pd(e, _mm256_castsi256_pd(two_minus_k))),
      one);
  // k <= -2 or k > 56: 1 - (e - x), with 1 subtracted after the scaling.
  const __m256d near_far = _mm256_sub_pd(one, e_minus_x);
  const __m256i k_above1 = _mm256_cmpgt_epi64(k, Splat64(1));
  const __m256i k_below20 = _mm256_cmpgt_epi64(Splat64(20), k);
  const __m256i k_below57 = _mm256_cmpgt_epi64(Splat64(57), k);
  const __m256i low = _mm256_and_si256(k_above1, k_below20);
  const __m256i scaled_only = _mm256_and_si256(k_above1, k_below57);
  __m256d near = Select(_mm256_andnot_si256(k_below20, k_below57), near_mid,
                        near_far);
  near = Select(low, near_low, near);
  // Adds k to the high word's exponent field; the low word is untouched.
  near = _mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(near),
                                              _mm256_slli_epi64(k, 52)));
  near = Select(scaled_only, near, _mm256_sub_pd(near, one));

  __m256d out = Select(_mm256_cmpeq_epi64(k, Splat64(-1)), k_minus1, near);
  return Select(_mm256_cmpeq_epi64(k, Splat64(0)), k0, out);
}

// glibc 2.36 sysdeps/ieee754/dbl-64/s_tanh.c for finite lanes.
MLCASK_AVX2_FMA inline __m256d Tanh4(__m256d x) {
  const __m256d sign_bit = Splat(-0.0);
  const __m256d one = Splat(1.0);
  const __m256d two = Splat(2.0);
  const __m256d ax = _mm256_andnot_pd(sign_bit, x);
  // |x| >= 1: 1 - 2/(expm1(2|x|) + 2); else -t/(t + 2), t = expm1(-2|x|).
  const __m256d at_least_one = _mm256_cmp_pd(ax, one, _CMP_GE_OQ);
  const __m256d t = Expm1(Select(at_least_one, _mm256_add_pd(ax, ax),
                                 _mm256_mul_pd(ax, Splat(-2.0))));
  // One division serves both: 2/(t + 2) or -t/(t + 2).
  const __m256d q = _mm256_div_pd(
      Select(at_least_one, two, _mm256_xor_pd(t, sign_bit)),
      _mm256_add_pd(t, two));
  __m256d z = Select(at_least_one, _mm256_sub_pd(one, q), q);
  // |x| >= 22: one - tiny.
  z = Select(_mm256_cmp_pd(ax, Splat(22.0), _CMP_GE_OQ), Splat(1.0 - 1e-300),
             z);
  z = _mm256_xor_pd(z, _mm256_and_pd(sign_bit, x));
  // |x| < 2^-55: x*(1 + x), which keeps +-0.
  return Select(_mm256_cmp_pd(ax, Splat(0x1p-55), _CMP_LT_OQ),
                _mm256_mul_pd(_mm256_add_pd(one, x), x), z);
}

// Tanh4, with a non-finite lane recomputed by std::tanh.
MLCASK_AVX2_FMA inline __m256d Tanh4Checked(__m256d x) {
  const __m256d z = Tanh4(x);
  const int non_finite = _mm256_movemask_pd(
      _mm256_cmp_pd(_mm256_andnot_pd(Splat(-0.0), x), Splat(INFINITY),
                    _CMP_NLT_UQ));
  if (non_finite == 0) return z;
  double in[4], out[4];
  _mm256_storeu_pd(in, x);
  _mm256_storeu_pd(out, z);
  for (int lane = 0; lane < 4; ++lane) {
    if ((non_finite >> lane) & 1) out[lane] = std::tanh(in[lane]);
  }
  return _mm256_loadu_pd(out);
}

// The same sequence on eight lanes: AVX-512F, plus AVX-512DQ for the
// bitwise operations on doubles. Each comparison yields a mask register and
// each choice is a masked blend; the arithmetic, its order and the eleven
// fused sites are those of Expm1 and Tanh4 above.
#define MLCASK_AVX512 __attribute__((target("avx512f,avx512dq")))

MLCASK_AVX512 inline __m512d Splat8(double x) { return _mm512_set1_pd(x); }

MLCASK_AVX512 inline __m512i Splat8i(int64_t x) {
  return _mm512_set1_epi64(x);
}

MLCASK_AVX512 inline __m512d Select(__mmask8 mask, __m512d if_true,
                                    __m512d if_false) {
  return _mm512_mask_blend_pd(mask, if_false, if_true);
}

MLCASK_AVX512 inline __m512d Expm1x8(__m512d y) {
  const __m512d sign_bit = Splat8(-0.0);
  const __m512d one = Splat8(1.0);
  const __m512d half = Splat8(0.5);
  const __m512d ay = _mm512_andnot_pd(sign_bit, y);

  const __m512d half_signed = _mm512_or_pd(half, _mm512_and_pd(sign_bit, y));
  const __m256i k32 = _mm512_cvttpd_epi32(
      _mm512_add_pd(_mm512_mul_pd(y, Splat8(kInvLn2)), half_signed));
  const __m512d t = _mm512_cvtepi32_pd(k32);
  __m512i k = _mm512_cvtepi32_epi64(k32);
  const __m512d hi = _mm512_fnmadd_pd(t, Splat8(kLn2Hi), y);  // y - t*ln2_hi
  const __m512d lo = _mm512_mul_pd(t, Splat8(kLn2Lo));
  __m512d x = _mm512_sub_pd(hi, lo);
  const __m512d c = _mm512_sub_pd(_mm512_sub_pd(hi, x), lo);
  const __mmask8 unreduced =
      _mm512_cmp_pd_mask(ay, Splat8(kHalfLn2Bound), _CMP_LT_OQ);
  x = Select(unreduced, y, x);
  k = _mm512_maskz_mov_epi64(static_cast<__mmask8>(~unreduced), k);

  const __m512d hfx = _mm512_mul_pd(half, x);
  const __m512d hxs = _mm512_mul_pd(x, hfx);
  const __m512d r1_lo = _mm512_fmadd_pd(hxs, Splat8(kQ1), one);
  const __m512d r2 = _mm512_fmadd_pd(hxs, Splat8(kQ3), Splat8(kQ2));
  const __m512d h2 = _mm512_mul_pd(hxs, hxs);
  const __m512d r3 = _mm512_fmadd_pd(hxs, Splat8(kQ5), Splat8(kQ4));
  const __m512d h4 = _mm512_mul_pd(h2, h2);
  const __m512d r1 =
      _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1_lo));
  const __m512d t3 = _mm512_fnmadd_pd(r1, hfx, Splat8(3.0));
  __m512d e = _mm512_mul_pd(
      hxs, _mm512_div_pd(_mm512_sub_pd(r1, t3),
                         _mm512_fnmadd_pd(x, t3, Splat8(6.0))));

  const __m512d k0 = _mm512_sub_pd(x, _mm512_fmsub_pd(x, e, hxs));
  e = _mm512_sub_pd(_mm512_fmsub_pd(x, _mm512_sub_pd(e, c), c), hxs);
  const __m512d k_minus1 =
      _mm512_fmadd_pd(half, _mm512_sub_pd(x, e), Splat8(-0.5));

  const __m512d e_minus_x = _mm512_sub_pd(e, x);
  const __m512i one_minus = _mm512_slli_epi64(
      _mm512_sub_epi64(Splat8i(0x3ff00000),
                       _mm512_srlv_epi64(Splat8i(0x200000), k)),
      32);
  const __m512d near_low =
      _mm512_sub_pd(_mm512_castsi512_pd(one_minus), e_minus_x);
  const __m512i two_minus_k =
      _mm512_slli_epi64(_mm512_sub_epi64(Splat8i(0x3ff), k), 52);
  const __m512d near_mid = _mm512_add_pd(
      _mm512_sub_pd(x, _mm512_add_pd(e, _mm512_castsi512_pd(two_minus_k))),
      one);
  const __m512d near_far = _mm512_sub_pd(one, e_minus_x);
  const __mmask8 k_above1 = _mm512_cmpgt_epi64_mask(k, Splat8i(1));
  const __mmask8 k_below20 = _mm512_cmpgt_epi64_mask(Splat8i(20), k);
  const __mmask8 k_below57 = _mm512_cmpgt_epi64_mask(Splat8i(57), k);
  __m512d near = Select(static_cast<__mmask8>(~k_below20 & k_below57),
                        near_mid, near_far);
  near = Select(static_cast<__mmask8>(k_above1 & k_below20), near_low, near);
  near = _mm512_castsi512_pd(_mm512_add_epi64(_mm512_castpd_si512(near),
                                              _mm512_slli_epi64(k, 52)));
  near = Select(static_cast<__mmask8>(k_above1 & k_below57), near,
                _mm512_sub_pd(near, one));

  __m512d out =
      Select(_mm512_cmpeq_epi64_mask(k, Splat8i(-1)), k_minus1, near);
  return Select(_mm512_cmpeq_epi64_mask(k, Splat8i(0)), k0, out);
}

MLCASK_AVX512 inline __m512d Tanh8(__m512d x) {
  const __m512d sign_bit = Splat8(-0.0);
  const __m512d one = Splat8(1.0);
  const __m512d two = Splat8(2.0);
  const __m512d ax = _mm512_andnot_pd(sign_bit, x);
  const __mmask8 at_least_one = _mm512_cmp_pd_mask(ax, one, _CMP_GE_OQ);
  const __m512d t = Expm1x8(Select(at_least_one, _mm512_add_pd(ax, ax),
                                   _mm512_mul_pd(ax, Splat8(-2.0))));
  const __m512d q = _mm512_div_pd(
      Select(at_least_one, two, _mm512_xor_pd(t, sign_bit)),
      _mm512_add_pd(t, two));
  __m512d z = Select(at_least_one, _mm512_sub_pd(one, q), q);
  z = Select(_mm512_cmp_pd_mask(ax, Splat8(22.0), _CMP_GE_OQ),
             Splat8(1.0 - 1e-300), z);
  z = _mm512_xor_pd(z, _mm512_and_pd(sign_bit, x));
  return Select(_mm512_cmp_pd_mask(ax, Splat8(0x1p-55), _CMP_LT_OQ),
                _mm512_mul_pd(_mm512_add_pd(one, x), x), z);
}

MLCASK_AVX512 inline __m512d Tanh8Checked(__m512d x) {
  const __m512d z = Tanh8(x);
  const __mmask8 non_finite =
      _mm512_cmp_pd_mask(_mm512_andnot_pd(Splat8(-0.0), x),
                         Splat8(INFINITY), _CMP_NLT_UQ);
  if (non_finite == 0) return z;
  double in[8], out[8];
  _mm512_storeu_pd(in, x);
  _mm512_storeu_pd(out, z);
  for (int lane = 0; lane < 8; ++lane) {
    if ((non_finite >> lane) & 1) out[lane] = std::tanh(in[lane]);
  }
  return _mm512_loadu_pd(out);
}

}  // namespace

namespace tanh_internal {

size_t LiveLanes() {
  return cpu::HasEightLane() ? 8 : cpu::HasFourLane() ? 4 : 1;
}

MLCASK_AVX2_FMA void TanhFourLane(double* v, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, Tanh4Checked(_mm256_loadu_pd(v + i)));
  }
  if (i == n) return;
  // The last n % 4 values as one vector: the other lanes load as zero and
  // are not stored.
  const __m256i tail = _mm256_cmpgt_epi64(
      Splat64(static_cast<int64_t>(n - i)), _mm256_setr_epi64x(0, 1, 2, 3));
  _mm256_maskstore_pd(v + i, tail,
                      Tanh4Checked(_mm256_maskload_pd(v + i, tail)));
}

MLCASK_AVX512 void TanhEightLane(double* v, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, Tanh8Checked(_mm512_loadu_pd(v + i)));
  }
  if (i == n) return;
  // The last n % 8 values as one vector, as in TanhFourLane.
  const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1);
  _mm512_mask_storeu_pd(v + i, tail,
                        Tanh8Checked(_mm512_maskz_loadu_pd(tail, v + i)));
}

#undef MLCASK_AVX512
#undef MLCASK_AVX2_FMA

}  // namespace tanh_internal

void TanhInPlace(double* v, size_t n) {
  static void (*const kernel)(double*, size_t) =
      cpu::HasEightLane()  ? tanh_internal::TanhEightLane
      : cpu::HasFourLane() ? tanh_internal::TanhFourLane
                           : TanhLoop;
  kernel(v, n);
}

#else

namespace tanh_internal {

size_t LiveLanes() { return 1; }

}  // namespace tanh_internal

void TanhInPlace(double* v, size_t n) { TanhLoop(v, n); }

#endif

}  // namespace mlcask::ml
