// TanhInPlace and each of its kernels against std::tanh, bit for bit:
// every output is compared with memcmp. Where the CPU has AVX2 and FMA,
// TanhInPlace runs a four- or eight-lane transcription of glibc's __tanh
// over __expm1_fma; every case below runs on each kernel the CPU can run
// (and skips, naming what the CPU lacks, on the others): random inputs, the
// neighbourhood of every branch point, the special values, every vector
// tail, and inputs recorded because they tell a fused step from an unfused
// one. Elsewhere TanhInPlace is the std::tanh loop itself.

#include "ml/tanh.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/tanh_internal.h"

namespace mlcask::ml {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double FromBits(uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

struct Kernel {
  const char* name;
  const char* needs;  // what the CPU must have, for the skip message
  bool (*usable)();
  void (*run)(double*, size_t);
};

// Names the kernel in gtest's failure messages.
void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }

bool Always() { return true; }

const Kernel kKernels[] = {
    {"TanhInPlace", "nothing", Always, TanhInPlace},
#if defined(MLCASK_TANH_X86_KERNELS)
    {"FourLane", "AVX2 and FMA", cpu::HasFourLane,
     tanh_internal::TanhFourLane},
    {"EightLane", "AVX2, FMA, AVX-512F and AVX-512DQ",
     cpu::HasEightLane, tanh_internal::TanhEightLane},
#endif
};

const char* LivePath() {
  switch (tanh_internal::LiveLanes()) {
    case 8:
      return "eight-lane avx512f+dq";
    case 4:
      return "four-lane avx2+fma";
    default:
      return "std::tanh loop";
  }
}

class TanhTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().usable()) {
      GTEST_SKIP() << GetParam().name << ": CPU lacks " << GetParam().needs;
    }
  }

  // Runs the kernel over `in` and compares each output with std::tanh of
  // the same input; reports the first few differences.
  ::testing::AssertionResult MatchesStdTanh(const std::vector<double>& in) {
    std::vector<double> out = in;
    GetParam().run(out.data(), out.size());
    size_t mismatches = 0;
    auto failure = ::testing::AssertionFailure() << GetParam().name;
    for (size_t i = 0; i < in.size(); ++i) {
      const double want = std::tanh(in[i]);
      if (std::memcmp(&want, &out[i], sizeof want) == 0) continue;
      if (++mismatches <= 5) {
        char line[160];
        std::snprintf(line, sizeof line, "\n  tanh(%a): got %a, std::tanh %a",
                      in[i], out[i], want);
        failure << line;
      }
    }
    if (mismatches == 0) return ::testing::AssertionSuccess();
    return failure << "\n" << mismatches << " of " << in.size() << " differ";
  }
};

INSTANTIATE_TEST_SUITE_P(Kernels, TanhTest, ::testing::ValuesIn(kKernels),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           return std::string(info.param.name);
                         });

TEST(TanhDispatchTest, ReportsLivePath) {
  std::printf("[ tanh     ] TanhInPlace path: %s\n", LivePath());
  RecordProperty("tanh_path", LivePath());
  RecordProperty("tanh_lanes", static_cast<int>(tanh_internal::LiveLanes()));
}

// ±0, subnormals, the largest finite values, infinities and NaNs: the
// non-finite lanes go through std::tanh, the tiny ones take x*(1 + x).
TEST_P(TanhTest, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double min_sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> in = {0.0,      -0.0,     min_sub,  -min_sub,
                            0x1p-1060, -0x1p-1060, FromBits(0x000fffffffffffff),
                            DBL_MIN,  -DBL_MIN, DBL_MAX,  -DBL_MAX,
                            inf,      -inf,     nan,      -nan,
                            22.0,     -22.0,    1.0,      -1.0};
  // Non-finite inputs in every lane position of an eight-value vector,
  // next to finite ones.
  for (int lane = 0; lane < 8; ++lane) {
    for (double special : {inf, -inf, nan}) {
      for (int j = 0; j < 8; ++j) in.push_back(j == lane ? special : 0.5 * j);
    }
  }
  EXPECT_TRUE(MatchesStdTanh(in));
}

// Every length from 0 to 16 at an odd offset: the last n % 4 or n % 8
// values run as one zero-padded vector, and nothing outside [v, v + n) is
// written. Each length also runs with each non-finite value at each
// position, so the tail lanes take the std::tanh path too.
TEST_P(TanhTest, EveryTailLength) {
  constexpr double kGuard = 12345.0;
  const double specials[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  for (size_t n = 0; n <= 16; ++n) {
    std::vector<double> base(n + 3, kGuard);
    for (size_t i = 0; i < n; ++i) {
      base[1 + i] = 0.37 * static_cast<double>(i) - 1.1;
    }
    // at == n: all finite; otherwise specials[k] at position `at`.
    for (size_t at = 0; at <= n; ++at) {
      for (size_t k = 0; k < (at == n ? 1 : 3); ++k) {
        std::vector<double> buf(base);
        if (at < n) buf[1 + at] = specials[k];
        std::vector<double> want(buf);
        for (size_t i = 0; i < n; ++i) want[1 + i] = std::tanh(want[1 + i]);
        GetParam().run(buf.data() + 1, n);
        EXPECT_EQ(
            std::memcmp(buf.data(), want.data(), buf.size() * sizeof(double)),
            0)
            << GetParam().name << ": n = " << n << ", special at " << at;
      }
    }
  }
}

// 4M inputs: log-uniform magnitudes 2^-60..2^5 of both signs, uniform in
// ±30, and N(0, 1.5).
TEST_P(TanhTest, RandomSweep) {
  Pcg32 rng(20);
  constexpr size_t kPerKind = 1 << 20;
  std::vector<double> in;
  in.reserve(4 * kPerKind);
  for (size_t i = 0; i < 2 * kPerKind; ++i) {
    const double x = std::exp2(rng.Uniform(-60, 5));
    in.push_back(rng.Bernoulli(0.5) ? -x : x);
  }
  for (size_t i = 0; i < kPerKind; ++i) in.push_back(rng.Uniform(-30, 30));
  for (size_t i = 0; i < kPerKind; ++i) in.push_back(1.5 * rng.NextGaussian());
  EXPECT_TRUE(MatchesStdTanh(in));
}

// ±20,000 ulps around each point where __tanh or __expm1_fma changes
// branch, both signs.
TEST_P(TanhTest, BranchNeighbourhoods) {
  const double ln2 = 0.6931471805599453;
  const std::vector<double> points = {
      0x1p-55,              // x*(1 + x) below, expm1 above
      0.25 * ln2,           // expm1(-2|x|): k = 0 | k = -1 reduction
      0x1.62e43p-3,         //   ... as the high word of 2|x| decides it
      0.75 * ln2,           // k = -1 reduction | general k
      0x1.0a2b2p-1,         //   ... as the high word decides it
      2.5 * ln2 / 2,        // k = -2 | -3
      1.0,                  // expm1(-2|x|) | expm1(2|x|)
      3.5 * ln2 / 2,        // k = 3 | 4
      19.5 * ln2 / 2,       // k = 19 | 20: 1 - 2^-k | 2^-k rebuild
      20.5 * ln2 / 2,       // k = 20 | 21
      56.5 * ln2 / 2,       // k = 56 | 57: last 2^-k rebuild
      57.5 * ln2 / 2,       // k = 57 | 58
      22.0,                 // 1 - tiny from here on
  };
  constexpr int64_t kUlps = 20000;
  std::vector<double> in;
  in.reserve(points.size() * 2 * (2 * kUlps + 1));
  for (double p : points) {
    for (int64_t d = -kUlps; d <= kUlps; ++d) {
      const double x = FromBits(Bits(p) + static_cast<uint64_t>(d));
      in.push_back(x);
      in.push_back(-x);
    }
  }
  EXPECT_TRUE(MatchesStdTanh(in));
}

// Inputs on which one fused step of __expm1_fma, computed unfused instead
// (a multiply and an add, two roundings), returns other bits than
// std::tanh. Found offline by mutating one step at a time over 10^8 random
// inputs (log-uniform magnitudes 2^-56..22, uniform in ±22 and N(0, 1.5)).
// Random sampling finds them rarely or never for the other steps: `hi =
// y - t*ln2_hi` and `0.5*(x - e) - 0.5` round the same either way (the
// product is exact), a fused `k = trunc(y*invln2 +- 0.5)` gives the same
// k on every input within 2^22 ulps of each integer boundary, and the
// R2/R3 and Estrin steps change r1 by a term scaled by h2 <= 2^-8 or h4.
TEST_P(TanhTest, InputsThatSeparateFusedFromUnfusedSteps) {
  const std::vector<double> in = {
      // R1 = 1 + hxs*Q1 (five hits in 10^8).
      -0x1.7cb62c7a442e5p-3, -0x1.44ac59f44426ep-3, -0x1.e3e856ed200a9p-5,
      0x1.aca45ed03f51fp-4, 0x1.9e6f66e6a1f12p-3,
      // t = 3 - r1*hfx.
      -0x1.1fc3f50d05ba8p-3, 0x1.ff3540691be2ep-2, -0x1.1397a66fcd6f1p-1,
      -0x1.848bfd0d1d920p+0,
      // 6 - x*t.
      0x1.ea9ab10820678p-4, -0x1.8314674ab9fd2p-3, -0x1.27cb4889a85a5p-1,
      0x1.33f04258a6bcep+0,
      // x*e - hxs (k = 0).
      -0x1.f2dbf044256abp-4, -0x1.46201ceeb88bcp-3, 0x1.1be343844549cp-3,
      // x*(e - c) - c.
      0x1.b3e9ec1748f99p-3, 0x1.1acbd636c0a5ep-1, 0x1.2ab61b4f3fc96p+0,
  };
  EXPECT_TRUE(MatchesStdTanh(in));
}

}  // namespace
}  // namespace mlcask::ml
