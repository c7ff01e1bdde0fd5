#include "common/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sha256_internal.h"

namespace mlcask {
namespace {

// NIST FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::Digest(input).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  // Feed in awkward pieces to cross the 64-byte block boundary.
  h.Update(data.substr(0, 1));
  h.Update(data.substr(1, 30));
  h.Update(data.substr(31));
  EXPECT_EQ(h.Finish().ToHex(), Sha256::Digest(data).ToHex());
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("abc");
  Hash256 first = h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(h.Finish(), first);
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::Digest("a"), Sha256::Digest("b"));
  EXPECT_NE(Sha256::Digest("ab"), Sha256::Digest("ba"));
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 h = Sha256::Digest("round trip");
  Hash256 parsed;
  ASSERT_TRUE(Hash256::FromHex(h.ToHex(), &parsed));
  EXPECT_EQ(parsed, h);
}

TEST(Hash256Test, FromHexRejectsMalformed) {
  Hash256 out;
  EXPECT_FALSE(Hash256::FromHex("zz", &out));
  EXPECT_FALSE(Hash256::FromHex(std::string(63, 'a'), &out));
  EXPECT_FALSE(Hash256::FromHex(std::string(64, 'g'), &out));
  EXPECT_TRUE(Hash256::FromHex(std::string(64, 'a'), &out));
}

TEST(Hash256Test, ShortHexIsPrefix) {
  Hash256 h = Sha256::Digest("prefix");
  EXPECT_EQ(h.ShortHex(8), h.ToHex().substr(0, 8));
  EXPECT_EQ(h.ShortHex(100), h.ToHex());
}

TEST(Hash256Test, ZeroDetection) {
  Hash256 z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(Sha256::Digest("x").IsZero());
}

TEST(Hash256Test, OrderingIsLexicographic) {
  Hash256 a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

// Property: digests over a sweep of lengths around block boundaries never
// collide and incremental always equals one-shot.
class Sha256BoundarySweep : public ::testing::TestWithParam<int> {};

TEST_P(Sha256BoundarySweep, IncrementalEqualsOneShotAtBoundary) {
  int len = GetParam();
  std::string data(static_cast<size_t>(len), 'x');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i % 251);
  Sha256 h;
  size_t half = data.size() / 2;
  h.Update(data.substr(0, half));
  h.Update(data.substr(half));
  EXPECT_EQ(h.Finish(), Sha256::Digest(data));
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha256BoundarySweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 127, 128, 129, 1000));

// Every way to feed a 300-byte message in one, two or three Update calls
// gives the one-shot digest. Covers the whole-block path that compresses
// straight from the caller's memory after topping up a partial buffer. The
// message starts at an odd address.
TEST(Sha256Test, UpdateSplitsMatchOneShot) {
  std::vector<uint8_t> storage(301);
  for (size_t i = 0; i < storage.size(); ++i) {
    storage[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint8_t* msg = storage.data() + 1;
  const size_t n = 300;
  const Hash256 expected = Sha256::Digest(msg, n);
  for (size_t a = 0; a <= n; ++a) {
    for (size_t b = a; b <= n; ++b) {
      Sha256 h;
      h.Update(msg, a);
      h.Update(msg + a, b - a);
      h.Update(msg + b, n - b);
      ASSERT_EQ(h.Finish(), expected) << "pieces [0," << a << ") [" << a
                                      << "," << b << ") [" << b << "," << n
                                      << ")";
    }
  }
}

// The SHA-NI compressor must leave exactly the state the portable rounds
// do, from arbitrary states and for runs of several blocks.
TEST(Sha256CompressTest, ShaNiMatchesPortable) {
  const bool sha_ni = sha256_internal::HasShaNi();
  std::cout << "[ INFO     ] Sha256 compresses with the "
            << (sha_ni ? "sha-ni" : "portable") << " path\n";
#if defined(__x86_64__)
  if (!sha_ni) GTEST_SKIP() << "CPUID reports no SHA extensions";
  Pcg32 rng(20161);
  for (size_t blocks : {1, 2, 3, 16, 64}) {
    for (int trial = 0; trial < 8; ++trial) {
      // One spare byte in front so the blocks start at an odd address.
      std::vector<uint8_t> storage(blocks * 64 + 1);
      for (uint8_t& byte : storage) byte = static_cast<uint8_t>(rng.NextU32());
      uint32_t portable[8];
      for (uint32_t& word : portable) word = rng.NextU32();
      uint32_t hardware[8];
      std::memcpy(hardware, portable, sizeof(hardware));

      sha256_internal::CompressPortable(portable, storage.data() + 1, blocks);
      sha256_internal::CompressShaNi(hardware, storage.data() + 1, blocks);
      for (int w = 0; w < 8; ++w) {
        ASSERT_EQ(hardware[w], portable[w])
            << blocks << " blocks, trial " << trial << ", word " << w;
      }
    }
  }
#else
  GTEST_SKIP() << "SHA-NI exists only on x86-64";
#endif
}

}  // namespace
}  // namespace mlcask
