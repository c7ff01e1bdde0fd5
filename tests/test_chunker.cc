#include "storage/chunker.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string_view>

#include "common/rng.h"

namespace mlcask::storage {
namespace {

std::string RandomBytes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextU32() & 0xff);
  return out;
}

void ExpectCovers(const std::vector<std::pair<size_t, size_t>>& pieces,
                  size_t total) {
  size_t expected_off = 0;
  for (const auto& [off, len] : pieces) {
    EXPECT_EQ(off, expected_off);
    EXPECT_GT(len, 0u);
    expected_off = off + len;
  }
  EXPECT_EQ(expected_off, total);
}

TEST(FixedChunkerTest, EmptyInputNoChunks) {
  FixedChunker c(8);
  EXPECT_TRUE(c.Split("").empty());
}

TEST(FixedChunkerTest, ExactMultiple) {
  FixedChunker c(4);
  auto pieces = c.Split("abcdefgh");
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], (std::pair<size_t, size_t>{0, 4}));
  EXPECT_EQ(pieces[1], (std::pair<size_t, size_t>{4, 4}));
}

TEST(FixedChunkerTest, Remainder) {
  FixedChunker c(4);
  auto pieces = c.Split("abcdefghij");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[2], (std::pair<size_t, size_t>{8, 2}));
}

TEST(FixedChunkerTest, CoversArbitraryInput) {
  FixedChunker c(100);
  std::string data = RandomBytes(12345, 1);
  ExpectCovers(c.Split(data), data.size());
}

TEST(GearChunkerTest, EmptyInputNoChunks) {
  GearChunker c;
  EXPECT_TRUE(c.Split("").empty());
}

TEST(GearChunkerTest, CoversInputAndRespectsBounds) {
  GearChunker c(64, 256, 1024);
  std::string data = RandomBytes(100000, 2);
  auto pieces = c.Split(data);
  ExpectCovers(pieces, data.size());
  for (size_t i = 0; i + 1 < pieces.size(); ++i) {  // last piece may be short
    EXPECT_GE(pieces[i].second, 64u);
    EXPECT_LE(pieces[i].second, 1024u);
  }
}

TEST(GearChunkerTest, AverageChunkSizeNearTarget) {
  GearChunker c(256, 1024, 8192);
  std::string data = RandomBytes(1 << 20, 3);
  auto pieces = c.Split(data);
  double avg = static_cast<double>(data.size()) / pieces.size();
  // Gear CDC with min-size clamping lands near (but above) the mask target.
  EXPECT_GT(avg, 512.0);
  EXPECT_LT(avg, 4096.0);
}

TEST(GearChunkerTest, Deterministic) {
  GearChunker a, b;
  std::string data = RandomBytes(50000, 4);
  EXPECT_EQ(a.Split(data), b.Split(data));
}

// The property that matters for de-duplication: editing a region only
// disturbs boundaries near the edit. Chunks after the edit realign.
TEST(GearChunkerTest, BoundariesRealignAfterInsertion) {
  GearChunker c(64, 512, 4096);
  std::string data = RandomBytes(200000, 5);
  std::string edited = data;
  edited.insert(1000, "INSERTED-REGION");

  auto ChunkSet = [&](const std::string& d) {
    std::set<std::string> out;
    for (const auto& [off, len] : c.Split(d)) {
      out.insert(d.substr(off, len));
    }
    return out;
  };
  std::set<std::string> orig = ChunkSet(data);
  std::set<std::string> after = ChunkSet(edited);
  size_t shared = 0;
  for (const auto& ch : after) {
    if (orig.count(ch)) ++shared;
  }
  // The vast majority of chunks must be shared (only those covering the
  // insertion point change).
  EXPECT_GT(shared, after.size() * 8 / 10);
}

TEST(FixedChunkerTest, InsertionDestroysAlignment) {
  FixedChunker c(512);
  std::string data = RandomBytes(200000, 6);
  std::string edited = data;
  edited.insert(100, "X");  // one byte near the front shifts everything

  std::set<std::string> orig;
  for (const auto& [off, len] : c.Split(data)) orig.insert(data.substr(off, len));
  size_t shared = 0;
  auto pieces = c.Split(edited);
  for (const auto& [off, len] : pieces) {
    if (orig.count(edited.substr(off, len))) ++shared;
  }
  // Virtually nothing realigns — this is the fixed-chunking weakness the
  // content-defined chunker exists to fix.
  EXPECT_LT(shared, pieces.size() / 10);
}

TEST(GearChunkerTest, MaxSizeForcedOnLowEntropyData) {
  GearChunker c(64, 256, 512);
  std::string zeros(100000, '\0');  // rolling hash never hits the mask
  auto pieces = c.Split(zeros);
  ExpectCovers(pieces, zeros.size());
  for (size_t i = 0; i + 1 < pieces.size(); ++i) {
    EXPECT_EQ(pieces[i].second, 512u);
  }
}

class ChunkerSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkerSweep, BothChunkersCoverEverySize) {
  size_t n = GetParam();
  std::string data = RandomBytes(n, 7 + n);
  FixedChunker fixed(333);
  GearChunker gear(16, 64, 256);
  ExpectCovers(fixed.Split(data), n);
  ExpectCovers(gear.Split(data), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkerSweep,
                         ::testing::Values(1, 2, 15, 16, 17, 63, 64, 65, 255,
                                           256, 257, 1000, 4096, 10000));

// The byte-by-byte Gear loop, rolling the hash from each chunk's first byte
// and testing every length: the reference GearChunker::Split's skip to the
// first legal cut must match cut for cut.
std::vector<std::pair<size_t, size_t>> ReferenceGearSplit(
    size_t min_size, size_t avg_size, size_t max_size, std::string_view data) {
  std::vector<uint64_t> gear_table(256);
  Pcg32 rng(/*seed=*/0x6765617274616231ULL);  // GearChunker's table
  for (auto& v : gear_table) v = rng.NextU64();
  uint64_t bits = 0;
  for (size_t v = avg_size; v > 1; v >>= 1) ++bits;
  const uint64_t mask = ~((~uint64_t{0}) >> bits);

  std::vector<std::pair<size_t, size_t>> out;
  size_t start = 0;
  uint64_t hash = 0;
  size_t i = 0;
  while (i < data.size()) {
    hash = (hash << 1) + gear_table[static_cast<uint8_t>(data[i])];
    ++i;
    size_t len = i - start;
    bool boundary = false;
    if (len >= max_size) {
      boundary = true;
    } else if (len >= min_size && (hash & mask) == 0) {
      boundary = true;
    }
    if (boundary) {
      out.emplace_back(start, len);
      start = i;
      hash = 0;
    }
  }
  if (start < data.size()) {
    out.emplace_back(start, data.size() - start);
  }
  return out;
}

struct GearParams {
  size_t min_size, avg_size, max_size;
};

class GearReferenceTest : public ::testing::TestWithParam<GearParams> {};

TEST_P(GearReferenceTest, SplitMatchesByteByByteLoop) {
  const GearParams p = GetParam();
  GearChunker chunker(p.min_size, p.avg_size, p.max_size);
  const size_t longest = size_t{8} << 20;
  const std::vector<size_t> lengths = {
      0, 1, 2, 63, 64, 65, 1000, 4097, 70001, size_t{1} << 20, longest,
      p.min_size - 1, p.min_size, p.min_size + 1,
      p.max_size - 1, p.max_size, p.max_size + 1, 3 * p.max_size + 5};

  // One spare byte in front of each input so it starts at an odd address.
  Pcg32 rng(p.min_size * 31 + p.max_size);
  std::string random(longest + 1, '\0');
  std::string three_symbols(longest + 1, '\0');
  for (size_t i = 0; i < random.size(); ++i) {
    random[i] = static_cast<char>(rng.NextU32());
    three_symbols[i] = static_cast<char>('a' + rng.Below(3));
  }
  const std::string zeros(longest + 1, '\0');

  const std::pair<const char*, const std::string*> inputs[] = {
      {"random", &random}, {"zeros", &zeros}, {"three-symbol", &three_symbols}};
  for (const auto& [name, input] : inputs) {
    const std::string_view odd = std::string_view(*input).substr(1);
    for (size_t n : lengths) {
      // Keeps each cut list (and the run under sanitizers) small.
      if (n / p.avg_size > (size_t{1} << 16)) continue;
      const std::string_view data = odd.substr(0, n);
      ASSERT_EQ(chunker.Split(data),
                ReferenceGearSplit(p.min_size, p.avg_size, p.max_size, data))
          << name << " input, " << n << " bytes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GearReferenceTest,
    ::testing::Values(GearParams{1024, 4096, 16384},
                      GearParams{16 << 10, 64 << 10, 256 << 10},
                      GearParams{1, 2, 2}, GearParams{64, 64, 64},
                      GearParams{65, 128, 4096}, GearParams{1, 4096, 16384}));

// Chunk lengths of a seeded 1 MiB input under the default parameters,
// recorded before Split learned to skip to the first legal cut. Every chunk
// address in stored data depends on these cuts.
TEST(GearChunkerTest, GoldenCutsOfSeededMebibyte) {
  const std::vector<size_t> golden = {
      11446, 1616, 1316, 3456, 9004, 7331, 4025, 2970, 5771,
      8228, 3582, 2337, 5169, 10799, 5969, 9941, 6291, 4611,
      5596, 4386, 2737, 5768, 6033, 6505, 7455, 1959, 4644,
      14707, 4337, 2339, 2435, 1460, 3524, 2369, 3044, 2480,
      16384, 1980, 1589, 1629, 2083, 4509, 8118, 11844, 7061,
      1508, 2279, 1503, 11953, 2766, 16384, 1037, 5367, 9725,
      1096, 1363, 1956, 7481, 1075, 1813, 5759, 7568, 10834,
      5289, 2831, 8858, 6292, 7302, 1032, 2874, 9377, 4337,
      9519, 1725, 15594, 3977, 2673, 1586, 2238, 5155, 6510,
      8549, 1425, 1365, 3075, 1584, 4465, 11179, 1447, 3489,
      5296, 1519, 7974, 5806, 10154, 1679, 9727, 2496, 2731,
      3189, 3126, 2164, 6181, 1466, 4779, 8424, 1731, 4619,
      1443, 8372, 3325, 3076, 6090, 12876, 2370, 5951, 6316,
      9325, 3958, 1038, 1526, 3781, 2214, 14008, 1147, 5223,
      1501, 2002, 4990, 5126, 1126, 1325, 7732, 1059, 2054,
      3989, 6597, 3908, 12907, 2992, 9326, 7217, 8379, 2996,
      4021, 1045, 6645, 3582, 2453, 1125, 7853, 2383, 2878,
      16384, 4601, 1821, 6050, 4472, 4648, 3664, 2850, 5444,
      11168, 2960, 3593, 3807, 5891, 10548, 6116, 3535, 6715,
      13052, 7938, 6456, 3430, 2215, 4989, 7229, 6154, 9480,
      4049, 3670, 7900, 3644, 5111, 6168, 2128, 16384, 3294,
      4763, 3539, 4206, 4154, 1601, 6916, 5279, 3690, 3396,
      3665, 6150, 10395, 4901, 3955, 2516, 3087, 443};
  const std::string data = RandomBytes(1 << 20, 8);
  auto pieces = GearChunker().Split(data);
  ExpectCovers(pieces, data.size());
  std::vector<size_t> lengths;
  for (const auto& piece : pieces) lengths.push_back(piece.second);
  EXPECT_EQ(lengths, golden);
}

}  // namespace
}  // namespace mlcask::storage
