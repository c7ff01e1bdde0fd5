#include "storage/chunker.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace mlcask::storage {

FixedChunker::FixedChunker(size_t chunk_size) : chunk_size_(chunk_size) {
  MLCASK_CHECK_MSG(chunk_size_ > 0, "chunk size must be positive");
}

std::vector<std::pair<size_t, size_t>> FixedChunker::Split(
    std::string_view data) const {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t off = 0; off < data.size(); off += chunk_size_) {
    out.emplace_back(off, std::min(chunk_size_, data.size() - off));
  }
  return out;
}

namespace {

bool IsPowerOfTwo(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::vector<uint64_t> MakeGearTable() {
  // Deterministic gear table so chunk boundaries (and therefore every content
  // address in the system) are stable across runs and platforms.
  std::vector<uint64_t> table(256);
  Pcg32 rng(/*seed=*/0x6765617274616231ULL);  // "geartab1"
  for (auto& v : table) v = rng.NextU64();
  return table;
}

}  // namespace

GearChunker::GearChunker(size_t min_size, size_t avg_size, size_t max_size)
    : min_size_(min_size),
      avg_size_(avg_size),
      max_size_(max_size),
      gear_table_(MakeGearTable()) {
  MLCASK_CHECK_MSG(IsPowerOfTwo(avg_size_), "avg_size must be a power of two");
  MLCASK_CHECK_MSG(min_size_ >= 1 && min_size_ <= avg_size_,
                   "need 1 <= min_size <= avg_size");
  MLCASK_CHECK_MSG(max_size_ >= avg_size_, "need max_size >= avg_size");
  // A boundary fires when the top log2(avg_size) bits of the rolling hash are
  // zero, giving an expected chunk length of avg_size.
  uint64_t bits = 0;
  for (size_t v = avg_size_; v > 1; v >>= 1) ++bits;
  mask_ = ~((~uint64_t{0}) >> bits);
}

std::vector<std::pair<size_t, size_t>> GearChunker::Split(
    std::string_view data) const {
  std::vector<std::pair<size_t, size_t>> out;
  const auto* bytes = reinterpret_cast<const uint8_t*>(data.data());
  const uint64_t* gear = gear_table_.data();
  const uint64_t mask = mask_;
  const size_t n = data.size();
  size_t start = 0;
  // A tail shorter than min_size_ has no legal cut and stays one chunk.
  while (n - start >= min_size_) {
    const size_t limit = start + std::min(n - start, max_size_);
    // `i` is the byte that brings the chunk to min_size_, its first legal
    // cut. The hash is a 64-bit shift-left register, so a byte 64 or more
    // positions back has been shifted out: rolling just the 64 bytes before
    // `i` (FastCDC's cut-point skip) gives the same hash as a scan from
    // `start`, so every cut point stays where it was.
    size_t i = start + min_size_ - 1;
    uint64_t hash = 0;
    for (size_t j = i - std::min<size_t>(i - start, 64); j < i; ++j) {
      hash = (hash << 1) + gear[bytes[j]];
    }
    size_t end = limit;
    for (; i < limit; ++i) {
      hash = (hash << 1) + gear[bytes[i]];
      if ((hash & mask) == 0) {
        end = i + 1;
        break;
      }
    }
    out.emplace_back(start, end - start);
    start = end;
  }
  if (start < n) {
    out.emplace_back(start, n - start);
  }
  return out;
}

}  // namespace mlcask::storage
