#include "lane.h"

#include <utility>

#include "trace.h"

namespace perfbench {

OpTimer::OpTimer(uint64_t op_id) {
  if (op_id != 0 && Tracer::enabled()) {
    Tracer::SetOp(op_id);
    span_ = Tracer::Begin(SpanKind::kOp);
  }
  start_ = Clock::now();
}

OpTimer::~OpTimer() { StopMs(); }

double OpTimer::StopMs() {
  if (ms_ < 0) {
    ms_ = std::chrono::duration<double, std::milli>(Clock::now() - start_)
              .count();
    if (span_ >= 0) {
      Tracer::End(span_);
      Tracer::SetOp(0);
    }
  }
  return ms_;
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<size_t> ShuffledBlock(mlcask::Pcg32* rng,
                                  const std::vector<size_t>& counts) {
  std::vector<size_t> block;
  for (size_t k = 0; k < counts.size(); ++k) {
    block.insert(block.end(), counts[k], k);
  }
  for (size_t i = block.size(); i > 1; --i) {
    std::swap(block[i - 1], block[rng->Below(static_cast<uint32_t>(i))]);
  }
  return block;
}

}  // namespace perfbench
