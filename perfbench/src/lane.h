// The benchmark's lanes: closed-loop op sequences over the system's public
// APIs. A lane is built in Setup (deployment, history and a warm-up pass over
// every op kind) and then driven one op at a time by the harness. Every
// input a lane uses is derived from the run seed, outside the timed region.
#ifndef PERFBENCH_LANE_H_
#define PERFBENCH_LANE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One op as the harness sees it. `ms` covers only the timed region.
struct OpOutcome {
  std::string kind;
  double ms = 0;
  bool ok = true;
  std::string error;  ///< Why the op failed or its output check did not hold.
};

/// Counters that no span carries.
struct LaneCounters {
  uint64_t two_phase_transactions = 0;
};

class Lane {
 public:
  virtual ~Lane() = default;

  /// Untimed: reference results the lane's output checks compare against,
  /// computed once per process.
  virtual mlcask::Status Prepare() { return mlcask::Status::Ok(); }
  /// Deployment, history and the warm-up pass, up to the first timed op.
  virtual mlcask::Status Setup() = 0;
  /// Physical bytes the lane's engines hold once Setup returns.
  virtual uint64_t StoredBytes() const = 0;
  /// Runs the next op of the lane's fixed sequence. `op_id` names the op in
  /// the trace (0 = warm-up, not measured).
  virtual OpOutcome RunNext(uint64_t op_id) = 0;
  /// True when the lane stores through a router over RPC.
  virtual bool remote() const { return false; }
  virtual LaneCounters counters() const { return {}; }
};

std::unique_ptr<Lane> MakeEvolveLane(uint64_t seed, bool traced);
std::unique_ptr<Lane> MakeMergeLane(uint64_t seed, bool traced);
std::unique_ptr<Lane> MakeClusterLane(uint64_t seed, bool traced);

/// Times one op's region and, when tracing, opens its root span and marks it
/// as the op in flight.
class OpTimer {
 public:
  explicit OpTimer(uint64_t op_id);
  ~OpTimer();
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  /// Ends the timed region; later calls return the first reading.
  double StopMs();

 private:
  int64_t span_ = -1;
  Clock::time_point start_;
  double ms_ = -1;
};

/// Derives an independent sub-seed (splitmix64 over both words).
uint64_t MixSeed(uint64_t a, uint64_t b);

/// A shuffled block holding exactly counts[k] copies of each k. Drawing
/// whole blocks keeps every run's op mix at the stated proportions, so
/// percentiles do not move with the mix a seed happens to draw.
std::vector<size_t> ShuffledBlock(mlcask::Pcg32* rng,
                                  const std::vector<size_t>& counts);

}  // namespace perfbench

#endif  // PERFBENCH_LANE_H_
