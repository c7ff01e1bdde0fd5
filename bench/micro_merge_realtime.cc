// REAL wall-clock scaling of the sharded merge drain. Earlier benches
// measure VIRTUAL makespans (SimClock timelines); this one measures the
// actual steady-clock time of MergeOperation::Merge's candidate-drain phase
// (MergeReport::drain_wall_ms) and compares a sequential drain (a
// one-thread ExecutionCore passed as MergeOptions::core: every shard drains
// in turn on the calling thread) against a concurrent one (no core passed:
// the MergeOperation builds one pool of one thread per shard, and the
// shards drain on it at once — real OS threads).
//
// Per shard count the bench verifies the two arms are result-identical
// (executions, winner score, virtual makespan — one virtual worker per
// shard keeps virtual time deterministic) and reports
//   real speedup = min sequential drain wall / min concurrent drain wall.
//
// PASS requires >= 2x real speedup at 4 shards — but only on a host with
// at least --min-cores (default 4) hardware threads. On smaller machines
// real parallelism physically cannot show, so the gate SKIPS WITH A NOTICE
// (exit stays 0) instead of failing contributors on 1/2-core laptops; CI
// runs on multi-core runners where the gate is live. Flags: --short (fewer
// shard counts/repeats), --json <path> (write the
// BENCH_micro_merge_realtime.json trajectory artifact), --repeats <n>,
// --min-cores <n>.
//
// A host probe brackets the drains: the wall time of four threads each
// spinning the same fixed loop against one thread spinning it alone. On a
// host whose vCPUs really run in parallel the two times match; a ratio near
// 4 means the host ran the threads one after another, and a drain measured
// then says more about the host than about the code. So one attempt is
// probe, drains, probe, and it counts as parallel when both probes read
// under 2x one thread's time. With the gate live, a serialized attempt is
// measured again about 1 s later, up to 3 attempts in all; the gate and the
// JSON take the first parallel attempt, or the last attempt when none was
// parallel (which then passes or fails on its speedup as any other).
// Every attempt's probe readings are printed; they are not in the JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "merge/merge_op.h"
#include "pipeline/execution_core.h"
#include "sim/scenario.h"

namespace mlcask {
namespace {

constexpr double kScale = 0.12;

struct DrainPoint {
  uint64_t executions = 0;
  double best_score = 0;
  double makespan_s = 0;
  double wall_ms = 0;  ///< Best (minimum) drain wall over the repeats.
};

/// One full metric-driven merge of the widened fig11 scenario on a fresh
/// sharded deployment; returns the drain's real wall time and the
/// result fingerprint. `concurrent` picks the arm: false drains on a
/// one-thread core, true on the merge's own pool.
DrainPoint RunOnce(size_t shards, bool concurrent) {
  sim::DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = shards;
  auto d = bench::CheckedValue(
      sim::MakeDeployment("readmission", kScale, config), "MakeDeployment");
  bench::CheckOk(sim::BuildDistributedMergeScenario(
                     d.get(), /*extra_extractor_versions=*/2,
                     /*extra_model_versions=*/4)
                     .status(),
                 "BuildDistributedMergeScenario");
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(),
                           d->clock.get());
  pipeline::ExecutionCore one_thread(1);
  merge::MergeOptions options;
  options.shards = shards;
  if (!concurrent) options.core = &one_thread;
  auto report =
      bench::CheckedValue(op.Merge("master", "dev", options), "Merge");
  DrainPoint point;
  point.executions = report.component_executions;
  point.best_score = report.best_score;
  point.makespan_s = report.makespan_s;
  point.wall_ms = report.drain_wall_ms;
  return point;
}

/// Wall time, in ms, of `threads` threads each running the same fixed
/// dependent multiply-add loop (about 40 ms of one core).
double SpinWallMs(size_t threads) {
  auto spin = [] {
    uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      __asm__ volatile("" : "+r"(x));
    }
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Prints and returns the host probe: the best of three spins of `threads`
/// threads as a multiple of the best of three of one thread.
double HostProbe(const char* when, size_t threads) {
  double one = SpinWallMs(1), many = SpinWallMs(threads);
  for (int r = 1; r < 3; ++r) {
    one = std::min(one, SpinWallMs(1));
    many = std::min(many, SpinWallMs(threads));
  }
  std::printf("host probe (%s): %zu spinning threads %.1f ms, 1 thread "
              "%.1f ms: %.2fx one thread's time (1.00x = fully parallel)\n",
              when, threads, many, one, many / one);
  return many / one;
}

DrainPoint RunBest(size_t shards, bool concurrent, int repeats) {
  DrainPoint best = RunOnce(shards, concurrent);
  for (int r = 1; r < repeats; ++r) {
    DrainPoint next = RunOnce(shards, concurrent);
    // The fingerprint must be run-invariant; keep the fastest wall.
    if (next.executions != best.executions ||
        next.best_score != best.best_score ||
        next.makespan_s != best.makespan_s) {
      std::fprintf(stderr,
                   "[bench] nondeterministic merge fingerprint at %zu "
                   "shards (%s drain)\n",
                   shards, concurrent ? "concurrent" : "sequential");
      std::exit(1);
    }
    best.wall_ms = std::min(best.wall_ms, next.wall_ms);
  }
  return best;
}

}  // namespace
}  // namespace mlcask

int main(int argc, char** argv) {
  using namespace mlcask;
  bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, {{"--repeats", 3}, {"--min-cores", 4}});
  // Repeats are NOT reduced in short mode: the gate compares best-of-N
  // wall times, and on shared CI runners one clean run out of three is
  // what keeps a noisy-neighbor hiccup from failing the build. Each drain
  // is ~100ms, so the extra repeats cost almost nothing.
  const int repeats = std::max(1, static_cast<int>(args.ints["--repeats"]));
  const size_t min_cores = static_cast<size_t>(args.ints["--min-cores"]);
  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());

  bench::Banner("micro_merge_realtime",
                "REAL (steady-clock) sharded merge drain scaling");
  std::printf("fig11 merge scenario, scale=%.2f, host cores=%zu, "
              "repeats=%d%s\n",
              kScale, cores, repeats, args.short_mode ? " (short mode)" : "");
  bench::JsonReporter reporter("micro_merge_realtime");
  reporter.Metric("realtime", "host_cores", static_cast<double>(cores));
  reporter.Metric("realtime", "repeats", static_cast<double>(repeats));

  const std::vector<size_t> shard_counts =
      args.short_mode ? std::vector<size_t>{4}
                      : std::vector<size_t>{2, 4, 8};
  const bool has_4_shards = std::find(shard_counts.begin(), shard_counts.end(),
                                      size_t{4}) != shard_counts.end();
  // A serialized host is measured again only when the gate would judge it.
  const int max_attempts = has_4_shards && cores >= min_cores ? 3 : 1;
  constexpr double kParallelProbe = 2.0;

  struct Row {
    size_t shards;
    DrainPoint seq, conc;
    double speedup;
  };
  std::vector<Row> rows;
  bool ok = true;
  int attempt = 0;
  bool parallel = false;
  while (!parallel && attempt < max_attempts) {
    if (attempt++ > 0) std::this_thread::sleep_for(std::chrono::seconds(1));
    std::printf("attempt %d of at most %d\n", attempt, max_attempts);
    const double before = HostProbe("before", 4);
    rows.clear();
    std::printf("%8s%16s%16s%12s%14s%10s\n", "shards", "seq wall(ms)",
                "conc wall(ms)", "real", "makespan(s)", "execs");
    for (size_t shards : shard_counts) {
      DrainPoint seq = RunBest(shards, /*concurrent=*/false, repeats);
      DrainPoint conc = RunBest(shards, /*concurrent=*/true, repeats);
      if (conc.executions != seq.executions ||
          conc.best_score != seq.best_score ||
          conc.makespan_s != seq.makespan_s) {
        std::printf("FAIL: the concurrent drain changed the merge result "
                    "at %zu shards\n",
                    shards);
        ok = false;
      }
      const double speedup =
          conc.wall_ms > 0 ? seq.wall_ms / conc.wall_ms : 0;
      rows.push_back(Row{shards, seq, conc, speedup});
      std::printf("%8zu%16.1f%16.1f%11.2fx%14.2f%10llu\n", shards,
                  seq.wall_ms, conc.wall_ms, speedup, conc.makespan_s,
                  static_cast<unsigned long long>(conc.executions));
    }
    const double after = HostProbe("after", 4);
    parallel = before < kParallelProbe && after < kParallelProbe;
    if (!parallel) {
      std::printf("attempt %d: host probe read serialized (%.2fx before, "
                  "%.2fx after; parallel needs both < %.2fx)%s\n",
                  attempt, before, after, kParallelProbe,
                  attempt < max_attempts ? ": measuring again in 1 s" : "");
    }
  }

  double real_speedup_at_4 = 0;
  for (const Row& row : rows) {
    if (row.shards == 4) real_speedup_at_4 = row.speedup;
    const std::string suffix = "_s" + std::to_string(row.shards);
    reporter.Metric("realtime", "drain_wall_ms_seq" + suffix,
                    row.seq.wall_ms);
    reporter.Metric("realtime", "drain_wall_ms_conc" + suffix,
                    row.conc.wall_ms);
    reporter.Metric("realtime", "real_speedup" + suffix, row.speedup);
    reporter.Metric("realtime", "virtual_makespan_s" + suffix,
                    row.conc.makespan_s);
    reporter.Metric("realtime", "executions" + suffix,
                    static_cast<double>(row.conc.executions));
  }

  // The gate: >= 2x real drain speedup at 4 shards — live only on hosts
  // with enough hardware threads for real parallelism to exist.
  std::string gate = "skipped-shard-counts";
  if (has_4_shards) {
    if (cores < min_cores) {
      gate = "skipped-cores";
      std::printf(
          "NOTICE: host has %zu hardware thread(s) (< %zu): the >= 2x "
          "real-speedup gate is SKIPPED — real shard parallelism cannot "
          "show here. Numbers above are still reported; CI gates on a "
          "multi-core runner.\n",
          cores, min_cores);
    } else {
      const bool pass = real_speedup_at_4 >= 2.0;
      gate = pass ? "pass" : "fail";
      std::printf("real drain speedup at 4 shards, attempt %d: %.2fx "
                  "(target >= 2x): %s\n",
                  attempt, real_speedup_at_4, pass ? "PASS" : "FAIL");
      ok = ok && pass;
    }
  }
  reporter.Metric("realtime", "gate", gate);
  reporter.Metric("summary", "pass", ok);
  reporter.Write(args.json_path);
  return ok ? 0 : 1;
}
