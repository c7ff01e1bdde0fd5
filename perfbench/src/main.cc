// mlcask_perfbench — the repository benchmark.
//
//   mlcask_perfbench --workload evolve|merge|cluster --seed N --seconds S
//                    --trace 0|1
//
// One single-process, closed-loop client per run: one outstanding op, a
// fixed op sequence generated from --seed, the whole process pinned to one
// CPU. With --trace 0 the lane is measured for --seconds in a few segments,
// each on a freshly set up lane (setup_s is the median of those setups);
// the last stdout line is a JSON object with the end-to-end metrics. With
// --trace 1 the lane is measured untraced for half the time and traced for
// the other half, and the JSON carries the per-layer metrics (the untraced
// half gives the tracing overhead). The exit code is non-zero whenever an
// output check failed.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lane.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

/// An untraced run measures its ops in this many segments, each on a
/// freshly set up lane; setup_s is the median of their setups. Setups
/// spaced through the run sample the host's slow speed drift the way the
/// op metrics do, where back-to-back setups would all land in one phase.
constexpr size_t kSegments = 4;
/// Enough ops that at least ten lie beyond p95.
constexpr uint64_t kMinOps = 200;
/// A window stretches to at most this multiple of its length to reach
/// kMinOps, so a run still ends well within its time limit.
constexpr double kMaxWindowFactor = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seen[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      seen[1] = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      seen[2] = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      seen[3] = args->trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen[0] && seen[1] && seen[2] && seen[3];
}

using LaneFactory = std::function<std::unique_ptr<Lane>(uint64_t, bool)>;

/// One measured window of a lane.
struct Window {
  std::vector<double> ms;
  std::vector<std::string> kinds;
  uint64_t failed = 0;
  double op_seconds = 0;  ///< Time inside ops only.
  ProcSample proc;        ///< Delta over the window.
  LaneCounters counters;  ///< Delta over the window.
  double ops_per_s() const {
    return op_seconds > 0 ? static_cast<double>(ms.size()) / op_seconds : 0;
  }
};

/// Runs `lane` for `seconds`, appending its ops to `w`. The last segment
/// of a window passes `min_ops`: it runs on until `w` holds that many ops,
/// so p95 has ten samples beyond it (bounded, so a pathological slowdown
/// still ends the run).
void Measure(Lane* lane, double seconds, uint64_t min_ops, Window* w) {
  const ProcSample proc0 = SampleProc();
  const LaneCounters counters0 = lane->counters();
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  while ((elapsed() < seconds || w->ms.size() < min_ops) &&
         elapsed() < kMaxWindowFactor * seconds) {
    const OpOutcome out = lane->RunNext(w->ms.size() + 1);
    w->ms.push_back(out.ms);
    w->kinds.push_back(out.kind);
    w->op_seconds += out.ms / 1e3;
    if (!out.ok) {
      if (++w->failed <= 5) {
        std::fprintf(stderr, "op %zu (%s) failed: %s\n", w->ms.size(),
                     out.kind.c_str(), out.error.c_str());
      }
    }
  }
  const ProcSample proc1 = SampleProc();
  w->proc.cpu_ms += proc1.cpu_ms - proc0.cpu_ms;
  w->proc.voluntary_switches +=
      proc1.voluntary_switches - proc0.voluntary_switches;
  w->counters.two_phase_transactions +=
      lane->counters().two_phase_transactions -
      counters0.two_phase_transactions;
}

std::string FirstLine(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const size_t colon = line.find(':');
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void WriteSpans(const std::string& lane, uint64_t seed,
                const std::vector<SpanRecord>& spans) {
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/traces", 0755);
  const std::string path = ".bench_build/traces/" + lane + "-seed" +
                           std::to_string(seed) + ".tsv";
  std::ofstream out(path);
  out << "index\tkind\tparent\top\tstart_ns\tend_ns\ta\tb\tc\td\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.op == 0) continue;
    out << i << '\t' << SpanKindName(s.kind) << '\t' << s.parent << '\t'
        << s.op << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.n.a
        << '\t' << s.n.b << '\t' << s.n.c << '\t' << s.n.d << '\n';
  }
  std::printf("spans written to %s\n", path.c_str());
}

int Run(const Args& args) {
  const PinInfo pin = PinToOneCpu();
  const std::map<std::string, LaneFactory> lanes = {
      {"evolve", MakeEvolveLane},
      {"merge", MakeMergeLane},
      {"cluster", MakeClusterLane},
  };
  auto factory = lanes.find(args.workload);
  if (factory == lanes.end()) {
    std::fprintf(stderr, "unknown workload '%s' (evolve|merge|cluster)\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf(
      "# meta {\"lane\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %ld, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"pinned_cpu\": %d, \"pin_effective\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(FirstLine("/proc/cpuinfo", "model name")).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), pin.cpu,
      pin.effective ? "true" : "false");

  std::vector<double> setup_s;
  std::vector<uint64_t> stored;
  std::unique_ptr<Lane> lane;
  const auto set_up = [&](bool traced) -> mlcask::Status {
    lane.reset();
    lane = factory->second(args.seed, traced);
    MLCASK_RETURN_IF_ERROR(lane->Prepare());
    const Clock::time_point t0 = Clock::now();
    MLCASK_RETURN_IF_ERROR(lane->Setup());
    if (!traced) {
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      stored.push_back(lane->StoredBytes());
    }
    return mlcask::Status::Ok();
  };

  // Untraced segments, each on a fresh setup. Peak memory is read after
  // the first, so it covers one deployment and its ops. A traced run
  // measures one untraced segment of half its time.
  const size_t segments = args.trace ? 1 : kSegments;
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  Window untraced;
  double peak_rss_mb = 0;
  mlcask::Status status;
  for (size_t k = 0; k < segments; ++k) {
    status = set_up(/*traced=*/false);
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
    const size_t ops0 = untraced.ms.size();
    const double op_seconds0 = untraced.op_seconds;
    Measure(lane.get(), window_s / static_cast<double>(segments),
            k + 1 == segments ? kMinOps : 0, &untraced);
    if (k == 0) peak_rss_mb = PeakRssMiB();
    std::printf("segment %zu: setup %.3f s, %zu ops, %.3f ops/s\n", k + 1,
                setup_s.back(), untraced.ms.size() - ops0,
                static_cast<double>(untraced.ms.size() - ops0) /
                    (untraced.op_seconds - op_seconds0));
  }
  uint64_t failed = 0;
  for (uint64_t bytes : stored) {
    if (bytes != stored.front()) {
      std::fprintf(stderr, "stored bytes differ across setups of seed %llu\n",
                   static_cast<unsigned long long>(args.seed));
      ++failed;
      break;
    }
  }
  failed += untraced.failed;
  uint64_t attempted = untraced.ms.size();

  std::vector<Metric> metrics;
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"op_ms_p50", Quantile(untraced.ms, 0.50), "ms"},
      {"op_ms_p95", Quantile(untraced.ms, 0.95), "ms"},
      {"ops_per_s", untraced.ops_per_s(), "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"stored_mb", static_cast<double>(stored.front()) / (1024.0 * 1024.0),
       "MiB"},
  };
  std::printf("lane %s seed %llu: %zu ops timed (%zu beyond p95), %llu "
              "failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), untraced.ms.size(),
              untraced.ms.size() / 20, static_cast<unsigned long long>(failed));
  PrintMetrics(end_to_end);
  std::map<std::string, std::vector<double>> by_kind;
  for (size_t i = 0; i < untraced.ms.size(); ++i) {
    by_kind[untraced.kinds[i]].push_back(untraced.ms[i]);
  }
  for (const auto& [kind, ms] : by_kind) {
    std::printf("  %-14s %5zu ops  p50 %9.3f ms  p95 %9.3f ms\n",
                kind.c_str(), ms.size(), Quantile(ms, 0.50),
                Quantile(ms, 0.95));
  }

  if (!args.trace) {
    metrics = end_to_end;
  } else {
    Tracer::Enable(true);
    status = set_up(/*traced=*/true);
    if (!status.ok()) {
      std::fprintf(stderr, "traced setup failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    Tracer::Clear();
    Window traced;
    Measure(lane.get(), window_s, kMinOps, &traced);
    Tracer::Enable(false);
    failed += traced.failed;
    attempted += traced.ms.size();
    LayerInputs in;
    in.spans = Tracer::Snapshot();
    in.op_ms = traced.ms;
    in.op_kinds = traced.kinds;
    in.remote = lane->remote();
    in.two_phase_transactions = traced.counters.two_phase_transactions;
    in.untraced_ops_per_s = untraced.ops_per_s();
    in.traced_ops_per_s = traced.ops_per_s();
    in.untraced_proc = untraced.proc;
    in.untraced_ops = untraced.ms.size();
    metrics = LayerMetrics(in);
    std::printf("traced window: %zu ops, %zu spans\n", traced.ms.size(),
                in.spans.size());
    PrintMetrics(metrics);
    WriteSpans(args.workload, args.seed, in.spans);
  }
  lane.reset();

  const bool correct = failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload evolve|merge|cluster --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
