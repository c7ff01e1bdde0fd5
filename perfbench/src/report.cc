#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Per-span self time: the span's duration minus the union of its
/// children's intervals (children may overlap: async RPCs of one fan-out).
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

double KindP50(const LayerInputs& in, const std::string& kind) {
  std::vector<double> v;
  for (size_t i = 0; i < in.op_ms.size(); ++i) {
    if (in.op_kinds[i] == kind) v.push_back(in.op_ms[i]);
  }
  return v.empty() ? 0 : Median(v);
}

}  // namespace

ProcSample SampleProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)) *
                 1e3 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e3;
  s.voluntary_switches = static_cast<uint64_t>(ru.ru_nvcsw);
  return s;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

PinInfo PinToOneCpu() {
  PinInfo info;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return info;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      info.cpu = cpu;
      break;
    }
  }
  if (info.cpu < 0) return info;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(info.cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return info;
  cpu_set_t now;
  CPU_ZERO(&now);
  info.effective = sched_getaffinity(0, sizeof(now), &now) == 0 &&
                   CPU_COUNT(&now) == 1 && CPU_ISSET(info.cpu, &now);
  return info;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const std::vector<SpanRecord>& spans = in.spans;
  const std::vector<int64_t> self = SelfTimes(spans);
  constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
  double dur[kKinds] = {};
  double own[kKinds] = {};
  double count[kKinds] = {};
  SpanCounters sum[kKinds] = {};
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.op == 0 || s.end_ns == 0) continue;  // Setup, checks, or open.
    const size_t k = static_cast<size_t>(s.kind);
    dur[k] += Ms(s.end_ns - s.start_ns);
    own[k] += Ms(self[i]);
    count[k] += 1;
    sum[k].a += s.n.a;
    sum[k].b += s.n.b;
    sum[k].c += s.n.c;
    sum[k].d += s.n.d;
  }
  auto D = [&](SpanKind k) { return dur[static_cast<size_t>(k)]; };
  auto S = [&](SpanKind k) { return own[static_cast<size_t>(k)]; };
  auto N = [&](SpanKind k) { return count[static_cast<size_t>(k)]; };
  auto C = [&](SpanKind k) -> const SpanCounters& {
    return sum[static_cast<size_t>(k)];
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  const double ops = N(SpanKind::kOp);
  const double op_ms = D(SpanKind::kOp);
  const double put_mb = static_cast<double>(C(SpanKind::kStoragePut).a) / kMiB;
  // Behind a router, new physical bytes are counted where they land: the
  // router stages every 2PC write as a copy on each shard, and the client's
  // PutResult reports only the final apply, which de-duplicates against
  // the staged copy.
  const SpanCounters& written =
      in.remote ? C(SpanKind::kBackendPut) : C(SpanKind::kStoragePut);
  const double new_mb = static_cast<double>(written.b) / kMiB;
  const double dedup_ratio =
      written.a > 0 ? 1.0 - static_cast<double>(written.b) /
                                static_cast<double>(written.a)
                    : 0;
  const double router_self =
      in.remote ? S(SpanKind::kStoragePut) + S(SpanKind::kStorageGet) +
                      S(SpanKind::kStorageMeta)
                : 0;
  const double await_n = N(SpanKind::kServiceAwait);

  return {
      {"ml.train_ms", D(SpanKind::kLibTrain), "ms"},
      {"ml.train_n", N(SpanKind::kLibTrain), "count"},
      {"ml.preprocess_ms", D(SpanKind::kLibPreprocess), "ms"},
      {"ml.preprocess_n", N(SpanKind::kLibPreprocess), "count"},
      {"data.generate_ms", D(SpanKind::kLibGenerate), "ms"},
      {"data.generate_n", N(SpanKind::kLibGenerate), "count"},
      {"storage.put_ms", D(SpanKind::kStoragePut), "ms"},
      {"storage.put_n", static_cast<double>(C(SpanKind::kStoragePut).c),
       "count"},
      {"storage.put_mb", put_mb, "MiB"},
      {"storage.new_mb", new_mb, "MiB"},
      {"storage.dedup_ratio", dedup_ratio, "fraction"},
      {"storage.get_ms", D(SpanKind::kStorageGet), "ms"},
      {"storage.get_n", static_cast<double>(C(SpanKind::kStorageGet).c),
       "count"},
      {"storage.get_mb",
       static_cast<double>(C(SpanKind::kStorageGet).a) / kMiB, "MiB"},
      {"storage.rpc_ms", D(SpanKind::kRpcStorage), "ms"},
      {"storage.rpc_n", N(SpanKind::kRpcStorage), "count"},
      {"storage.rpc_req_mb",
       static_cast<double>(C(SpanKind::kRpcStorage).a) / kMiB, "MiB"},
      {"storage.rpc_resp_mb",
       static_cast<double>(C(SpanKind::kRpcStorage).b) / kMiB, "MiB"},
      {"storage.rpc_per_op", ratio(N(SpanKind::kRpcStorage), ops), "count/op"},
      {"storage.rpc_server_ms", D(SpanKind::kServerStorage), "ms"},
      {"storage.rpc_wire_ms",
       D(SpanKind::kRpcStorage) - D(SpanKind::kServerStorage), "ms"},
      {"storage.router_self_ms", router_self, "ms"},
      {"storage.twopc_n", static_cast<double>(in.two_phase_transactions),
       "count"},
      {"storage.backend_ms",
       D(SpanKind::kStorageBackend) + D(SpanKind::kBackendPut), "ms"},
      {"pipeline.run_ms", D(SpanKind::kPipelineRun), "ms"},
      {"pipeline.run_n", N(SpanKind::kPipelineRun), "count"},
      {"pipeline.self_ms",
       S(SpanKind::kPipelineRun) + S(SpanKind::kPipelineLibrary), "ms"},
      {"pipeline.reuse_ratio",
       ratio(static_cast<double>(C(SpanKind::kPipelineRun).a),
             static_cast<double>(C(SpanKind::kPipelineRun).b)),
       "fraction"},
      {"version.commit_ms", D(SpanKind::kVersionCommit), "ms"},
      {"version.commit_n", N(SpanKind::kVersionCommit), "count"},
      {"version.self_ms",
       S(SpanKind::kVersionCommit) + S(SpanKind::kVersionOther), "ms"},
      {"merge.merge_ms", D(SpanKind::kMerge), "ms"},
      {"merge.self_ms", S(SpanKind::kMerge), "ms"},
      {"merge.candidates_n", static_cast<double>(C(SpanKind::kMerge).a),
       "count"},
      {"merge.executions_n", static_cast<double>(C(SpanKind::kMerge).b),
       "count"},
      {"merge.pruned_n", static_cast<double>(C(SpanKind::kMerge).c), "count"},
      {"merge.checkpoints_n", static_cast<double>(C(SpanKind::kMerge).d),
       "count"},
      {"service.submit_ms", D(SpanKind::kRpcSubmit), "ms"},
      {"service.poll_n", N(SpanKind::kRpcPoll), "count"},
      {"service.poll_ms", D(SpanKind::kRpcPoll), "ms"},
      {"service.fetch_ms", D(SpanKind::kRpcFetch), "ms"},
      {"service.polls_per_session", ratio(N(SpanKind::kRpcPoll), await_n),
       "count/session"},
      {"service.frontend_ms", D(SpanKind::kServerService), "ms"},
      {"service.wait_ms", S(SpanKind::kServiceAwait), "ms"},
      {"op.checkout_ms_p50", KindP50(in, "checkout"), "ms"},
      {"op.commit_ms_p50", KindP50(in, "commit"), "ms"},
      {"op.merge_session_ms_p50", KindP50(in, "merge_session"), "ms"},
      {"proc.cpu_ms_per_op",
       ratio(in.untraced_proc.cpu_ms, static_cast<double>(in.untraced_ops)),
       "ms/op"},
      {"proc.vcsw_per_op",
       ratio(static_cast<double>(in.untraced_proc.voluntary_switches),
             static_cast<double>(in.untraced_ops)),
       "count/op"},
      {"trace.residual_frac", ratio(S(SpanKind::kOp), op_ms), "fraction"},
      {"trace.overhead_frac",
       in.untraced_ops_per_s > 0
           ? 1.0 - in.traced_ops_per_s / in.untraced_ops_per_s
           : 0,
       "fraction"},
      {"trace.ops_n", ops, "count"},
      {"trace.op_ms", op_ms, "ms"},
  };
}

}  // namespace perfbench
