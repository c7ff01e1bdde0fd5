// Process measurements, statistics and the per-layer metrics computed from
// a traced window's spans.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// CPU time and context switches of the whole process (all threads, the
/// in-process servers included).
struct ProcSample {
  double cpu_ms = 0;
  uint64_t voluntary_switches = 0;
};
ProcSample SampleProc();

/// Peak resident set from /proc/self/status VmHWM, in MiB. getrusage's
/// ru_maxrss is not used: it keeps a launcher's peak across exec.
double PeakRssMiB();

/// Pins the calling thread, and every thread it creates later, to one CPU:
/// the highest-numbered CPU the process may run on. Cross-CPU wakeups
/// between the client and the in-process servers otherwise dominate the
/// run-to-run spread.
struct PinInfo {
  int cpu = -1;
  bool effective = false;  ///< The affinity mask holds exactly `cpu`.
};
PinInfo PinToOneCpu();

/// Linear-interpolation quantile (q in [0, 1]) of `values`.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything the per-layer metrics are computed from: the traced window's
/// spans and op latencies, plus measurements taken beside them.
struct LayerInputs {
  std::vector<SpanRecord> spans;
  std::vector<double> op_ms;          ///< Traced window, in op order.
  std::vector<std::string> op_kinds;  ///< Parallel to op_ms.
  bool remote = false;                ///< The lane stores through a router.
  uint64_t two_phase_transactions = 0;  ///< Delta over the traced window.
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  ProcSample untraced_proc;           ///< Delta over the untraced window.
  uint64_t untraced_ops = 0;
};

/// The per-layer metrics, in the order BENCHMARK.json lists them. Times
/// and counts are totals over the traced window; names ending in _per_op,
/// _per_session, _ratio, _frac or _p50 are normalized.
std::vector<Metric> LayerMetrics(const LayerInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
