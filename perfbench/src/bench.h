// Shared plumbing of the benchmark program: run options, the fixed pool
// configuration, the result record every workload fills, pacing and host
// probes. Everything here sits outside the engine; the workloads reach the
// engine only through its public headers.
#ifndef IMCI_PERFBENCH_BENCH_H_
#define IMCI_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Pools sized for a 4-core host. Fixed constants rather than flags: every
// run of every workload uses them, and they are stamped on each result.
constexpr int kExecThreads = 2;       // column executor threads per RO
constexpr int kParseWorkers = 1;      // replication Phase#1 per RO
constexpr int kApplyWorkers = 1;      // replication Phase#2 per RO
constexpr uint32_t kFsyncUs = 50;     // simulated fsync on every commit
constexpr uint32_t kRowGroupRows = 8192;

/// Cluster options every workload starts from.
imci::ClusterOptions BaseClusterOptions();

/// One named number with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run produces. `e2e` and `layers` become the contract's
/// metrics (untraced and traced run respectively); `info` carries the
/// workload-level figures with sample counts and tails, printed beside them.
struct RunResult {
  OpCount ops;
  bool gate_ok = true;  // end-of-run correctness gates
  std::vector<std::string> gate_errors;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> info;
  std::map<std::string, std::string> labels;

  void Fail(const std::string& why) {
    gate_ok = false;
    if (gate_errors.size() < 8) gate_errors.push_back(why);
  }
  /// Records a latency summary under `name` in `info` (median, the highest
  /// supported tail, and the sample count).
  void Summary(const std::string& name, const std::vector<uint64_t>& ns);
  /// Records the median of several set-ups as `setup_s`, and their range.
  void RecordSetup(std::vector<double> seconds);
};

using SteadyClock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

/// Open-loop pacing: sleeps until shortly before `due_ns`, then yields until
/// it, so kernel timer slack is not charged to the request that follows.
void WaitUntil(uint64_t due_ns);

/// CPU time used so far by this process, all threads, in ns.
uint64_t ProcessCpuNs();

/// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

/// Milliseconds a fixed integer loop takes: a label for host drift.
double CalibrationMs();

/// True when two query results hold the same rows in some order, doubles
/// equal to a relative 1e-9 (summation order differs across fan-outs).
bool ResultsMatch(const std::vector<imci::Row>& a,
                  const std::vector<imci::Row>& b);

/// Adds each span's mean self time per request that contains it as the
/// `<span>_ms` layer metric (root spans, the benchmark's own work, are
/// pooled as `bench.generator_ms`), plus the trace's own bookkeeping.
/// Fails the run when the requests' self times do not add up to the
/// latencies their callers measured, or a request was not timed.
void AddSpanLayers(const TraceSummary& ts, RunResult* r);

/// Writes the recorded spans to .bench_out/ under the run directory.
void WriteTrace(const RunOptions& opt, RunResult* r);

/// What the traced query path learns beyond its spans.
struct QueryCounters {
  uint64_t dist_queries = 0;
  uint64_t fragments = 0;
  double fragment_exec_us = 0;
  double fragment_wait_us = 0;
  double merge_us = 0;
  uint64_t column_runs = 0;
  uint64_t dop_sum = 0;
};

/// Proxy::ExecuteQuery re-composed from public calls so that each layer
/// gets a span: the coordinator first (a strong read passes the RW's commit
/// point as its snapshot floor); when it declines, the least-loaded RO,
/// which a strong read first waits on until it has applied the RW's written
/// LSN, polling every 100 us as the proxy does; then the RO routes the plan
/// and, on the column engine, lowers and runs it as RoNode::ExecuteColumn
/// does.
imci::Status TracedExecute(imci::Cluster* cluster, const imci::LogicalRef& plan,
                           imci::Consistency consistency,
                           std::vector<imci::Row>* out, QueryCounters* c);

/// Workload entry points.
RunResult RunOlapTpch(const RunOptions& opt);
RunResult RunOltpSmallPool(const RunOptions& opt);
RunResult RunHtapFresh(const RunOptions& opt);

/// Checks the statistics and trace helpers against hand-computed values.
/// Returns the number of failed checks (0 = pass), printing each failure.
int RunSelfTest();

}  // namespace perfbench

#endif  // IMCI_PERFBENCH_BENCH_H_
