// htap_fresh: open loop on the same 8-warehouse CH-benCH data with one RO.
// A writer issues the TPC-C mix at a fixed 2000 txn/s, below replication
// capacity, and a reader issues CH-Q1/Q3/Q6/Q12/Q19 at 5 queries/s with
// strong consistency. Latencies are reported from each request's due time.
// Visibility delay is measured outside the program: from commit return
// until the RO's applied_vid() covers the commit. The bounded metrics are
// the writer's: the rate of commits made visible on the RO within the run,
// which holds at the offered rate only while replication keeps up, and its
// transaction latency beside replication and scans, as the geometric mean
// of the NewOrder, Payment and Delivery medians (each taken in the middle
// of its own kind's samples). That latency is timed from the call, not from
// the due time: one writer queues every later transaction behind a stalled
// one, so a few milliseconds of CPU steal on a shared host would read as a
// slower commit path for many transactions after it. The latency from due
// time, visibility delay and strong-read latency are reported beside them
// and as layer metrics, unbounded: they hinge on thread wake-ups, which CPU
// steal stretches several-fold.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "ch.h"

namespace perfbench {

using namespace imci;
using namespace imci::chbench;

namespace {

constexpr int kSetupReps = 9;
constexpr uint64_t kWriteIntervalNs = 500'000;    // 2000 txn/s
constexpr uint64_t kReadIntervalNs = 200'000'000;  // 5 queries/s
// CH-Q1, Q3, Q6, Q12, Q19 as ChBench::RunAnalytical indexes.
constexpr int kReadOrder[] = {0, 2, 1, 3, 4};
// Names and growing result column per RunAnalytical index; -1 marks
// CH-Q12, which is checked against acknowledged orders instead.
constexpr const char* kReadNames[] = {"ch_q1", "ch_q6", "ch_q3", "ch_q12",
                                      "ch_q19"};
constexpr int kMonotoneColumn[] = {4, 0, 1, -1, 0};
// Writes alternate traced/untraced in runs of this many (0.25 s).
constexpr uint64_t kTraceSliceTxns = 500;
// A commit not visible on the RO this long after the run fails the gate.
constexpr uint64_t kVisibilityTimeoutNs = 10'000'000'000ull;

struct Commit {
  Vid vid;
  uint64_t due_ns;
  uint64_t returned_ns;
};

// Hands acknowledged commits from the writer to the visibility watcher.
class CommitQueue {
 public:
  void Push(const Commit& c) {
    {
      std::lock_guard<std::mutex> g(mu_);
      q_.push_back(c);
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> g(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  // False once closed and drained.
  bool Pop(Commit* c) {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    *c = q_.front();
    q_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Commit> q_;
  bool closed_ = false;
};

double Sum(const std::vector<Row>& rows, int col) {
  double s = 0;
  for (const Row& row : rows) {
    if (col >= static_cast<int>(row.size())) continue;
    const Value& v = row[col];
    if (std::holds_alternative<int64_t>(v)) s += double(std::get<int64_t>(v));
    if (std::holds_alternative<double>(v)) s += std::get<double>(v);
  }
  return s;
}

double Ms(const std::vector<uint64_t>& ns, double p) {
  return NsToMs(double(Percentile(ns, p)));
}

}  // namespace

RunResult RunHtapFresh(const RunOptions& opt) {
  RunResult r;
  r.labels["warehouses"] = std::to_string(kWarehouses);
  r.labels["clients"] = "1 writer at 2000 txn/s + 1 strong reader at 5 q/s, "
                        "open loop";

  ChData data(opt.seed);
  std::unique_ptr<Cluster> cluster;
  if (!BuildChCluster(data, 0, kSetupReps, &cluster, &r)) return r;
  data.tables.clear();

  RoNode* ro = cluster->ro(0);
  TransactionManager* txns = cluster->rw()->txn_manager();
  ro->pipeline()->vd_histogram()->Reset();
  const CommitCounters c0 = CommitCounters::Read(cluster.get());
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t start = NowNs() + 1'000'000;  // first request 1 ms out
  const uint64_t deadline = start + uint64_t(opt.seconds * 1e9);

  // Writer.
  CommitQueue commits;
  // Latency of the call per transaction kind, untraced and traced, and
  // latency from due time of the untraced ones.
  std::vector<std::vector<uint64_t>> txn_ns(3), txn_ns_traced(3);
  std::vector<uint64_t> txn_due_ns, write_late_ns;
  AckCounts acked{};
  uint64_t writes = 0, write_failures = 0, busy = 0;
  std::string write_error;
  std::thread writer([&] {
    Rng rng(opt.seed * 1'000'003 + 7);
    for (uint64_t i = 0;; ++i) {
      const uint64_t due = start + i * kWriteIntervalNs;
      if (due >= deadline) break;
      WaitUntil(due);
      write_late_ns.push_back(NowNs() - due);
      const bool traced = opt.trace && (i / kTraceSliceTxns) % 2 == 0;
      const TxnKind kind = PickTxn(&rng);
      // One writer: the newest commit VID after an acknowledged commit is
      // that commit's own.
      const Vid before = txns->last_commit_vid();
      TxnOutcome o;
      const uint64_t t0 = NowNs();
      {
        TraceRequest req("bench.txn", traced);
        o = RunTxn(&data.bench, cluster.get(), kind, &rng);
      }
      const uint64_t done = NowNs();
      if (traced) Tracer::Get().RecordLatency(done - t0);
      (traced ? txn_ns_traced : txn_ns)[static_cast<int>(kind)].push_back(
          done - t0);
      if (!traced) txn_due_ns.push_back(done - due);
      ++writes;
      busy += o.busy_retries;
      if (!o.succeeded()) {
        ++write_failures;
        if (write_error.empty()) write_error = o.status.ToString();
        continue;
      }
      if (!o.status.ok()) continue;  // intended rollback
      acked[static_cast<int>(kind)]++;
      const Vid vid = txns->last_commit_vid();
      if (vid != before) commits.Push({vid, due, done});
    }
    commits.Close();
  });

  // Visibility watcher: commits arrive in VID order and applied_vid only
  // grows, so each wait starts where the previous one ended. It polls by
  // sleeping 10 us (a yield loop would take a core from replication); the
  // poll's wake-up latency is part of every sample.
  std::vector<uint64_t> vd_ns, visible_ns;
  uint64_t visible_in_run = 0, invisible = 0;
  std::thread watcher([&] {
    Commit c;
    while (commits.Pop(&c)) {
      while (ro->applied_vid() < c.vid &&
             NowNs() - c.returned_ns < kVisibilityTimeoutNs) {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
      }
      const uint64_t now = NowNs();
      if (ro->applied_vid() < c.vid) {
        ++invisible;
        continue;
      }
      vd_ns.push_back(now - c.returned_ns);
      visible_ns.push_back(now - c.due_ns);
      if (now < deadline) ++visible_in_run;
    }
  });

  // Strong reader.
  std::vector<std::vector<uint64_t>> read_ns(ChBench::kNumAnalytical);
  std::vector<uint64_t> read_all_ns, read_late_ns;
  uint64_t reads = 0, traced_reads = 0, read_failures = 0;
  std::vector<std::string> read_errors;
  QueryCounters qc;
  std::thread reader([&] {
    const Catalog& cat = *cluster->catalog();
    Proxy* proxy = cluster->proxy();
    std::vector<double> last(ChBench::kNumAnalytical, -1);
    const tpch::ExecFn strong = [&](const LogicalRef& p, std::vector<Row>* o) {
      return proxy->ExecuteQuery(p, o, Consistency::kStrong);
    };
    const tpch::ExecFn traced_strong = [&](const LogicalRef& p,
                                           std::vector<Row>* o) {
      return TracedExecute(cluster.get(), p, Consistency::kStrong, o, &qc);
    };
    for (uint64_t j = 0;; ++j) {
      const uint64_t due = start + j * kReadIntervalNs;
      if (due >= deadline) break;
      WaitUntil(due);
      read_late_ns.push_back(NowNs() - due);
      const int q = kReadOrder[j % ChBench::kNumAnalytical];
      const bool traced = opt.trace && j % 2 == 0;
      // Orders acknowledged before the read was issued.
      const double floor_orders =
          double(data.base_orders) + double(data.bench.new_orders());
      std::vector<Row> out;
      Status s;
      const uint64_t t0 = NowNs();
      {
        TraceRequest req("bench.read", traced);
        s = ChBench::RunAnalytical(q, cat, traced ? traced_strong : strong,
                                   &out);
      }
      const uint64_t end = NowNs();
      if (traced) Tracer::Get().RecordLatency(end - t0);
      const uint64_t ns = end - due;
      ++reads;
      if (traced) {
        ++traced_reads;
      } else {
        read_ns[q].push_back(ns);
        read_all_ns.push_back(ns);
      }
      std::string err;
      if (!s.ok()) {
        err = s.ToString();
      } else if (kMonotoneColumn[q] < 0) {
        // CH-Q12 counts every order: it must include all acknowledged ones.
        if (Sum(out, 2) < floor_orders) {
          err = "strong read missed acknowledged orders";
        }
      } else {
        // The other queries only grow as commits land: a strong read must
        // not see less than the strong read of the same query before it.
        const double v = Sum(out, kMonotoneColumn[q]);
        if (v < last[q] - 1e-9 * std::max(1.0, last[q])) {
          err = "strong read went back in time";
        }
        last[q] = v;
      }
      if (!err.empty()) {
        ++read_failures;
        if (read_errors.size() < 3) {
          read_errors.push_back(std::string(kReadNames[q]) + ": " + err);
        }
      }
    }
  });

  uint64_t lsn_delay_max = 0;
  while (NowNs() < deadline) {
    lsn_delay_max = std::max(lsn_delay_max, ro->LsnDelay());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  writer.join();
  reader.join();
  watcher.join();
  const double elapsed_s = double(NowNs() - start) / 1e9;
  const double cpu_ns = double(ProcessCpuNs() - cpu0);
  const CommitCounters c1 = CommitCounters::Read(cluster.get());

  r.ops.attempted = writes + reads;
  r.ops.failed = write_failures + read_failures + invisible;
  if (!write_error.empty()) r.Fail("transaction: " + write_error);
  for (const std::string& e : read_errors) r.Fail(e);
  if (invisible > 0) {
    r.Fail(std::to_string(invisible) + " commits never became visible");
  }
  const double catchup_ms =
      CheckChGates(data, cluster.get(), acked, c0.commits, &r);

  r.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  const double run_s = double(deadline - start) / 1e9;
  r.e2e["ops_per_s"] = {double(visible_in_run) / run_s, "1/s"};
  const double txn_gmean_ms = NsToMs(GmeanOfPercentiles(txn_ns, 50));
  r.e2e["op_ms_gmean"] = {txn_gmean_ms, "ms"};

  char buf[160];
  r.Summary("visible_ms", visible_ns);
  r.Summary("vd_ms", vd_ns);
  r.Summary("txn_ms", Concat(txn_ns));
  r.Summary("txn_from_due_ms", txn_due_ns);
  for (int k = 0; k < 3; ++k) {
    r.Summary(std::string("txn_") + kTxnNames[k] + "_ms", txn_ns[k]);
  }
  r.Summary("strong_query_ms", read_all_ns);
  for (int q = 0; q < ChBench::kNumAnalytical; ++q) {
    r.Summary(std::string(kReadNames[q]) + "_ms", read_ns[q]);
  }
  const double read_tail = SupportedTail(read_late_ns.size());
  std::snprintf(buf, sizeof(buf),
                "writer %.1f txn/s (target 2000), lateness p99 %.4f ms; "
                "reader %.2f q/s (target 5), lateness p%g %.4f ms",
                double(writes) / elapsed_s, Ms(write_late_ns, 99),
                double(reads) / elapsed_s, read_tail,
                Ms(read_late_ns, read_tail));
  r.info["generator"] = buf;
  std::snprintf(buf, sizeof(buf), "%.4f ms (all threads, generator included)",
                NsToMs(cpu_ns /
                       double(std::max<size_t>(visible_ns.size(), 1))));
  r.info["cpu_ms_per_commit"] = buf;

  if (opt.trace) {
    AddCommitPathLayers(c0, c1, elapsed_s, writes, busy, lsn_delay_max,
                        catchup_ms, cluster.get(), &r);
    r.layers["txn.commit_ms_p50"] = {Ms(Concat(txn_ns_traced), 50), "ms"};
    r.layers["replication.vd_ms_p50"] = {Ms(vd_ns, 50), "ms"};
    r.layers["cluster.strong_query_ms_p50"] = {Ms(read_all_ns, 50), "ms"};
    AddSpanLayers(Tracer::Get().Summarize(), &r);
    const double traced_ms = NsToMs(GmeanOfPercentiles(txn_ns_traced, 50));
    r.layers["trace.overhead_pct"] = {
        txn_gmean_ms > 0 ? (traced_ms / txn_gmean_ms - 1) * 100 : 0, "%"};
    r.info["traced_reads"] = std::to_string(traced_reads);
    WriteTrace(opt, &r);
  }
  cluster.reset();
  return r;
}

}  // namespace perfbench
