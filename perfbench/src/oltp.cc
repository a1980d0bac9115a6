// oltp_small_pool: the CH-benCH TPC-C mix at 8 warehouses from one
// closed-loop client, with one RO replicating beside it, and the RW buffer
// pool capped well below the working set. The commit path (row store,
// MVCC, redo, group commit, PolarFs) does the work, and it is the one
// workload larger than the program's cache: eviction and PolarFs page reads
// run only here. One client, because a second one makes the run slower, not
// faster: every miss scans the LRU list under the pool's single lock, so
// two clients commit about 40% less and their rate swings with CPU steal on
// a shared host (a preempted lock holder stalls both). (The same mix with
// an unbounded pool commits about three times faster, but its closed-loop
// rate follows the host's CPU steal too closely to bound, so it is not a
// workload of the benchmark.)
#include <atomic>
#include <cstdio>
#include <thread>

#include "ch.h"

namespace perfbench {

using namespace imci;

namespace {

constexpr int kClients = 1;
constexpr int kSetupReps = 9;
// With one client the unbounded RW pool ends a 20 s run (about 100k
// commits) at about 6000 pages on a 4-core host; the cap fills after about
// 27k commits (4-6 s), before the measured phase starts.
constexpr size_t kSmallPoolPages = 1800;
// A traced run alternates traced and untraced slices of this length.
constexpr uint64_t kTraceSliceNs = 250'000'000;
// Bound on filling the pool before the measured phase.
constexpr uint64_t kMaxFillNs = 60'000'000'000ull;

struct ClientLog {
  std::array<std::vector<uint64_t>, 3> ns;      // per kind, untraced
  std::array<std::vector<uint64_t>, 3> ns_traced;
  AckCounts acked{};
  uint64_t attempted = 0;
  uint64_t measured = 0;  // attempted in the measured phase
  uint64_t failed = 0;
  uint64_t busy = 0;
  std::string first_error;
};

std::vector<uint64_t> Merge(const std::vector<ClientLog>& logs, int kind,
                            bool traced) {
  std::vector<uint64_t> all;
  for (const ClientLog& l : logs) {
    const auto& v = traced ? l.ns_traced[kind] : l.ns[kind];
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

}  // namespace

RunResult RunOltpSmallPool(const RunOptions& opt) {
  RunResult r;
  r.labels["warehouses"] = std::to_string(kWarehouses);
  r.labels["clients"] = std::to_string(kClients) + " closed-loop";
  r.labels["rw_pool_capacity_pages"] = std::to_string(kSmallPoolPages);

  ChData data(opt.seed);
  std::unique_ptr<Cluster> cluster;
  if (!BuildChCluster(data, kSmallPoolPages, kSetupReps, &cluster, &r)) {
    return r;
  }
  data.tables.clear();

  const uint64_t commits0 = cluster->rw()->txn_manager()->commits();
  std::atomic<bool> stop{false};
  std::atomic<bool> trace_slice{false};
  // 0 while the pool fills, then the start of the measured phase.
  std::atomic<uint64_t> start_ns{0};
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ClientLog& log = logs[t];
      Rng rng(opt.seed * 1'000'003 + t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t start = start_ns.load(std::memory_order_acquire);
        const bool traced = trace_slice.load(std::memory_order_relaxed);
        const TxnKind kind = PickTxn(&rng);
        const uint64_t t0 = NowNs();
        TxnOutcome o;
        {
          TraceRequest req("bench.txn", traced);
          o = RunTxn(&data.bench, cluster.get(), kind, &rng);
        }
        const uint64_t ns = NowNs() - t0;
        if (traced) Tracer::Get().RecordLatency(ns);
        const int k = static_cast<int>(kind);
        if (start != 0) {
          (traced ? log.ns_traced : log.ns)[k].push_back(ns);
          log.busy += o.busy_retries;
          log.measured++;
        }
        log.attempted++;
        if (!o.succeeded()) {
          log.failed++;
          if (log.first_error.empty()) log.first_error = o.status.ToString();
        } else if (o.status.ok()) {
          log.acked[k]++;
        }
      }
    });
  }
  // Fill the pool first (checked, not timed): the measured phase is the
  // eviction regime, not the run-up to it.
  BufferPool* pool = cluster->rw()->engine()->buffer_pool();
  const uint64_t fill_start = NowNs();
  while (pool->resident_pages() < kSmallPoolPages &&
         NowNs() - fill_start < kMaxFillNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double fill_s = double(NowNs() - fill_start) / 1e9;
  const uint64_t fill_commits =
      cluster->rw()->txn_manager()->commits() - commits0;
  if (pool->resident_pages() < kSmallPoolPages) {
    r.Fail("the RW pool did not fill within " +
           std::to_string(kMaxFillNs / 1'000'000'000) + " s");
  }
  cluster->ro(0)->pipeline()->vd_histogram()->Reset();
  const CommitCounters c0 = CommitCounters::Read(cluster.get());
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t start = NowNs();
  trace_slice.store(opt.trace);
  start_ns.store(start, std::memory_order_release);

  // The main thread samples the replication backlog and, in a traced run,
  // flips between traced and untraced slices.
  uint64_t lsn_delay_max = 0;
  const uint64_t deadline = start + uint64_t(opt.seconds * 1e9);
  uint64_t next_flip = start + kTraceSliceNs;
  for (uint64_t now = NowNs(); now < deadline; now = NowNs()) {
    lsn_delay_max = std::max(lsn_delay_max, cluster->ro(0)->LsnDelay());
    if (opt.trace && now >= next_flip) {
      trace_slice.store(!trace_slice.load());
      next_flip += kTraceSliceNs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& c : clients) c.join();
  const double elapsed_s = double(NowNs() - start) / 1e9;
  const uint64_t cpu1 = ProcessCpuNs();
  const CommitCounters c1 = CommitCounters::Read(cluster.get());
  const size_t resident_pages =
      cluster->rw()->engine()->buffer_pool()->resident_pages();

  AckCounts acked{};
  uint64_t busy = 0, measured = 0;
  for (const ClientLog& l : logs) {
    r.ops.attempted += l.attempted;
    r.ops.failed += l.failed;
    busy += l.busy;
    measured += l.measured;
    for (int k = 0; k < 3; ++k) acked[k] += l.acked[k];
    if (!l.first_error.empty()) r.Fail("transaction: " + l.first_error);
  }
  const double catchup_ms =
      CheckChGates(data, cluster.get(), acked, commits0, &r);

  const double commits = double(c1.commits - c0.commits);
  std::vector<std::vector<uint64_t>> kind_ns, kind_ns_traced;
  for (int k = 0; k < 3; ++k) {
    kind_ns.push_back(Merge(logs, k, false));
    kind_ns_traced.push_back(Merge(logs, k, true));
  }
  // The mix puts the overall median where the fast Payment/Delivery
  // samples meet the slow NewOrder ones, so each kind's median is taken in
  // the middle of its own samples and the three are averaged.
  const double txn_gmean_ms = NsToMs(GmeanOfPercentiles(kind_ns, 50));
  r.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  r.e2e["ops_per_s"] = {commits / elapsed_s, "1/s"};
  r.e2e["op_ms_gmean"] = {txn_gmean_ms, "ms"};

  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.1f /s (%.0f commits in %.2f s)",
                commits / elapsed_s, commits, elapsed_s);
  r.info["commits_per_s"] = buf;
  std::snprintf(buf, sizeof(buf), "%.4f ms (all threads)",
                NsToMs(double(cpu1 - cpu0) / std::max(commits, 1.0)));
  r.info["cpu_ms_per_commit"] = buf;
  r.Summary("txn_ms", Concat(kind_ns));
  for (int k = 0; k < 3; ++k) {
    r.Summary(std::string("txn_") + kTxnNames[k] + "_ms", kind_ns[k]);
  }
  r.info["rw_pool_resident_pages_end"] = std::to_string(resident_pages);
  std::snprintf(buf, sizeof(buf), "full after %.2f s and %llu commits",
                fill_s, static_cast<unsigned long long>(fill_commits));
  r.info["rw_pool_fill"] = buf;

  if (opt.trace) {
    for (int k = 0; k < 3; ++k) {
      r.layers[std::string("txn.") + kTxnNames[k] + "_ms_p50"] = {
          NsToMs(double(Percentile(kind_ns_traced[k], 50))), "ms"};
    }
    AddCommitPathLayers(c0, c1, elapsed_s, measured, busy,
                        lsn_delay_max, catchup_ms, cluster.get(), &r);
    AddSpanLayers(Tracer::Get().Summarize(), &r);
    // Per kind, so that a different mix of kinds in the traced slices
    // does not read as overhead.
    const double traced_ms = NsToMs(GmeanOfPercentiles(kind_ns_traced, 50));
    r.layers["trace.overhead_pct"] = {
        txn_gmean_ms > 0 ? (traced_ms / txn_gmean_ms - 1) * 100 : 0, "%"};
    WriteTrace(opt, &r);
  }
  cluster.reset();
  return r;
}

}  // namespace perfbench
