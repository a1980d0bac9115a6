// Self-test of the statistics and trace helpers, run by
// `imci_perfbench --self-test` (and by run.py --self-test).
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("self-test FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::fabs(b);
}

void BusyFor(uint64_t ns) {
  const uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  // Nearest-rank percentiles over 1..100 (shuffled) are the ranks.
  std::vector<uint64_t> v;
  for (uint64_t i = 100; i >= 1; --i) v.push_back(i * 7 % 101);
  std::vector<uint64_t> ranks;
  for (uint64_t i = 1; i <= 100; ++i) ranks.push_back(i);
  Check(Percentile(ranks, 50) == 50, "p50 of 1..100 is 50");
  Check(Percentile(ranks, 99) == 99, "p99 of 1..100 is 99");
  Check(Percentile(ranks, 100) == 100, "p100 is the maximum");
  Check(Percentile(ranks, 0) == 1, "p0 is the minimum");
  Check(Percentile({5, 1, 3}, 50) == 3, "p50 of {5,1,3} is 3");
  Check(Percentile({}, 50) == 0, "empty set gives 0");
  Check(Percentile({4, 1}, 50) == 1, "p50 of two samples is the lower one");

  // Tails need ten samples beyond them.
  Check(SupportedTail(9) == 50, "9 samples support only the median");
  Check(SupportedTail(100) == 90, "100 samples support p90");
  Check(SupportedTail(999) == 90, "999 samples support p90");
  Check(SupportedTail(1000) == 99, "1000 samples support p99");
  Check(SupportedTail(100000) == 99.99, "1e5 samples support p99.99");

  // Geometric mean of medians: medians 2, 8 -> 4; empty sets skipped.
  Check(Near(GmeanOfPercentiles({{1, 2, 3}, {8, 8, 9}, {}}, 50), 4.0),
        "gmean of medians {2,8} is 4");
  Check(GmeanOfPercentiles({{}, {}}, 50) == 0, "gmean of no samples is 0");
  Check(Concat({{3, 1}, {}, {2}}) == std::vector<uint64_t>({3, 1, 2}),
        "concat keeps every sample in order");

  OpCount ops;
  ops.attempted = 200;
  ops.failed = 3;
  Check(Near(ops.failure_share(), 0.015), "3 of 200 failed is 1.5%");
  Check(OpCount{}.failure_share() == 0, "nothing attempted fails nothing");

  // Result comparison: order-free, doubles to a relative 1e-9.
  using imci::Row;
  std::vector<Row> a = {{int64_t(1), 2.0}, {int64_t(2), 1.0}};
  std::vector<Row> b = {{int64_t(2), 1.0 + 1e-12}, {int64_t(1), 2.0}};
  std::vector<Row> c = {{int64_t(2), 1.5}, {int64_t(1), 2.0}};
  Check(ResultsMatch(a, b), "same rows in another order match");
  Check(!ResultsMatch(a, c), "a changed double does not match");
  Check(!ResultsMatch(a, {a[0]}), "a missing row does not match");

  // Trace: nested spans on two threads; self times add up to the latency
  // each caller measured.
  Tracer::Get().Clear();
  auto request = [] {
    // A new thread's first allocation sets up its malloc arena (tens of
    // us); keep that out of the request being checked.
    std::vector<char> warm(1 << 16);
    const uint64_t t0 = NowNs();
    {
      TraceRequest req("bench.selftest", true);
      BusyFor(200'000);
      ScopedSpan outer("selftest.outer");
      BusyFor(300'000);
      ScopedSpan inner("selftest.inner");
      BusyFor(500'000);
    }
    Tracer::Get().RecordLatency(NowNs() - t0);
  };
  std::thread t1(request), t2(request);
  t1.join();
  t2.join();
  {
    TraceRequest untraced("bench.selftest", false);
    ScopedSpan s("selftest.outer");
  }
  Tracer::Get().RecordLatency(1);  // after an untraced request: ignored
  TraceSummary ts = Tracer::Get().Summarize();
  Check(ts.requests == 2, "two traced requests, the untraced one dropped");
  Check(ts.timed_requests == 2, "both traced requests timed");
  Check(ts.spans == 6, "three spans per traced request");
  Check(ts.self_sum_error_pct < 1, "self times add up to the latencies");
  Check(ts.unattributed_pct > 5 && ts.unattributed_pct < 60,
        "the root's 0.2 of ~1 ms is unattributed");
  const double inner_ms = ts.self_ns.at("selftest.inner") / 2e6;
  const double outer_ms = ts.self_ns.at("selftest.outer") / 2e6;
  Check(inner_ms >= 0.5 && inner_ms < 5, "inner self time ~0.5 ms");
  Check(outer_ms >= 0.3 && outer_ms < 5, "outer self excludes the inner span");
  Check(ts.requests_with.at("selftest.inner") == 2, "inner seen in 2 requests");

  // A request whose caller saw far more time than its spans cover, and one
  // its caller never timed: both show in the summary the gate reads.
  {
    TraceRequest req("bench.selftest", true);
    BusyFor(100'000);
  }
  Tracer::Get().RecordLatency(10'000'000);
  {
    TraceRequest req("bench.selftest", true);
  }
  ts = Tracer::Get().Summarize();
  Check(ts.self_sum_error_pct > 50, "a 0.1 ms request timed at 10 ms misses");
  Check(ts.requests == 4 && ts.timed_requests == 3, "an untimed request shows");
  Tracer::Get().Clear();

  std::printf("self-test: %s (%d failed checks)\n",
              failures == 0 ? "pass" : "FAIL", failures);
  return failures;
}

}  // namespace perfbench
