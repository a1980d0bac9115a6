// Benchmark program: runs one workload against an in-process cluster and
// prints, as its last stdout line, one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics`. Untraced runs report the
// end-to-end metrics, traced runs (--trace 1) the per-layer metrics their
// workload reaches (run.py adds the rest as 0). Earlier lines carry labels
// (host, seed, pools, calibration, CPU steal) and the figures behind the
// metrics (sample counts, tails, rates).
//
//   imci_perfbench --workload olap_tpch --seed 1 --seconds 10 --trace 0
//   imci_perfbench --self-test
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <variant>

#include "bench.h"

namespace perfbench {

imci::ClusterOptions BaseClusterOptions() {
  imci::ClusterOptions o;
  o.fs.fsync_latency_us = kFsyncUs;
  o.ro.exec_threads = kExecThreads;
  o.ro.default_parallelism = kExecThreads;
  o.ro.replication.parse_parallelism = kParseWorkers;
  o.ro.replication.apply_parallelism = kApplyWorkers;
  o.ro.imci.row_group_size = kRowGroupRows;
  return o;
}

void RunResult::Summary(const std::string& name,
                        const std::vector<uint64_t>& ns) {
  const double tail = SupportedTail(ns.size());
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "p50 %.4f ms",
                        NsToMs(double(Percentile(ns, 50))));
  if (tail > 50) {
    n += std::snprintf(buf + n, sizeof(buf) - n, ", p%g %.4f ms", tail,
                       NsToMs(double(Percentile(ns, tail))));
  }
  std::snprintf(buf + n, sizeof(buf) - n, ", n=%zu", ns.size());
  info[name] = buf;
}

void RunResult::RecordSetup(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  if (seconds.empty()) return;
  e2e["setup_s"] = {seconds[seconds.size() / 2], "s"};
  char buf[128];
  std::snprintf(buf, sizeof(buf), "median of %zu: min %.4f s, max %.4f s",
                seconds.size(), seconds.front(), seconds.back());
  info["setup_s"] = buf;
}

namespace {

// Sort key of a result row: every non-double value, in column order. Rows
// that differ only by rounding in doubles sort alike.
std::string RowKey(const imci::Row& row) {
  std::string key;
  for (const imci::Value& v : row) {
    if (std::holds_alternative<double>(v)) continue;
    key += imci::ValueToString(v);
    key += '\x1f';
  }
  return key;
}

bool ValuesMatch(const imci::Value& a, const imci::Value& b) {
  if (std::holds_alternative<double>(a) && std::holds_alternative<double>(b)) {
    const double x = std::get<double>(a), y = std::get<double>(b);
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

// Rows ordered by RowKey, ties broken by their doubles.
std::vector<const imci::Row*> SortedRows(const std::vector<imci::Row>& rows) {
  std::vector<std::pair<std::string, const imci::Row*>> keyed;
  keyed.reserve(rows.size());
  for (const imci::Row& r : rows) keyed.emplace_back(RowKey(r), &r);
  std::stable_sort(keyed.begin(), keyed.end(), [](const auto& x,
                                                  const auto& y) {
    if (x.first != y.first) return x.first < y.first;
    const imci::Row& rx = *x.second;
    const imci::Row& ry = *y.second;
    for (size_t i = 0; i < rx.size() && i < ry.size(); ++i) {
      if (std::holds_alternative<double>(rx[i]) &&
          std::holds_alternative<double>(ry[i]) &&
          std::get<double>(rx[i]) != std::get<double>(ry[i])) {
        return std::get<double>(rx[i]) < std::get<double>(ry[i]);
      }
    }
    return false;
  });
  std::vector<const imci::Row*> out;
  out.reserve(keyed.size());
  for (const auto& k : keyed) out.push_back(k.second);
  return out;
}

}  // namespace

bool ResultsMatch(const std::vector<imci::Row>& a,
                  const std::vector<imci::Row>& b) {
  if (a.size() != b.size()) return false;
  const std::vector<const imci::Row*> sa = SortedRows(a), sb = SortedRows(b);
  for (size_t i = 0; i < sa.size(); ++i) {
    const imci::Row& x = *sa[i];
    const imci::Row& y = *sb[i];
    if (x.size() != y.size()) return false;
    for (size_t c = 0; c < x.size(); ++c) {
      if (!ValuesMatch(x[c], y[c])) return false;
    }
  }
  return true;
}

void AddSpanLayers(const TraceSummary& ts, RunResult* r) {
  double generator_ns = 0;
  for (const auto& [name, self_ns] : ts.self_ns) {
    if (name.rfind("bench.", 0) == 0) {
      generator_ns += self_ns;
      continue;
    }
    const auto it = ts.requests_with.find(name);
    const double n = it == ts.requests_with.end() ? 1 : double(it->second);
    r->layers[name + "_ms"] = {NsToMs(self_ns / n), "ms"};
  }
  r->layers["bench.generator_ms"] = {
      ts.requests ? NsToMs(generator_ns / double(ts.requests)) : 0, "ms"};
  r->layers["trace.self_sum_error_pct"] = {ts.self_sum_error_pct, "%"};
  r->layers["trace.unattributed_pct"] = {ts.unattributed_pct, "%"};
  r->layers["trace.requests"] = {double(ts.requests), "count"};
  // Each request's self times must add up to the latency its caller timed
  // with its own clock around the call: more means spans leaked in from
  // elsewhere, less that part of the call ran outside the root span.
  constexpr double kSelfSumTolerancePct = 1.0;
  if (ts.self_sum_error_pct > kSelfSumTolerancePct) {
    r->Fail("trace: self times miss the measured latencies by " +
            std::to_string(ts.self_sum_error_pct) + "%");
  }
  if (ts.timed_requests != ts.requests) {
    r->Fail("trace: " + std::to_string(ts.requests - ts.timed_requests) +
            " traced requests have no measured latency");
  }
  if (ts.requests == 0) r->Fail("trace: no request was traced");
}

void WriteTrace(const RunOptions& opt, RunResult* r) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string path = ".bench_out/trace_" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + ".json";
  r->info["trace_file"] =
      Tracer::Get().WriteChromeTrace(path) ? path : "(write failed)";
}

uint64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}

void WaitUntil(uint64_t due_ns) {
  // Timer slack on a loaded host is tens to hundreds of microseconds, so
  // sleep only while the deadline is comfortably far, then yield.
  constexpr uint64_t kSpinNs = 300'000;
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= due_ns) return;
    if (due_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - kSpinNs));
    } else {
      std::this_thread::yield();
    }
  }
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double CalibrationMs() {
  const uint64_t start = NowNs();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000'000; ++i) {  // xorshift: no memory traffic
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;  // keeps the loop from being folded away
  (void)sink;
  return NsToMs(double(NowNs() - start));
}

}  // namespace perfbench

namespace {

// Aggregate CPU ticks from /proc/stat: {steal, total}. Steal is time the
// hypervisor ran something else on this VM's vCPUs.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 10 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    char buf[64];
    const double v = std::isfinite(metric.value) ? metric.value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + JsonEscape(metric.unit) + "\"}";
  }
  return out + "}";
}

std::string StringsJson(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: imci_perfbench --workload <olap_tpch|htap_fresh|"
               "oltp_small_pool> --seed <n> --seconds <s> "
               "--trace <0|1>\n       imci_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return perfbench::RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      opt.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (!(opt.seconds > 0 && opt.seconds <= 120)) return Usage();

  const auto ticks_start = CpuTicks();
  const double calib_start = perfbench::CalibrationMs();
  RunResult r;
  if (opt.workload == "olap_tpch") {
    r = perfbench::RunOlapTpch(opt);
  } else if (opt.workload == "oltp_small_pool") {
    r = perfbench::RunOltpSmallPool(opt);
  } else if (opt.workload == "htap_fresh") {
    r = perfbench::RunHtapFresh(opt);
  } else {
    return Usage();
  }
  const double calib_end = perfbench::CalibrationMs();
  const auto ticks_end = CpuTicks();

  r.labels["workload"] = opt.workload;
  r.labels["seed"] = std::to_string(opt.seed);
  r.labels["seconds"] = std::to_string(opt.seconds);
  r.labels["trace"] = opt.trace ? "1" : "0";
  r.labels["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.labels["sanitizer"] = Sanitizer();
  r.labels["exec_threads_per_ro"] = std::to_string(perfbench::kExecThreads);
  r.labels["parse_workers_per_ro"] = std::to_string(perfbench::kParseWorkers);
  r.labels["apply_workers_per_ro"] = std::to_string(perfbench::kApplyWorkers);
  r.labels["fsync_us"] = std::to_string(perfbench::kFsyncUs);
  r.labels["row_group_rows"] = std::to_string(perfbench::kRowGroupRows);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", calib_start);
  r.labels["calibration_start_ms"] = buf;
  std::snprintf(buf, sizeof(buf), "%.1f", calib_end);
  r.labels["calibration_end_ms"] = buf;
  const uint64_t ticks = ticks_end.second - ticks_start.second;
  std::snprintf(buf, sizeof(buf), "%.2f",
                ticks ? 100.0 * double(ticks_end.first - ticks_start.first) /
                            double(ticks)
                      : 0.0);
  r.labels["cpu_steal_pct"] = buf;
  std::snprintf(buf, sizeof(buf), "%.6f", r.ops.failure_share());
  r.info["failure_share"] = buf;

  const std::map<std::string, Metric>& metrics = opt.trace ? r.layers : r.e2e;
  for (const std::string& e : r.gate_errors) {
    std::printf("# gate failure: %s\n", e.c_str());
  }
  std::printf("{\"labels\": %s}\n", StringsJson(r.labels).c_str());
  std::printf("{\"info\": %s}\n", StringsJson(r.info).c_str());
  const bool correct = r.gate_ok && r.ops.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", r.ops.attempted, r.ops.failed,
      MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}
