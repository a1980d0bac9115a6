// Ablation: pack compression codecs (§4.3) — google-benchmark micro
// measurements of encode/decode throughput and achieved ratios for the
// FOR+delta+bitpack integer codec and the string dictionary codec.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "imci/compression.h"

namespace imci {
namespace {

std::vector<int64_t> MakeInts(const std::string& pattern, size_t n) {
  Rng rng(7);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    if (pattern == "sequential") {
      v[i] = 1'000'000 + static_cast<int64_t>(i);
    } else if (pattern == "dates") {
      v[i] = 8000 + static_cast<int64_t>(rng.Next() % 2400);
    } else {
      v[i] = static_cast<int64_t>(rng.Next());
    }
  }
  return v;
}

void BM_IntEncode(benchmark::State& state, const std::string& pattern) {
  auto v = MakeInts(pattern, 65536);
  size_t encoded = 0;
  for (auto _ : state) {
    std::string buf;
    IntCodec::Encode(v, &buf);
    encoded = buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() * v.size() * 8);
  state.counters["ratio"] =
      static_cast<double>(v.size() * 8) / static_cast<double>(encoded);
}

void BM_IntDecode(benchmark::State& state, const std::string& pattern) {
  auto v = MakeInts(pattern, 65536);
  std::string buf;
  IntCodec::Encode(v, &buf);
  for (auto _ : state) {
    std::vector<int64_t> out;
    (void)IntCodec::Decode(buf, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * v.size() * 8);
}

void BM_DictEncode(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::string_view> v(65536);
  const char* tags[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                        "TRUCK"};
  size_t raw = 0;
  for (auto& s : v) {
    s = tags[rng.Next() % 7];
    raw += s.size();
  }
  size_t encoded = 0;
  for (auto _ : state) {
    std::string buf;
    DictCodec::Encode(v, &buf);
    encoded = buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() * raw);
  state.counters["ratio"] =
      static_cast<double>(raw) / static_cast<double>(encoded);
}

BENCHMARK_CAPTURE(BM_IntEncode, sequential, std::string("sequential"));
BENCHMARK_CAPTURE(BM_IntEncode, dates, std::string("dates"));
BENCHMARK_CAPTURE(BM_IntEncode, random, std::string("random"));
BENCHMARK_CAPTURE(BM_IntDecode, sequential, std::string("sequential"));
BENCHMARK_CAPTURE(BM_IntDecode, dates, std::string("dates"));
BENCHMARK(BM_DictEncode);

}  // namespace
}  // namespace imci

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// BENCH_ablation_compression.json (honoring IMCI_BENCH_OUT_DIR) so this
// bench emits a machine-readable report like the rest of the suite, and
// accepts the suite-wide --smoke=1 flag (mapped to a short
// --benchmark_min_time, stripped before benchmark::Initialize which rejects
// unknown flags).
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && arg.rfind("--smoke=", 0) == 0) {
      smoke = std::atof(arg.c_str() + sizeof("--smoke=") - 1) != 0;
      continue;
    }
    args.push_back(argv[i]);
  }
  bool has_out = false, has_fmt = false, has_min_time = false;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string arg = args[i];
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_out_format=", 0) == 0) has_fmt = true;
    if (arg.rfind("--benchmark_min_time=", 0) == 0) has_min_time = true;
  }
  std::string min_time_flag = "--benchmark_min_time=0.01";
  if (smoke && !has_min_time) args.push_back(min_time_flag.data());
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::string dir = ".";
    if (const char* env = std::getenv("IMCI_BENCH_OUT_DIR")) {
      if (*env != '\0') dir = env;
    }
    out_flag = "--benchmark_out=" + dir + "/BENCH_ablation_compression.json";
    args.push_back(out_flag.data());
    if (!has_fmt) args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
