#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

namespace {

uint64_t Now() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread recording state. A thread's buffer is only appended to by that
// thread and only read once every generator thread has joined.
thread_local Tracer::ThreadBuffer* tl_buffer = nullptr;
thread_local bool tl_traced = false;
thread_local uint64_t tl_request = 0;
thread_local int64_t tl_open = -1;  // innermost open span
thread_local uint64_t tl_last_request = 0;  // awaiting RecordLatency

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<uint32_t>(buffers_.size());
    tl_buffer = buffers_.back().get();
  }
  return tl_buffer;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& b : buffers_) {
    b->spans.clear();
    b->latencies.clear();
  }
}

void Tracer::RecordLatency(uint64_t ns) {
  if (tl_last_request == 0) return;
  Local()->latencies.emplace_back(tl_last_request, ns);
  tl_last_request = 0;
}

TraceSummary Tracer::Summarize() const {
  std::lock_guard<std::mutex> g(mu_);
  TraceSummary sum;
  double error_ns = 0, unattributed_ns = 0, latency_ns = 0;
  for (const auto& b : buffers_) {
    const std::vector<Span>& spans = b->spans;
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += double(s.end_ns - s.start_ns);
    }
    // Per request: {sum of every span's self time, the root's self time}.
    std::map<uint64_t, std::pair<double, double>> req_self;
    std::map<uint64_t, std::set<std::string>> req_names;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = double(s.end_ns - s.start_ns) - child_ns[i];
      sum.self_ns[s.name] += self;
      req_names[s.request].insert(s.name);
      req_self[s.request].first += self;
      if (s.parent < 0) req_self[s.request].second += self;
      ++sum.spans;
    }
    sum.requests += req_self.size();
    for (const auto& [req, names] : req_names) {
      for (const std::string& n : names) ++sum.requests_with[n];
    }
    for (const auto& [req, ns] : b->latencies) {
      const auto it = req_self.find(req);
      if (it == req_self.end()) continue;
      ++sum.timed_requests;
      error_ns += std::fabs(it->second.first - double(ns));
      unattributed_ns += it->second.second;
      latency_ns += double(ns);
    }
  }
  if (latency_ns > 0) {
    sum.self_sum_error_pct = error_ns / latency_ns * 100.0;
    sum.unattributed_pct = unattributed_ns / latency_ns * 100.0;
  }
  return sum;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"span\":%zu,\"parent\":%lld}}",
                   first ? "" : ",", s.name, b->thread, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request), i,
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!tl_traced) return;
  Tracer::ThreadBuffer* buf = Tracer::Get().Local();
  index_ = static_cast<int64_t>(buf->spans.size());
  Span s;
  s.name = name;
  s.parent = tl_open;
  s.request = tl_request;
  s.start_ns = Now();
  buf->spans.push_back(s);
  tl_open = index_;
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  Span& s = tl_buffer->spans[index_];
  s.end_ns = Now();
  tl_open = s.parent;
}

TraceRequest::TraceRequest(const char* name, bool traced) {
  tl_last_request = 0;
  if (!traced) return;
  Tracer& t = Tracer::Get();
  {
    std::lock_guard<std::mutex> g(t.mu_);
    tl_request = t.next_request_++;
  }
  tl_traced = true;
  root_.emplace(name);
}

TraceRequest::~TraceRequest() {
  if (!root_) return;
  root_.reset();
  tl_traced = false;
  tl_last_request = tl_request;
}

}  // namespace perfbench
