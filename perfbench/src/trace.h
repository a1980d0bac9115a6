// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer of the engine; spans nest on the
// calling thread, and all spans under one root share a request id. Nothing
// is written until the run ends.
#ifndef IMCI_PERFBENCH_TRACE_H_
#define IMCI_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  // a string literal: the layer call
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;         // index in the same thread's buffer
  uint64_t request = 0;
};

/// Per-layer self time over every traced request.
struct TraceSummary {
  uint64_t requests = 0;
  uint64_t spans = 0;
  /// Traced requests the caller timed on its own (Tracer::RecordLatency).
  uint64_t timed_requests = 0;
  /// Sum over requests of each span name's self time (its duration minus
  /// the time its child spans cover).
  std::map<std::string, double> self_ns;
  /// Number of requests in which each span name occurs.
  std::map<std::string, uint64_t> requests_with;
  /// Over the timed requests: sum of |a request's self times, all spans,
  /// minus the latency its caller measured| against the summed latencies,
  /// in %. Large when spans leak out of the request or miss part of it.
  double self_sum_error_pct = 0;
  /// Over the timed requests: the share of the measured latency that no
  /// layer span covers (the root's own self time), in %.
  double unattributed_pct = 0;
};

class Tracer {
 public:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    /// {request id, latency the caller measured around the request}.
    std::vector<std::pair<uint64_t, uint64_t>> latencies;
  };

  /// The process-wide recorder. Spans are recorded only on threads inside a
  /// traced TraceRequest.
  static Tracer& Get();

  /// Records the latency the calling thread measured, with its own clock,
  /// around the traced request it ran last. Summarize checks each request's
  /// self times against it.
  void RecordLatency(uint64_t ns);

  TraceSummary Summarize() const;
  /// Writes every span in Chrome trace-event JSON. False on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Drops every recorded span (the self-test reuses the recorder).
  void Clear();

 private:
  friend class TraceRequest;
  friend class ScopedSpan;
  ThreadBuffer* Local();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  uint64_t next_request_ = 1;
};

/// A span around one call into a layer. A no-op unless the calling thread
/// is inside a traced request.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
};

/// The root span of one request. With `traced` false nothing in its scope
/// is recorded, which is how a traced run interleaves untraced requests to
/// measure the tracing overhead.
class TraceRequest {
 public:
  TraceRequest(const char* name, bool traced);
  ~TraceRequest();
  TraceRequest(const TraceRequest&) = delete;
  TraceRequest& operator=(const TraceRequest&) = delete;

 private:
  std::optional<ScopedSpan> root_;
};

}  // namespace perfbench

#endif  // IMCI_PERFBENCH_TRACE_H_
