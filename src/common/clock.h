#ifndef POLARDB_IMCI_COMMON_CLOCK_H_
#define POLARDB_IMCI_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace imci {

/// Monotonic wall-clock helpers used by benches and visibility-delay
/// measurement.
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Yield-discipline blocking wait: the caller makes no progress before the
/// deadline, but the CPU is released (yield) so every other thread keeps
/// running meanwhile. This is THE clock/wait primitive for simulated device
/// time — PolarFs fsync/page-read latency and injected fault latency spikes
/// (common/fault.h) all go through it, so A/B comparisons never mix wait
/// disciplines. Two properties matter (see polarfs.h):
///  - yield, not sleep_for: timed-sleep wakeup depends on kernel timer
///    slack and would differ across otherwise-identical configurations;
///  - yield, not spin: on 1-core runners a blocking "device wait" must let
///    other threads (e.g. committers enqueuing into the next group-commit
///    batch) run during the stall, exactly as during a real fsync.
inline void YieldFor(uint64_t us) {
  if (us == 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

/// Simple stopwatch.
class Timer {
 public:
  Timer() : start_(NowMicros()) {}
  void Reset() { start_ = NowMicros(); }
  uint64_t ElapsedMicros() const { return NowMicros() - start_; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  uint64_t start_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_CLOCK_H_
