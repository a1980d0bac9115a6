#ifndef POLARDB_IMCI_COMMON_THREAD_POOL_H_
#define POLARDB_IMCI_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace imci {

/// Fixed-size worker pool with per-worker task deques and work stealing.
/// Used by the column engine's morsel-driven executor and by the 2P-COFFER
/// replay workers. Each worker owns a deque: Submit() round-robins new tasks
/// across the deques, the owner pops from the front (submission order), and
/// an idle worker steals from the back of a victim's deque. Tasks are plain
/// std::function<void()>; completion is tracked by the caller (ParallelFor
/// below waits per index).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);
  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Number of tasks executed by a worker that took them from another
  /// worker's deque (stealing actually happening, not just available).
  uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

 private:
  // One deque per worker; a plain mutex per deque keeps the protocol simple
  // (morsel-granularity tasks amortize the lock far past contention).
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int self);
  // Pops from the front of queue i (owner order) or steals from the back.
  bool TryTake(int self, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  // Sleep/wake protocol: pending_ counts queued-but-untaken tasks and is
  // mutated under mu_ so a Submit between "deques empty" and "wait" cannot
  // be lost.
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> next_queue_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
};

/// Per-pool token ledger for per-query worker accounting. A query acquires
/// up to `desired` tokens before fanning out and sizes its parallelism to
/// the grant; concurrent queries therefore share the pool's workers instead
/// of each assuming it owns the machine. The ledger never refuses a query:
/// the minimum grant is one token (the query degrades toward serial), so
/// admission control stays the proxy's job and no analytics query can
/// deadlock waiting for capacity.
class QueryTokenLedger {
 public:
  explicit QueryTokenLedger(int capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  /// Grants min(desired, free capacity), but always at least 1. Never
  /// blocks. Pair with Release(grant).
  int Acquire(int desired);
  void Release(int tokens);

  int capacity() const { return capacity_; }
  int in_use() const;
  int peak_in_use() const;
  uint64_t queries_admitted() const;
  /// Queries whose grant came back smaller than requested.
  uint64_t queries_throttled() const;

 private:
  const int capacity_;
  mutable std::mutex mu_;
  int in_use_ = 0;
  int peak_in_use_ = 0;
  uint64_t queries_admitted_ = 0;
  uint64_t queries_throttled_ = 0;
};

/// RAII wrapper around a ledger grant. A null ledger grants `desired`
/// unconditionally (standalone executors without a budget).
class QueryTokenGrant {
 public:
  QueryTokenGrant(QueryTokenLedger* ledger, int desired)
      : ledger_(ledger),
        tokens_(ledger ? ledger->Acquire(desired)
                       : (desired < 1 ? 1 : desired)) {}
  ~QueryTokenGrant() {
    if (ledger_) ledger_->Release(tokens_);
  }

  QueryTokenGrant(const QueryTokenGrant&) = delete;
  QueryTokenGrant& operator=(const QueryTokenGrant&) = delete;

  int tokens() const { return tokens_; }

 private:
  QueryTokenLedger* ledger_;
  int tokens_;
};

/// Runs fn(i) for i in [0, n) across the pool and waits for completion.
/// The indices are dispatched through a shared counter that the calling
/// thread also drains: the caller is a full participant, so progress is
/// guaranteed even when every pool worker is busy elsewhere (no deadlock
/// when ParallelFor is reached from inside a pool task), and a fast worker
/// naturally takes more indices than a slow one (stealing at loop
/// granularity on top of the pool's deque stealing).
void ParallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_THREAD_POOL_H_
