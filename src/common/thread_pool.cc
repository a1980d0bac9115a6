#include "common/thread_pool.h"

#include <algorithm>

namespace imci {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  queues_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    queues_.emplace_back(new WorkerQueue());
  }
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const size_t n = queues_.size();
  const size_t target = next_queue_.fetch_add(1, std::memory_order_relaxed) % n;
  {
    std::lock_guard<std::mutex> g(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    ++pending_;
  }
  cv_.notify_one();
}

bool ThreadPool::TryTake(int self, std::function<void()>* task) {
  const int n = static_cast<int>(queues_.size());
  // Own deque first, in submission order.
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> g(q.mu);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of the other deques, scanning from our right-hand
  // neighbour so thieves spread across victims instead of mobbing worker 0.
  for (int off = 1; off < n; ++off) {
    WorkerQueue& q = *queues_[(self + off) % n];
    std::lock_guard<std::mutex> g(q.mu);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.back());
      q.tasks.pop_back();
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  for (;;) {
    std::function<void()> task;
    if (TryTake(self, &task)) {
      {
        std::lock_guard<std::mutex> g(mu_);
        --pending_;
      }
      task();
      continue;
    }
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return stop_ || pending_ > 0; });
    if (stop_ && pending_ == 0) return;
    // pending_ > 0: some deque has a task; loop back and race to take it.
  }
}

int QueryTokenLedger::Acquire(int desired) {
  if (desired < 1) desired = 1;
  std::lock_guard<std::mutex> g(mu_);
  int grant = std::max(1, std::min(desired, capacity_ - in_use_));
  in_use_ += grant;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  ++queries_admitted_;
  if (grant < desired) ++queries_throttled_;
  return grant;
}

void QueryTokenLedger::Release(int tokens) {
  std::lock_guard<std::mutex> g(mu_);
  in_use_ -= tokens;
}

int QueryTokenLedger::in_use() const {
  std::lock_guard<std::mutex> g(mu_);
  return in_use_;
}

int QueryTokenLedger::peak_in_use() const {
  std::lock_guard<std::mutex> g(mu_);
  return peak_in_use_;
}

uint64_t QueryTokenLedger::queries_admitted() const {
  std::lock_guard<std::mutex> g(mu_);
  return queries_admitted_;
}

uint64_t QueryTokenLedger::queries_throttled() const {
  std::lock_guard<std::mutex> g(mu_);
  return queries_throttled_;
}

void ParallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (n == 1 || pool == nullptr) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared-counter dispatch: each runner (pool workers plus the caller)
  // drains indices until the counter runs dry. Completion is tracked per
  // *index*, not per helper task: the caller's wait is satisfied the moment
  // every fn(i) has finished, even when some queued helpers never got a
  // worker (they run later as no-ops against the heap-held state). Waiting
  // on helper tasks instead would deadlock nested ParallelFor — every
  // worker can be blocked in an outer index's inner Wait(), leaving nobody
  // to schedule the inner helpers it is waiting for.
  struct State {
    std::atomic<int> next{0};
    int n = 0;
    std::function<void(int)> fn;
    std::mutex mu;
    std::condition_variable cv;
    int completed = 0;
  };
  auto st = std::make_shared<State>();
  st->n = n;
  st->fn = fn;
  auto runner = [st] {
    int done = 0;
    for (int i = st->next.fetch_add(1, std::memory_order_relaxed); i < st->n;
         i = st->next.fetch_add(1, std::memory_order_relaxed)) {
      st->fn(i);
      ++done;
    }
    if (done > 0) {
      std::lock_guard<std::mutex> g(st->mu);
      st->completed += done;
      if (st->completed == st->n) st->cv.notify_all();
    }
  };
  const int helpers = std::min(n - 1, pool->num_threads());
  for (int h = 0; h < helpers; ++h) pool->Submit(runner);
  runner();
  std::unique_lock<std::mutex> l(st->mu);
  st->cv.wait(l, [&] { return st->completed == st->n; });
}

}  // namespace imci
