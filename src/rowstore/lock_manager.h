#ifndef POLARDB_IMCI_ROWSTORE_LOCK_MANAGER_H_
#define POLARDB_IMCI_ROWSTORE_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/coding.h"
#include "common/status.h"
#include "common/types.h"

namespace imci {

/// Row-level exclusive lock table for the RW node (strict 2PL: the
/// transaction manager releases each key it locked at commit/rollback).
/// Deadlocks are resolved by lock-wait timeout -> the requesting transaction
/// receives Status::Busy and is expected to abort and retry, which is how
/// the TPC-C driver handles contention. A key has at most one owner TID;
/// the owner's repeated request is granted at once.
class LockManager {
 public:
  explicit LockManager(uint64_t timeout_us = 50'000) : timeout_us_(timeout_us) {}

  /// Acquires the exclusive lock on (table_id, key) for `tid`. Re-entrant
  /// for the owner.
  Status Lock(Tid tid, TableId table_id, int64_t key) {
    Shard& shard = ShardFor(table_id, key);
    const LockKey k{table_id, key};
    std::unique_lock<std::mutex> l(shard.mu);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(timeout_us_);
    for (;;) {
      auto [it, granted] = shard.owners.try_emplace(k, tid);
      if (granted || it->second == tid) return Status::OK();
      if (shard.cv.wait_until(l, deadline) == std::cv_status::timeout) {
        return Status::Busy("lock wait timeout");
      }
    }
  }

  /// Releases `tid`'s lock on one key (no-op if another TID or nobody owns
  /// it).
  void Unlock(Tid tid, TableId table_id, int64_t key) {
    Shard& shard = ShardFor(table_id, key);
    {
      std::lock_guard<std::mutex> g(shard.mu);
      auto it = shard.owners.find(LockKey{table_id, key});
      if (it == shard.owners.end() || it->second != tid) return;
      shard.owners.erase(it);
    }
    shard.cv.notify_all();
  }

 private:
  struct LockKey {
    TableId table_id;
    int64_t key;
    bool operator==(const LockKey& o) const {
      return table_id == o.table_id && key == o.key;
    }
  };
  struct LockKeyHash {
    size_t operator()(const LockKey& k) const {
      return Hash64((static_cast<uint64_t>(k.table_id) << 48) ^
                    static_cast<uint64_t>(k.key));
    }
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LockKey, Tid, LockKeyHash> owners;  // key -> owner
  };

  static constexpr int kShards = 64;
  Shard& ShardFor(TableId t, int64_t k) {
    return shards_[LockKeyHash{}(LockKey{t, k}) % kShards];
  }

  uint64_t timeout_us_;
  Shard shards_[kShards];
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_LOCK_MANAGER_H_
