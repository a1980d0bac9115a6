#include "polarfs/polarfs.h"

#include <string_view>
#include <unordered_set>

#include "archive/archive.h"
#include "common/clock.h"
#include "common/fault.h"
#include "log/log_store.h"

namespace imci {

namespace {
// Simulated device time rides the shared yield-discipline wait — see the
// clock/yield note in polarfs.h for why this must never become a sleep or
// a spin, and must stay the single wait primitive for fault latency too.
void SimulateLatency(uint32_t us) { YieldFor(us); }

/// Applies a write-path injection to a payload of `*size` bytes: kTorn
/// shrinks `*size` to the kept prefix (the caller still reports success —
/// torn writes are only discoverable later by checksum), kFail/kCrash
/// surface as IOError, kLatency already stalled inside MaybeInject.
Status ApplyWriteFault(const char* point, size_t* size) {
  fault::Injection inj;
  if (!fault::MaybeInject(point, &inj)) return Status::OK();
  switch (inj.kind) {
    case fault::Kind::kLatency:
      return Status::OK();
    case fault::Kind::kTorn:
      *size = static_cast<size_t>(static_cast<double>(*size) *
                                  inj.keep_fraction);
      return Status::OK();
    case fault::Kind::kFail:
    case fault::Kind::kCrash:
      return Status::IOError(std::string("injected fault at ") + point);
  }
  return Status::OK();
}

/// A torn write of a shared buffer stores a truncated copy: the original,
/// which other names may link, keeps its bytes.
Status ApplyWriteFault(const char* point, Blob* data) {
  size_t size = (*data)->size();
  IMCI_RETURN_NOT_OK(ApplyWriteFault(point, &size));
  if (size < (*data)->size()) {
    *data = std::make_shared<std::string>(**data, 0, size);
  }
  return Status::OK();
}

// Buffers are created non-const so that AppendFile may extend one in place
// while it has never been shared (see PolarFs::File).
Blob NewBlob(std::string bytes) {
  return std::make_shared<std::string>(std::move(bytes));
}
}  // namespace

PolarFs::PolarFs() : PolarFs(Options{}) {}
PolarFs::PolarFs(Options options) : options_(options) {}
PolarFs::~PolarFs() = default;

LogStore* PolarFs::log(const std::string& name) {
  std::lock_guard<std::mutex> g(logs_mu_);
  auto it = logs_.find(name);
  if (it == logs_.end()) {
    auto store =
        std::make_unique<LogStore>(this, name, options_.log_segment_bytes);
    // Lazy first open. Recovery of a brand-new log over an in-memory fs
    // only fails under an injected `logstore.recover` fault; tests that
    // exercise recovery failures go through ReopenLogs(), which reports
    // them.
    (void)store->Open();
    store->set_archive(archive());
    it = logs_.emplace(name, std::move(store)).first;
  }
  return it->second.get();
}

Status PolarFs::ReopenLogs() {
  std::lock_guard<std::mutex> g(logs_mu_);
  Status result;
  for (auto& [name, store] : logs_) {
    // Reopen every log even when one fails (each recovers independently);
    // report the first failure.
    if (Status s = store->Open(); !s.ok() && result.ok()) {
      result = std::move(s);
    }
  }
  return result;
}

Status PolarFs::SyncLog() {
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  SimulateLatency(options_.fsync_latency_us);
  return fault::Maybe("polarfs.fsync");
}

Status PolarFs::SyncControl() {
  SimulateLatency(options_.fsync_latency_us);
  return fault::Maybe("polarfs.fsync.control");
}

ArchiveStore* PolarFs::archive() {
  std::lock_guard<std::mutex> g(archive_mu_);
  if (!archive_) {
    archive_ = std::make_unique<ArchiveStore>(this);
    archive_->snapshots()->set_retention(options_.snapshot_retention);
  }
  return archive_.get();
}

uint64_t PolarFs::commit_batches() const {
  std::lock_guard<std::mutex> g(logs_mu_);
  uint64_t n = 0;
  for (auto& [name, store] : logs_) n += store->batches();
  return n;
}

uint64_t PolarFs::batched_commits() const {
  std::lock_guard<std::mutex> g(logs_mu_);
  uint64_t n = 0;
  for (auto& [name, store] : logs_) n += store->commits();
  return n;
}

Status PolarFs::WritePage(PageId id, std::string image) {
  return WritePage(id, NewBlob(std::move(image)));
}

Status PolarFs::WritePage(PageId id, Blob image) {
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  IMCI_RETURN_NOT_OK(ApplyWriteFault("polarfs.write_page", &image));
  std::lock_guard<std::mutex> g(page_mu_);
  Blob& slot = pages_[id];
  // A page rewritten unchanged keeps its buffer, so every anchor that saw
  // it shares one image (a checkpoint re-flushes every resident page).
  if (!slot || *slot != *image) slot = std::move(image);
  return Status::OK();
}

Status PolarFs::ReadPage(PageId id, Blob* image) const {
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  IMCI_RETURN_NOT_OK(fault::Maybe("polarfs.read_page"));
  std::lock_guard<std::mutex> g(page_mu_);
  auto it = pages_.find(id);
  if (it == pages_.end()) return Status::NotFound("page");
  *image = it->second;
  return Status::OK();
}

std::vector<PageId> PolarFs::ListPages() const {
  std::lock_guard<std::mutex> g(page_mu_);
  std::vector<PageId> v;
  v.reserve(pages_.size());
  for (auto& [id, img] : pages_) v.push_back(id);
  return v;
}

Status PolarFs::WriteFile(const std::string& name, std::string data) {
  return PutFile(name, NewBlob(std::move(data)), /*lent=*/false);
}

Status PolarFs::WriteFile(const std::string& name, Blob data) {
  return PutFile(name, std::move(data), /*lent=*/true);
}

Status PolarFs::PutFile(const std::string& name, Blob data, bool lent) {
  IMCI_RETURN_NOT_OK(ApplyWriteFault("polarfs.write_file", &data));
  std::lock_guard<std::mutex> g(file_mu_);
  files_[name] = File{std::move(data), lent};
  return Status::OK();
}

Status PolarFs::AppendFile(const std::string& name, const std::string& data) {
  // A torn append keeps a prefix of *this* append: earlier bytes of the
  // file are already durable and untouched, exactly like a crash mid-write
  // at the end of a real append-only segment.
  size_t keep = data.size();
  IMCI_RETURN_NOT_OK(ApplyWriteFault("polarfs.append_file", &keep));
  const std::string_view payload(data.data(), keep);
  std::lock_guard<std::mutex> g(file_mu_);
  File& f = files_[name];
  if (f.data && !f.lent) {
    // Never shared: the map holds the only reference to a buffer NewBlob
    // made, so extending it in place is invisible to everyone else.
    const_cast<std::string&>(*f.data).append(payload);
    return Status::OK();
  }
  // Shared or absent: the holders keep their bytes, the file gets a copy.
  std::string grown;
  grown.reserve((f.data ? f.data->size() : 0) + payload.size());
  if (f.data) grown.append(*f.data);
  grown.append(payload);
  f = File{NewBlob(std::move(grown)), false};
  return Status::OK();
}

Status PolarFs::ReadFile(const std::string& name, std::string* data) const {
  IMCI_RETURN_NOT_OK(fault::Maybe("polarfs.read_file"));
  std::lock_guard<std::mutex> g(file_mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("file " + name);
  *data = *it->second.data;
  return Status::OK();
}

Status PolarFs::ReadFile(const std::string& name, Blob* data) const {
  IMCI_RETURN_NOT_OK(fault::Maybe("polarfs.read_file"));
  std::lock_guard<std::mutex> g(file_mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("file " + name);
  it->second.lent = true;
  *data = it->second.data;
  return Status::OK();
}

Status PolarFs::DeleteFile(const std::string& name) {
  std::lock_guard<std::mutex> g(file_mu_);
  return files_.erase(name) ? Status::OK() : Status::NotFound(name);
}

std::vector<std::string> PolarFs::ListFiles(const std::string& prefix) const {
  std::lock_guard<std::mutex> g(file_mu_);
  std::vector<std::string> v;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    v.push_back(it->first);
  }
  return v;
}

uint64_t PolarFs::stored_bytes() const {
  std::scoped_lock g(page_mu_, file_mu_);
  std::unordered_set<const std::string*> seen;
  uint64_t n = 0;
  auto count = [&](const Blob& b) {
    if (seen.insert(b.get()).second) n += b->size();
  };
  for (const auto& [id, b] : pages_) count(b);
  for (const auto& [name, f] : files_) count(f.data);
  return n;
}

}  // namespace imci
