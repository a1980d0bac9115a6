#include "log/log_store.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/coding.h"
#include "common/fault.h"
#include "polarfs/polarfs.h"

namespace imci {

namespace {

constexpr size_t kFrameHeader = 4 + 8;  // len + payload hash

void AppendFrame(std::string* dst, const std::string& payload) {
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed64(dst, HashBytes(payload.data(), payload.size()));
  dst->append(payload);
}

}  // namespace

LogStore::LogStore(PolarFs* fs, std::string name, size_t segment_bytes)
    : fs_(fs), name_(std::move(name)), segment_bytes_(segment_bytes) {}

std::string LogStore::SegmentFileName(const std::string& log_name,
                                      Lsn first_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg_%020llu",
                static_cast<unsigned long long>(first_lsn));
  return "log/" + log_name + "/" + buf;
}

std::string LogStore::WatermarkFileName() const {
  return "log/" + name_ + "/TRUNCATED";
}

bool LogStore::ParseSegment(const std::string& data, Lsn cut, Segment* seg) {
  size_t pos = 0;
  Lsn lsn = seg->first - 1;
  while (lsn < cut && pos + kFrameHeader <= data.size()) {
    const uint32_t len = GetFixed32(data.data() + pos);
    const uint64_t hash = GetFixed64(data.data() + pos + 4);
    if (pos + kFrameHeader + len > data.size()) break;  // torn frame
    if (HashBytes(data.data() + pos + kFrameHeader, len) != hash) break;
    seg->offsets.push_back(static_cast<uint32_t>(pos));
    pos += kFrameHeader + len;
    ++lsn;
  }
  seg->last = lsn;
  const bool intact = pos == data.size();
  // Keep only the verified prefix in memory; the caller decides whether the
  // durable file needs the same trim.
  seg->data = data.substr(0, pos);
  return intact;
}

Status LogStore::Open() {
  std::lock_guard<std::mutex> g(mu_);
  IMCI_RETURN_NOT_OK(fault::Maybe("logstore.recover"));
  // A poisoned log's written tail is its cut: the files may still hold
  // records above it, and they are trimmed below like a torn tail, before
  // the latch clears. A failed trim fails Open and keeps the latch.
  const Lsn cut = poison_.ok() ? UINT64_MAX : written_lsn_.load();
  segments_.clear();

  Lsn truncated = 0;
  std::string wm;
  if (fs_->ReadFile(WatermarkFileName(), &wm).ok() && wm.size() >= 8) {
    truncated = GetFixed64(wm.data());
  }
  truncated_lsn_.store(truncated, std::memory_order_release);

  // Segment names embed their zero-padded first LSN, so the lexicographic
  // listing order is LSN order.
  const std::string prefix = "log/" + name_ + "/seg_";
  std::vector<std::string> files = fs_->ListFiles(prefix);
  std::sort(files.begin(), files.end());

  Lsn tail = truncated;
  bool torn = false;
  for (const std::string& file : files) {
    const Lsn first =
        std::strtoull(file.c_str() + prefix.size(), nullptr, 10);
    if (torn || first != tail + 1) {
      // Everything after a tear (or a gap) is an orphan of the crash:
      // unreachable by dense-LSN replay, so reclaim it (best-effort — an
      // undeleted orphan is re-detected by the next recovery).
      (void)fs_->DeleteFile(file);
      continue;
    }
    Segment seg;
    seg.first = first;
    seg.file = file;
    std::string data;
    Status s = fs_->ReadFile(file, &data);
    if (!s.ok()) return s;
    const bool intact = ParseSegment(data, cut, &seg);
    if (!intact || seg.offsets.empty()) {
      // Torn tail inside this segment: trim the durable image to the good
      // prefix so the next recovery sees a clean log. A zero-record file can
      // only be a crash artifact (segment files are created on their first
      // append), so a tear on the segment boundary itself lands here too:
      // nothing in this segment survived; the log ends with the previous one.
      torn = true;
      if (seg.offsets.empty()) {
        (void)fs_->DeleteFile(file);
        continue;
      }
      IMCI_RETURN_NOT_OK(fs_->WriteFile(file, seg.data));
    }
    tail = seg.last;
    seg.sealed = true;  // recovered segments take no further appends
    seg.data.clear();   // sealed: serve reads from the durable copy
    seg.data.shrink_to_fit();
    segments_.push_back(std::move(seg));
  }
  written_lsn_.store(tail, std::memory_order_release);
  // Everything recovery re-read from segment files is durable by definition,
  // and the clean state it re-derived clears the latch.
  std::lock_guard<std::mutex> c(batch_mu_);
  durable_lsn_.store(tail, std::memory_order_release);
  poison_ = Status::OK();
  return Status::OK();
}

void LogStore::StartSegmentLocked(Lsn first_lsn) {
  Segment seg;
  seg.first = first_lsn;
  seg.last = first_lsn - 1;
  seg.file = SegmentFileName(name_, first_lsn);
  segments_.push_back(std::move(seg));
}

Lsn LogStore::Append(std::vector<std::string> records, bool durable,
                     Status* error) {
  if (error != nullptr) *error = Status::OK();
  auto fail = [error](Status s) {
    if (error != nullptr) *error = std::move(s);
    return Lsn{0};
  };
  if (Status s = fault::Maybe("logstore.append"); !s.ok()) {
    return fail(std::move(s));
  }
  Lsn last;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!poison_.ok()) return fail(poison_);
    if (segments_.empty() || segments_.back().sealed) {
      StartSegmentLocked(written_lsn_.load(std::memory_order_relaxed) + 1);
    }
    uint64_t bytes = 0;
    std::string flush;  // frames not yet written through to the active file
    for (std::string& payload : records) {
      Segment* active = &segments_.back();
      if (!active->offsets.empty() &&
          active->data.size() >= segment_bytes_) {
        // Roll over at a record boundary: flush what this batch added to the
        // sealed segment, then open the next one. The sealed segment's
        // in-memory mirror is dropped — the durable copy serves its reads.
        if (!flush.empty()) {
          Status ws = fs_->AppendFile(active->file, flush);
          if (!ws.ok()) {
            // The durable image and the in-memory index have diverged:
            // poison back to the fsync watermark, exactly as a failed batch
            // fsync would.
            PoisonToDurableLocked(ws);
            return fail(std::move(ws));
          }
          flush.clear();
        }
        active->sealed = true;
        active->data.clear();
        active->data.shrink_to_fit();
        StartSegmentLocked(active->last + 1);
        active = &segments_.back();
      }
      bytes += payload.size();
      active->offsets.push_back(static_cast<uint32_t>(active->data.size()));
      AppendFrame(&active->data, payload);
      flush.append(active->data, active->offsets.back(),
                   active->data.size() - active->offsets.back());
      active->last++;
    }
    if (!flush.empty()) {
      Status ws = fs_->AppendFile(segments_.back().file, flush);
      if (!ws.ok()) {
        PoisonToDurableLocked(ws);
        return fail(std::move(ws));
      }
    }
    fs_->AccountLogBytes(bytes);
    last = segments_.back().last;
    // Publish under mu_, so a poison trim (also under mu_) can never be
    // overtaken by a stale publication above it. Publication must precede
    // the durability wait below — the group-commit leader's batch target is
    // written_lsn(), which has to cover this batch for SyncTo to terminate.
    written_lsn_.store(last, std::memory_order_release);
  }
  // Notify: the "broadcast its up-to-date LSN" step of CALS (§5.1).
  cv_.notify_all();
  if (durable) {
    if (Status s = SyncTo(last); !s.ok()) return fail(std::move(s));
  }
  return last;
}

Status LogStore::SyncTo(Lsn lsn) {
  commits_.fetch_add(1, std::memory_order_relaxed);
  // Fast path: an earlier batch's fsync ran after our record was already in
  // the segment file, so we are durable without waiting at all. (A poison
  // trims only above the watermark, so a covered record stays covered.)
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  std::unique_lock<std::mutex> l(batch_mu_);
  while (durable_lsn_.load(std::memory_order_relaxed) < lsn) {
    // The latch fails every commit above the watermark — ours included,
    // whether we lead, follow, or arrive late. Checked on every wake-up: the
    // latch can be set while we wait.
    if (!poison_.ok()) return poison_;
    if (leader_active_) {
      // Follower: a leader's fsync is in flight. If it covers us we are
      // woken durable; if we appended after its snapshot we loop and the
      // next batch picks us up.
      batch_cv_.wait(l);
      continue;
    }
    // Leader: snapshot the written tail first — the one fsync below covers
    // every record write-through appended up to this instant, not just ours.
    // With the latch clear under batch_mu_, no poison has rolled the tail
    // back below our published record.
    const Lsn target = written_lsn();
    assert(lsn <= target && "SyncTo on an LSN that was never appended");
    if (lsn > target) lsn = target;
    leader_active_ = true;
    l.unlock();
    Status s = fs_->SyncLog();
    // The batch fsync failed: nothing in (durable, target] is guaranteed on
    // the device. Poison the log (trims the un-fsynced tail; both mutexes
    // are free here) and fail every waiter through the latch.
    if (!s.ok()) PoisonToDurable(s);
    l.lock();
    leader_active_ = false;
    batch_cv_.notify_all();
    if (!s.ok()) return s;
    // Advance only while the latch is clear: a poison that landed during the
    // fsync has already trimmed the tail to the old watermark.
    if (!poison_.ok()) return poison_;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      durable_lsn_.store(target, std::memory_order_release);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

bool LogStore::poisoned() const {
  std::lock_guard<std::mutex> g(mu_);
  return !poison_.ok();
}

void LogStore::PoisonToDurable(const Status& cause) {
  std::lock_guard<std::mutex> g(mu_);
  PoisonToDurableLocked(cause);
}

void LogStore::PoisonToDurableLocked(const Status& cause) {
  Lsn durable;
  {
    // Latch and watermark read under batch_mu_, where a batch leader
    // advances the watermark only while the latch is clear: either the
    // leader advanced first and the trim below keeps its fsynced batch, or
    // the latch came first and the leader fails instead of advancing.
    std::lock_guard<std::mutex> c(batch_mu_);
    if (!poison_.ok()) return;
    poison_ = Status::IOError("log '" + name_ + "' poisoned (" +
                              cause.ToString() + "); Open() to recover");
    durable = durable_lsn();
    cuts_.push_back(durable);
    poisons_.store(cuts_.size(), std::memory_order_release);
  }
  // The un-fsynced tail was never guaranteed device-side. Trim it from the
  // in-memory index so the live view never shows records that the next
  // recovery would not — the exact state a crash at this fsync would leave
  // behind. The segment files are cut by the next Open().
  while (!segments_.empty() && segments_.back().first > durable) {
    segments_.pop_back();
  }
  if (!segments_.empty() && segments_.back().last > durable) {
    Segment& seg = segments_.back();
    const size_t keep = static_cast<size_t>(durable + 1 - seg.first);
    if (!seg.sealed) seg.data.resize(seg.offsets[keep]);
    seg.offsets.resize(keep);
    seg.last = durable;
  }
  written_lsn_.store(durable, std::memory_order_release);
}

bool LogStore::CutBelow(Lsn lsn, uint64_t* seen) const {
  if (poisons_.load(std::memory_order_acquire) == *seen) return false;
  std::lock_guard<std::mutex> g(mu_);
  for (size_t i = *seen; i < cuts_.size(); ++i) {
    if (cuts_[i] < lsn) return true;
  }
  *seen = cuts_.size();
  return false;
}

Lsn LogStore::Read(Lsn from, Lsn to, std::vector<std::string>* out,
                   Status* error) const {
  if (error != nullptr) *error = Status::OK();
  if (Status s = fault::Maybe("logstore.read"); !s.ok()) {
    if (error != nullptr) *error = std::move(s);
    return from;
  }
  std::lock_guard<std::mutex> g(mu_);
  Lsn last = from;
  if (segments_.empty()) return last;
  const Lsn max_lsn = segments_.back().last;
  if (to > max_lsn) to = max_lsn;
  // Locate the first segment that may contain from+1 (segments are sorted).
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), from + 1,
      [](Lsn lsn, const Segment& seg) { return lsn < seg.first; });
  if (it != segments_.begin()) --it;
  std::string loaded;
  for (; it != segments_.end() && it->first <= to; ++it) {
    const Lsn begin = std::max(from + 1, it->first);
    const Lsn end = std::min(to, it->last);
    if (begin > end) continue;
    // Sealed segments keep no in-memory mirror; fetch the durable copy once
    // per segment. A failed fetch STOPS the scan — skipping ahead would
    // hand the caller a silent gap in the record stream.
    const std::string* data = &it->data;
    if (it->sealed) {
      Status s = fs_->ReadFile(it->file, &loaded);
      if (!s.ok()) {
        if (error != nullptr) *error = std::move(s);
        return last;
      }
      data = &loaded;
    }
    for (Lsn lsn = begin; lsn <= end; ++lsn) {
      const size_t idx = static_cast<size_t>(lsn - it->first);
      const uint32_t off = it->offsets[idx];
      const uint32_t len = GetFixed32(data->data() + off);
      out->emplace_back(*data, off + kFrameHeader, len);
      last = lsn;
    }
  }
  return last;
}

void LogStore::set_archive(ArchiveSink* sink) {
  archive_.store(sink, std::memory_order_release);
}

bool LogStore::DecodeFrames(const std::string& data,
                            std::vector<std::string>* out) {
  size_t pos = 0;
  while (pos + kFrameHeader <= data.size()) {
    const uint32_t len = GetFixed32(data.data() + pos);
    const uint64_t hash = GetFixed64(data.data() + pos + 4);
    if (pos + kFrameHeader + len > data.size()) return false;  // torn frame
    if (HashBytes(data.data() + pos + kFrameHeader, len) != hash) return false;
    out->emplace_back(data, pos + kFrameHeader, len);
    pos += kFrameHeader + len;
  }
  return pos == data.size();
}

Status LogStore::Truncate(Lsn lsn) {
  IMCI_RETURN_NOT_OK(fault::Maybe("logstore.truncate"));
  std::lock_guard<std::mutex> g(mu_);
  // The files may still hold a poisoned tail that must not be archived.
  if (!poison_.ok()) return poison_;
  ArchiveSink* archive = archive_.load(std::memory_order_acquire);
  bool recycled = false;
  Status result;
  while (!segments_.empty() && segments_.front().sealed &&
         segments_.front().last <= lsn) {
    if (archive != nullptr) {
      // Seal-before-truncate: the archive absorbs the segment's durable
      // bytes before the only copy is deleted. A failed seal stops
      // recycling here — the segment stays live until a later Truncate
      // re-offers it — and the failure is surfaced (retryable).
      const Segment& front = segments_.front();
      std::string data;
      result = fs_->ReadFile(front.file, &data);
      if (result.ok()) {
        result = archive->Seal(name_, front.first, front.last, data);
      }
      if (!result.ok()) break;
    }
    // Best-effort: an undeleted recycled segment is below the persisted
    // watermark, so recovery ignores and re-reclaims it.
    (void)fs_->DeleteFile(segments_.front().file);
    truncated_lsn_.store(segments_.front().last, std::memory_order_release);
    segments_.pop_front();
    recycled = true;
  }
  if (recycled) {
    std::string wm;
    PutFixed64(&wm, truncated_lsn_.load(std::memory_order_relaxed));
    IMCI_RETURN_NOT_OK(fs_->WriteFile(WatermarkFileName(), std::move(wm)));
  }
  return result;
}

Lsn LogStore::WaitFor(Lsn lsn, uint64_t timeout_us) const {
  Lsn cur = written_lsn_.load(std::memory_order_acquire);
  if (cur > lsn || timeout_us == 0) return cur;
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait_for(l, std::chrono::microseconds(timeout_us), [&] {
    return written_lsn_.load(std::memory_order_acquire) > lsn;
  });
  return written_lsn_.load(std::memory_order_acquire);
}

size_t LogStore::segment_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return segments_.size();
}

}  // namespace imci
