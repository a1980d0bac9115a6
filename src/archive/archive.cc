#include "archive/archive.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"
#include "polarfs/polarfs.h"

namespace imci {

namespace {
// Per segment: first, last, bytes, payload_hash.
constexpr size_t kSegEntryBytes = 4 * 8;
}  // namespace

std::string ArchiveStore::SegmentFileName(const std::string& log_name,
                                          Lsn first) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg_%020llu",
                static_cast<unsigned long long>(first));
  return "archive/log/" + log_name + "/" + buf;
}

std::string ArchiveStore::ManifestFileName(const std::string& log_name) {
  return "archive/log/" + log_name + "/MANIFEST";
}

Status ArchiveStore::LoadManifest(const std::string& log_name,
                                  std::vector<ArchivedSegment>* out) const {
  out->clear();
  std::string blob;
  IMCI_RETURN_NOT_OK(fs_->ReadFile(ManifestFileName(log_name), &blob));
  std::string_view body;
  IMCI_RETURN_NOT_OK(CheckHashTrailer(blob, &body));
  ByteReader r(body);
  uint32_t count;
  IMCI_RETURN_NOT_OK(r.Count(kSegEntryBytes, &count));
  out->resize(count);
  for (ArchivedSegment& seg : *out) {
    IMCI_RETURN_NOT_OK(r.U64(&seg.first));
    IMCI_RETURN_NOT_OK(r.U64(&seg.last));
    IMCI_RETURN_NOT_OK(r.U64(&seg.bytes));
    IMCI_RETURN_NOT_OK(r.U64(&seg.payload_hash));
  }
  return r.done() ? Status::OK() : Status::Corruption("archive manifest size");
}

Status ArchiveStore::StoreManifestLocked(
    const std::string& log_name, const std::vector<ArchivedSegment>& segs) {
  std::string blob;
  PutFixed32(&blob, static_cast<uint32_t>(segs.size()));
  for (const ArchivedSegment& seg : segs) {
    PutFixed64(&blob, seg.first);
    PutFixed64(&blob, seg.last);
    PutFixed64(&blob, seg.bytes);
    PutFixed64(&blob, seg.payload_hash);
  }
  PutHashTrailer(&blob);
  return fs_->WriteFile(ManifestFileName(log_name), std::move(blob));
}

Status ArchiveStore::Seal(const std::string& log_name, Lsn first, Lsn last,
                          const std::string& framed) {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<ArchivedSegment> segs;
  Status s = LoadManifest(log_name, &segs);
  if (!s.ok() && !s.IsNotFound()) return s;
  for (const ArchivedSegment& seg : segs) {
    if (seg.first == first) {
      // Re-offered after an interrupted recycle: idempotent when the range
      // matches, an integrity error otherwise.
      return seg.last == last
                 ? Status::OK()
                 : Status::Corruption("reseal range mismatch at lsn " +
                                      std::to_string(first));
    }
  }
  if (!segs.empty() && segs.back().last + 1 != first) {
    return Status::Corruption("archive gap: cannot seal " + log_name +
                              " segment at lsn " + std::to_string(first));
  }
  ArchivedSegment seg;
  seg.first = first;
  seg.last = last;
  seg.bytes = framed.size();
  seg.payload_hash = HashBytes(framed.data(), framed.size());
  IMCI_RETURN_NOT_OK(
      fs_->WriteFile(SegmentFileName(log_name, first), framed));
  segs.push_back(seg);
  IMCI_RETURN_NOT_OK(StoreManifestLocked(log_name, segs));
  // Segment + manifest must be durable before Truncate deletes the only
  // other copy — a failed control sync fails the seal, and Truncate then
  // leaves the live segment in place.
  IMCI_RETURN_NOT_OK(fs_->SyncControl());
  sealed_segments_.fetch_add(1, std::memory_order_relaxed);
  sealed_bytes_.fetch_add(framed.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status ArchiveStore::ListSegments(const std::string& log_name,
                                  std::vector<ArchivedSegment>* out) const {
  return LoadManifest(log_name, out);
}

Status ArchiveStore::DropGcEligibleSegments(const std::string& log_name,
                                            size_t* dropped) {
  if (dropped != nullptr) *dropped = 0;
  const Lsn floor = snapshots_.GcFloorLsn();
  if (floor == 0) return Status::OK();
  std::lock_guard<std::mutex> g(mu_);
  std::vector<ArchivedSegment> segs;
  Status s = LoadManifest(log_name, &segs);
  if (s.IsNotFound()) return Status::OK();
  IMCI_RETURN_NOT_OK(s);
  size_t n = 0;
  while (n < segs.size() && segs[n].last <= floor) ++n;
  if (n == 0) return Status::OK();
  for (size_t i = 0; i < n; ++i) {
    (void)fs_->DeleteFile(SegmentFileName(log_name, segs[i].first));
  }
  segs.erase(segs.begin(), segs.begin() + static_cast<ptrdiff_t>(n));
  IMCI_RETURN_NOT_OK(StoreManifestLocked(log_name, segs));
  IMCI_RETURN_NOT_OK(fs_->SyncControl());
  if (dropped != nullptr) *dropped = n;
  return Status::OK();
}

Lsn ArchiveStore::archived_upto(const std::string& log_name) const {
  std::vector<ArchivedSegment> segs;
  if (!LoadManifest(log_name, &segs).ok() || segs.empty()) return 0;
  return segs.back().last;
}

Status ArchiveStore::DecodeSegment(const std::string& log_name,
                                   const ArchivedSegment& seg,
                                   std::vector<std::string>* payloads) const {
  std::string data;
  IMCI_RETURN_NOT_OK(
      fs_->ReadFile(SegmentFileName(log_name, seg.first), &data));
  if (data.size() != seg.bytes ||
      HashBytes(data.data(), data.size()) != seg.payload_hash) {
    return Status::Corruption("archived segment at lsn " +
                              std::to_string(seg.first) + " torn or corrupt");
  }
  if (!LogStore::DecodeFrames(data, payloads) ||
      payloads->size() != static_cast<size_t>(seg.last - seg.first + 1)) {
    return Status::Corruption("archived segment frame count mismatch at lsn " +
                              std::to_string(seg.first));
  }
  return Status::OK();
}

Status ArchiveStore::ReadRecords(const std::string& log_name, Lsn from, Lsn to,
                                 std::vector<std::string>* out,
                                 Lsn* last) const {
  *last = from;
  if (to <= from) return Status::OK();
  std::vector<ArchivedSegment> segs;
  IMCI_RETURN_NOT_OK(LoadManifest(log_name, &segs));
  Lsn cursor = from;
  for (const ArchivedSegment& seg : segs) {
    if (seg.last <= cursor) continue;
    if (seg.first > cursor + 1) {
      // The manifest is gap-free by construction (Seal enforces contiguity),
      // so a hole inside the requested archived range means lost history.
      return Status::Corruption("archive gap after lsn " +
                                std::to_string(cursor));
    }
    std::vector<std::string> payloads;
    IMCI_RETURN_NOT_OK(DecodeSegment(log_name, seg, &payloads));
    const Lsn begin = std::max(cursor + 1, seg.first);
    const Lsn end = std::min(to, seg.last);
    for (Lsn lsn = begin; lsn <= end; ++lsn) {
      out->push_back(std::move(payloads[lsn - seg.first]));
    }
    cursor = end;
    if (cursor >= to) break;
  }
  *last = cursor;
  return Status::OK();
}

}  // namespace imci
