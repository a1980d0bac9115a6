#include "archive/snapshot_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/fault.h"
#include "polarfs/polarfs.h"

namespace imci {

namespace {

constexpr char kIndexFile[] = "archive/snap/INDEX";

std::string PageLink(const std::string& dir, PageId id) {
  return dir + "page/" + std::to_string(id);
}

std::string FileLink(const std::string& dir, const std::string& name) {
  return dir + "file/" + name;
}

SnapshotStore::Listing::Entry EntryOf(const Blob& b) {
  return {b->size(), HashBytes(b->data(), b->size())};
}

/// The buffer linked as `link`, checked against its listing entry. A link
/// that is missing, short or altered is Corruption: the anchor is torn.
Status VerifiedLink(const PolarFs* fs, const std::string& link,
                    const SnapshotStore::Listing::Entry& e, Blob* out) {
  Status s = fs->ReadFile(link, out);
  if (s.IsNotFound()) {
    return Status::Corruption("snapshot link " + link + " missing");
  }
  IMCI_RETURN_NOT_OK(s);
  if ((*out)->size() != e.size ||
      HashBytes((*out)->data(), (*out)->size()) != e.hash) {
    return Status::Corruption("snapshot link " + link + " torn or corrupt");
  }
  return Status::OK();
}

}  // namespace

std::string SnapshotStore::Listing::Encode() const {
  std::string out;
  PutFixed64(&out, ckpt_id);
  PutFixed64(&out, csn);
  PutFixed64(&out, start_lsn);
  PutFixed32(&out, static_cast<uint32_t>(pages.size()));
  for (const auto& [id, e] : pages) {
    PutFixed64(&out, id);
    PutFixed64(&out, e.size);
    PutFixed64(&out, e.hash);
  }
  PutFixed32(&out, static_cast<uint32_t>(files.size()));
  for (const auto& [name, e] : files) {
    PutLengthPrefixed(&out, name);
    PutFixed64(&out, e.size);
    PutFixed64(&out, e.hash);
  }
  PutHashTrailer(&out);
  return out;
}

Status SnapshotStore::Listing::Decode(std::string_view blob, Listing* out) {
  std::string_view body;
  IMCI_RETURN_NOT_OK(CheckHashTrailer(blob, &body));
  ByteReader r(body);
  IMCI_RETURN_NOT_OK(r.U64(&out->ckpt_id));
  IMCI_RETURN_NOT_OK(r.U64(&out->csn));
  IMCI_RETURN_NOT_OK(r.U64(&out->start_lsn));
  uint32_t n;
  IMCI_RETURN_NOT_OK(r.Count(3 * 8, &n));  // id, size, hash
  out->pages.resize(n);
  for (auto& [id, e] : out->pages) {
    IMCI_RETURN_NOT_OK(r.U64(&id));
    IMCI_RETURN_NOT_OK(r.U64(&e.size));
    IMCI_RETURN_NOT_OK(r.U64(&e.hash));
  }
  IMCI_RETURN_NOT_OK(r.Count(4 + 2 * 8, &n));  // name length, size, hash
  out->files.resize(n);
  for (auto& [name, e] : out->files) {
    IMCI_RETURN_NOT_OK(r.Str(&name));
    IMCI_RETURN_NOT_OK(r.U64(&e.size));
    IMCI_RETURN_NOT_OK(r.U64(&e.hash));
  }
  return r.done() ? Status::OK() : Status::Corruption("snapshot listing size");
}

std::string SnapshotStore::AnchorDir(uint64_t ckpt_id) {
  return "archive/snap/" + std::to_string(ckpt_id) + "/";
}

void SnapshotStore::DropLinks(const std::string& dir) {
  for (const std::string& name : fs_->ListFiles(dir)) {
    (void)fs_->DeleteFile(name);
  }
}

Status SnapshotStore::Register(uint64_t ckpt_id, Vid csn, Lsn start_lsn) {
  std::lock_guard<std::mutex> g(mu_);
  // Scope tag for targeted injection: tests arm e.g. `polarfs.write_file`
  // with scope "snapshot.seal" to tear exactly one link or the listing (the
  // tear reports success here; Restore's verification must catch it as
  // Corruption — never a silently shorter history).
  fault::ScopedContext seal_scope("snapshot.seal");
  const std::string dir = AnchorDir(ckpt_id);
  DropLinks(dir);  // a re-registration replaces the anchor
  Listing listing;
  listing.ckpt_id = ckpt_id;
  listing.csn = csn;
  listing.start_lsn = start_lsn;
  uint64_t bytes = 0;
  // Link every page image: later flushes swap new buffers into the live
  // store, so these stay the pages as of this cut.
  for (PageId id : fs_->ListPages()) {
    Blob img;
    IMCI_RETURN_NOT_OK(fs_->ReadPage(id, &img));
    listing.pages.emplace_back(id, EntryOf(img));
    bytes += img->size();
    IMCI_RETURN_NOT_OK(fs_->WriteFile(PageLink(dir, id), std::move(img)));
  }
  // Row-store control files (registry, base_lsn) and, for checkpoint
  // anchors, the column checkpoint directory the CSN lives in.
  std::vector<std::string> names = fs_->ListFiles("rowstore/");
  if (ckpt_id != 0) {
    const std::string ckpt_dir = "imci_ckpt/" + std::to_string(ckpt_id) + "/";
    for (std::string& n : fs_->ListFiles(ckpt_dir)) {
      names.push_back(std::move(n));
    }
  }
  for (const std::string& n : names) {
    Blob data;
    IMCI_RETURN_NOT_OK(fs_->ReadFile(n, &data));
    listing.files.emplace_back(n, EntryOf(data));
    bytes += data->size();
    IMCI_RETURN_NOT_OK(fs_->WriteFile(FileLink(dir, n), std::move(data)));
  }
  IMCI_RETURN_NOT_OK(fs_->WriteFile(dir + "MANIFEST", listing.Encode()));
  Anchor a;
  a.ckpt_id = ckpt_id;
  a.csn = csn;
  a.start_lsn = start_lsn;
  a.bytes = bytes;
  std::vector<Anchor> anchors;
  Status s = LoadIndex(&anchors);
  if (!s.ok() && !s.IsNotFound()) return s;
  bool replaced = false;
  for (Anchor& e : anchors) {
    if (e.ckpt_id == ckpt_id) {
      e = a;
      replaced = true;
    }
  }
  if (!replaced) anchors.push_back(a);
  if (retention_ > 0 && anchors.size() > retention_) {
    // Cap exceeded: drop the oldest anchors (their links first, then the
    // index entries). A restore to an LSN below the surviving anchors is no
    // longer possible, which is exactly what raises the archive GC floor.
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& x, const Anchor& y) {
                return x.ckpt_id < y.ckpt_id;
              });
    const size_t drop = anchors.size() - retention_;
    for (size_t i = 0; i < drop; ++i) DropLinks(AnchorDir(anchors[i].ckpt_id));
    anchors.erase(anchors.begin(),
                  anchors.begin() + static_cast<ptrdiff_t>(drop));
  }
  IMCI_RETURN_NOT_OK(StoreIndexLocked(anchors));
  return fs_->SyncControl();
}

Lsn SnapshotStore::GcFloorLsn() const {
  std::vector<Anchor> anchors;
  if (!LoadIndex(&anchors).ok() || anchors.empty()) return 0;
  Lsn floor = anchors.front().start_lsn;
  for (const Anchor& a : anchors) floor = std::min(floor, a.start_lsn);
  return floor;
}

Status SnapshotStore::StoreIndexLocked(const std::vector<Anchor>& anchors) {
  std::string blob;
  PutFixed32(&blob, static_cast<uint32_t>(anchors.size()));
  for (const Anchor& a : anchors) {
    PutFixed64(&blob, a.ckpt_id);
    PutFixed64(&blob, a.csn);
    PutFixed64(&blob, a.start_lsn);
    PutFixed64(&blob, a.bytes);
  }
  PutHashTrailer(&blob);
  return fs_->WriteFile(kIndexFile, std::move(blob));
}

Status SnapshotStore::LoadIndex(std::vector<Anchor>* out) const {
  out->clear();
  std::string blob;
  IMCI_RETURN_NOT_OK(fs_->ReadFile(kIndexFile, &blob));
  std::string_view body;
  IMCI_RETURN_NOT_OK(CheckHashTrailer(blob, &body));
  ByteReader r(body);
  uint32_t count;
  IMCI_RETURN_NOT_OK(r.Count(4 * 8, &count));
  out->resize(count);
  for (Anchor& a : *out) {
    IMCI_RETURN_NOT_OK(r.U64(&a.ckpt_id));
    IMCI_RETURN_NOT_OK(r.U64(&a.csn));
    IMCI_RETURN_NOT_OK(r.U64(&a.start_lsn));
    IMCI_RETURN_NOT_OK(r.U64(&a.bytes));
  }
  return r.done() ? Status::OK() : Status::Corruption("snapshot index size");
}

Status SnapshotStore::Anchors(std::vector<Anchor>* out) const {
  return LoadIndex(out);
}

Status SnapshotStore::FindAnchor(Lsn lsn, Anchor* out) const {
  std::vector<Anchor> anchors;
  IMCI_RETURN_NOT_OK(LoadIndex(&anchors));
  bool found = false;
  for (const Anchor& a : anchors) {
    if (a.start_lsn > lsn) continue;
    if (!found || a.start_lsn > out->start_lsn ||
        (a.start_lsn == out->start_lsn && a.ckpt_id > out->ckpt_id)) {
      *out = a;
      found = true;
    }
  }
  return found ? Status::OK()
               : Status::NotFound("no snapshot anchor at or below lsn " +
                                  std::to_string(lsn));
}

Status SnapshotStore::Restore(const Anchor& a, PolarFs* dest) const {
  const std::string dir = AnchorDir(a.ckpt_id);
  std::string manifest;
  IMCI_RETURN_NOT_OK(fs_->ReadFile(dir + "MANIFEST", &manifest));
  Listing listing;
  IMCI_RETURN_NOT_OK(Listing::Decode(manifest, &listing));
  if (listing.ckpt_id != a.ckpt_id) {
    return Status::Corruption("snapshot manifest anchor mismatch");
  }
  for (const auto& [id, e] : listing.pages) {
    Blob img;
    IMCI_RETURN_NOT_OK(VerifiedLink(fs_, PageLink(dir, id), e, &img));
    IMCI_RETURN_NOT_OK(dest->WritePage(id, std::move(img)));
  }
  for (const auto& [name, e] : listing.files) {
    Blob data;
    IMCI_RETURN_NOT_OK(VerifiedLink(fs_, FileLink(dir, name), e, &data));
    IMCI_RETURN_NOT_OK(dest->WriteFile(name, std::move(data)));
  }
  if (a.ckpt_id != 0) {
    IMCI_RETURN_NOT_OK(
        dest->WriteFile("imci_ckpt/CURRENT", std::to_string(a.ckpt_id)));
  }
  return Status::OK();
}

}  // namespace imci
