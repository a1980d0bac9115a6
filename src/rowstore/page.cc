#include "rowstore/page.h"

#include <algorithm>

#include "common/coding.h"

namespace imci {

int Page::FindSlot(int64_t key) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return static_cast<int>(it - keys.begin());
}

int Page::LowerBound(int64_t key) const {
  return static_cast<int>(
      std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
}

int Page::ChildIndexFor(int64_t key) const {
  // keys[i] is the separator: child[i] holds keys < keys[i]; child[i+1]
  // holds keys >= keys[i].
  auto it = std::upper_bound(keys.begin(), keys.end(), key);
  return static_cast<int>(it - keys.begin());
}

void Page::Serialize(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutFixed64(out, id);
  PutFixed32(out, table_id);
  PutFixed64(out, next_leaf);
  PutFixed64(out, root_page);
  PutFixed64(out, first_leaf);
  PutFixed64(out, page_lsn);
  PutFixed32(out, static_cast<uint32_t>(keys.size()));
  for (int64_t k : keys) PutFixed64(out, static_cast<uint64_t>(k));
  if (type == PageType::kLeaf) {
    for (const std::string& p : payloads) PutLengthPrefixed(out, p);
  } else if (type == PageType::kInternal) {
    PutFixed32(out, static_cast<uint32_t>(children.size()));
    for (PageId c : children) PutFixed64(out, c);
  }
}

Status Page::Deserialize(const char* data, size_t size, Page* page) {
  ByteReader r(data, size);
  uint8_t type;
  IMCI_RETURN_NOT_OK(r.U8(&type));
  if (type > static_cast<uint8_t>(PageType::kLeaf)) {
    return Status::Corruption("page type");
  }
  page->type = static_cast<PageType>(type);
  IMCI_RETURN_NOT_OK(r.U64(&page->id));
  IMCI_RETURN_NOT_OK(r.U32(&page->table_id));
  IMCI_RETURN_NOT_OK(r.U64(&page->next_leaf));
  IMCI_RETURN_NOT_OK(r.U64(&page->root_page));
  IMCI_RETURN_NOT_OK(r.U64(&page->first_leaf));
  IMCI_RETURN_NOT_OK(r.U64(&page->page_lsn));
  uint32_t nkeys;
  IMCI_RETURN_NOT_OK(r.Count(8, &nkeys));
  page->keys.resize(nkeys);
  for (int64_t& k : page->keys) IMCI_RETURN_NOT_OK(r.I64(&k));
  page->payloads.clear();
  page->children.clear();
  if (page->type == PageType::kLeaf) {
    page->payloads.resize(nkeys);
    for (std::string& p : page->payloads) IMCI_RETURN_NOT_OK(r.Str(&p));
  } else if (page->type == PageType::kInternal) {
    uint32_t nchildren;
    IMCI_RETURN_NOT_OK(r.Count(8, &nchildren));
    page->children.resize(nchildren);
    for (PageId& c : page->children) IMCI_RETURN_NOT_OK(r.U64(&c));
  }
  page->byte_size = page->RecomputeByteSize();
  return Status::OK();
}

size_t Page::RecomputeByteSize() const {
  size_t s = 64 + keys.size() * 8 + children.size() * 8;
  for (const std::string& p : payloads) s += p.size() + 4;
  return s;
}

}  // namespace imci
