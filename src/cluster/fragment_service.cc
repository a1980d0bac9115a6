#include "cluster/fragment_service.h"

#include <utility>

#include "common/clock.h"
#include "common/coding.h"
#include "common/fault.h"

namespace imci {

namespace {

constexpr uint32_t kFragmentProtoVersion = 1;

void PutStatus(std::string* dst, const Status& s) {
  dst->push_back(static_cast<char>(s.code()));
  PutLengthPrefixed(dst, s.message());
}

Status GetStatus(ByteReader* r, Status* out) {
  uint8_t code;
  IMCI_RETURN_NOT_OK(r->U8(&code));
  if (code > static_cast<uint8_t>(Code::kInternal)) {
    return Status::Corruption("bad status code");
  }
  std::string msg;
  IMCI_RETURN_NOT_OK(r->Str(&msg));
  *out = Status(static_cast<Code>(code), std::move(msg));
  return Status::OK();
}

}  // namespace

void EncodeFragmentRequest(const FragmentRequest& req, std::string* out) {
  PutFixed32(out, req.version);
  PutFixed64(out, req.read_vid);
  PutFixed64(out, req.catchup_timeout_us);
  PutFixed32(out, static_cast<uint32_t>(req.dop));
  PutPlan(out, req.plan);
}

Status DecodeFragmentRequest(const std::string& buf, FragmentRequest* out) {
  ByteReader r(buf);
  IMCI_RETURN_NOT_OK(r.U32(&out->version));
  if (out->version != kFragmentProtoVersion) {
    return Status::NotSupported("fragment protocol version");
  }
  IMCI_RETURN_NOT_OK(r.U64(&out->read_vid));
  IMCI_RETURN_NOT_OK(r.U64(&out->catchup_timeout_us));
  IMCI_RETURN_NOT_OK(r.I32(&out->dop));
  IMCI_RETURN_NOT_OK(GetPlan(&r, &out->plan));
  if (!r.done()) return Status::Corruption("fragment request trailer");
  return Status::OK();
}

void EncodeFragmentResponse(const FragmentResponse& rsp, std::string* out) {
  PutStatus(out, rsp.status);
  PutFixed64(out, rsp.wait_us);
  PutFixed64(out, rsp.exec_us);
  PutRows(out, rsp.rows);
}

Status DecodeFragmentResponse(const std::string& buf,
                              const std::vector<DataType>& types,
                              FragmentResponse* out) {
  ByteReader r(buf);
  IMCI_RETURN_NOT_OK(GetStatus(&r, &out->status));
  IMCI_RETURN_NOT_OK(r.U64(&out->wait_us));
  IMCI_RETURN_NOT_OK(r.U64(&out->exec_us));
  IMCI_RETURN_NOT_OK(GetRows(&r, types, &out->rows));
  if (!r.done()) return Status::Corruption("fragment response trailer");
  return Status::OK();
}

std::string FragmentService::Handle(const std::string& request) {
  FragmentResponse rsp;
  FragmentRequest req;
  Status s = DecodeFragmentRequest(request, &req);
  if (s.ok()) s = Execute(req, &rsp);
  rsp.status = s;
  if (!s.ok()) rsp.rows = RowSet{};
  std::string out;
  EncodeFragmentResponse(rsp, &out);
  return out;
}

Status FragmentService::Execute(const FragmentRequest& req,
                                FragmentResponse* rsp) {
  // Fault scope: policies armed against this node's name hit here (the
  // failover tests kill a specific participant's fragment service).
  fault::ScopedContext fault_scope(node_->name());
  IMCI_RETURN_NOT_OK(fault::Maybe("fragment.execute"));

  // A decoded plan is only well-formed bytes: check its shape (child
  // counts, ordinals, scan columns in the column index) before lowering
  // reads it.
  std::vector<DataType> types;
  if (Status shape = InferOutputTypes(req.plan, *node_->catalog_, &types);
      !shape.ok()) {
    return Status::Corruption("fragment plan: " + shape.message());
  }
  PhysOpRef root;
  IMCI_RETURN_NOT_OK(LowerToColumnPlan(req.plan, &node_->imci_, &root));

  // Pin the requested snapshot *before* waiting: maintenance must not
  // release state the common snapshot reads while we catch up to it. This
  // node may have applied past the snapshot since the coordinator chose it,
  // and released what the snapshot reads: it answers Busy, and the
  // coordinator retries the fragment on a peer at the same VID.
  SnapshotRegistry* snaps = node_->engine()->row_snapshots();
  const SnapshotRegistry::View pin = snaps->PinView(req.read_vid);
  if (!snaps->Covers(pin.vid())) {
    return Status::Busy("snapshot below this node's released state");
  }

  // Bounded catch-up to the common snapshot. A node that can't cover the
  // coordinator's VID in time answers Busy — the coordinator then shrinks
  // the participant set rather than stalling the whole query on one
  // straggler.
  Timer wait;
  Status status = node_->WaitApplied(req.read_vid, req.catchup_timeout_us);
  rsp->wait_us = wait.ElapsedMicros();
  if (!status.ok()) return status;
  Timer exec;
  status = node_->RunColumnAt(req.plan, root, req.read_vid, req.dop,
                              &rsp->rows, nullptr);
  rsp->exec_us = exec.ElapsedMicros();
  return status;
}

}  // namespace imci
