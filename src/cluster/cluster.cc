#include "cluster/cluster.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <thread>
#include <unordered_map>

#include "archive/archive.h"
#include "common/clock.h"
#include "common/coding.h"
#include "imci/checkpoint.h"
#include "log/log_store.h"

namespace imci {

namespace {
/// Fleet monitor: apply lag (LSN backlog) above which a node earns a
/// strike, and the consecutive strikes that evict it (a single burst of
/// writes must not get a healthy node evicted).
constexpr uint64_t kMaxApplyLag = 1 << 20;
constexpr int kLagStrikes = 5;
/// Re-admission gate: a replacement joins routing only once its apply lag
/// is at or below this — routing to a cold replica would violate the
/// freshness the fleet was sized for.
constexpr uint64_t kReadmitMaxLag = 64;

RoNode* PickLeastLoadedLocked(const std::vector<std::unique_ptr<RoNode>>& ros) {
  RoNode* best = nullptr;
  for (const auto& ro : ros) {
    if (!ro->healthy()) continue;
    if (best == nullptr || ro->active_sessions() < best->active_sessions()) {
      best = ro.get();
    }
  }
  return best;
}
}  // namespace

RoNode* Proxy::PickRo() {
  std::lock_guard<std::mutex> g(*topo_mu_);
  return PickLeastLoadedLocked(*ros_);
}

RoNode* Proxy::AcquireRo() {
  std::lock_guard<std::mutex> g(*topo_mu_);
  RoNode* best = PickLeastLoadedLocked(*ros_);
  // Claim under the topology lock: RemoveRoNode retires the node under this
  // same lock and then drains sessions before destroying it, so a claimed
  // node stays alive for the duration of this query.
  if (best != nullptr) best->EnterSession();
  return best;
}

Status Proxy::ExecuteQuery(const LogicalRef& plan, std::vector<Row>* out,
                           Consistency consistency, EngineChoice* chosen) {
  // §6.4 strong reads, in VID space: the RW's published commit point at
  // submission bounds every transaction the submitter could have observed,
  // and an RO whose applied VID reaches it has applied all of them. Open
  // transactions never raise this point, so the wait ends once the
  // acknowledged commits are applied, whatever the log holds above them.
  const Vid floor = consistency == Consistency::kStrong
                        ? rw_->txn_manager()->snapshot_vid()
                        : 0;
  if (coordinator_ != nullptr) {
    // Distributed-first: fan the query out across the healthy RO fleet at
    // one common snapshot, no lower than the floor. Anything the
    // coordinator declines or abandons falls through unchanged.
    bool attempted = false;
    Status s = coordinator_->Execute(plan, floor, out, &attempted);
    if (attempted) {
      if (chosen) *chosen = EngineChoice::kColumnEngine;
      return s;
    }
  }
  auto serve_from_rw = [&] {
    // Graceful degradation: the read goes to the RW's snapshot engine —
    // slower, but never a client-visible error, and trivially strong (the
    // RW sees its own writes).
    rw_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    if (chosen) *chosen = EngineChoice::kRowEngine;
    return rw_->ExecuteSnapshot(plan, out);
  };
  for (;;) {
    RoNode* ro = AcquireRo();
    if (ro == nullptr) return serve_from_rw();
    if (!ro->WaitApplied(floor, kReplicationWaitUs).ok()) {
      // Release the node (unblocking a removal's drain) either way. One
      // that wedged or was retired mid-wait is re-routed; a healthy one
      // that is merely slow hands the read to the RW instead of stalling.
      const bool lost = !ro->healthy();
      ro->LeaveSession();
      if (lost) continue;
      return serve_from_rw();
    }
    Status s = ro->Execute(plan, out, chosen);
    ro->LeaveSession();
    return s;
  }
}

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      fs_(options.fs),
      rw_(std::make_unique<RwNode>(&fs_, &catalog_,
                                   options.rw_pool_capacity)),
      proxy_(rw_.get(), &ro_nodes_, &topo_mu_) {
  // Channel factory: wraps every currently-healthy RO in a session-claimed
  // in-process channel, under the topology lock — the same claim discipline
  // as Proxy::AcquireRo, so removal drains (never destroys) a participant
  // mid-fragment.
  coordinator_ = std::make_unique<QueryCoordinator>(
      &catalog_, options_.coordinator, [this] {
        std::vector<std::unique_ptr<FragmentChannel>> chans;
        std::lock_guard<std::mutex> g(topo_mu_);
        for (const auto& ro : ro_nodes_) {
          if (!ro->healthy()) continue;
          chans.push_back(
              std::make_unique<InProcessFragmentChannel>(ro.get()));
        }
        return chans;
      });
  proxy_.set_coordinator(coordinator_.get());
}

Cluster::~Cluster() {
  StopHealthMonitor();
  for (auto& ro : ro_nodes_) ro->StopReplication();
}

Status Cluster::Open() {
  IMCI_RETURN_NOT_OK(rw_->FinishLoad());
  // Register the freshly-flushed base image as restore anchor 0 — until the
  // first checkpoint completes, it is the only state RestoreToLsn can start
  // replay from.
  Lsn base = 0;
  IMCI_RETURN_NOT_OK(RwNode::ReadBaseLsn(&fs_, &base));
  IMCI_RETURN_NOT_OK(fs_.archive()->snapshots()->Register(0, 0, base));
  for (int i = 0; i < options_.initial_ro_nodes; ++i) {
    RoNode* node = nullptr;
    IMCI_RETURN_NOT_OK(AddRoNode(&node));
  }
  target_fleet_size_ = static_cast<size_t>(options_.initial_ro_nodes);
  if (options_.health.enabled) StartHealthMonitor();
  return Status::OK();
}

Status Cluster::AddRoNode(RoNode** out) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::unique_ptr<RoNode> node;
  IMCI_RETURN_NOT_OK(BootNode(&node));
  RoNode* raw = Admit(std::move(node));
  if (out) *out = raw;
  return Status::OK();
}

Status Cluster::BootNode(std::unique_ptr<RoNode>* out) {
  auto node = std::make_unique<RoNode>(
      "ro" + std::to_string(next_ro_id_++), &fs_, &catalog_, options_.ro);
  IMCI_RETURN_NOT_OK(node->Boot());
  node->StartReplication();
  *out = std::move(node);
  return Status::OK();
}

RoNode* Cluster::Admit(std::unique_ptr<RoNode> node) {
  RoNode* raw = node.get();
  std::lock_guard<std::mutex> g(topo_mu_);
  ro_nodes_.push_back(std::move(node));
  // §7: the first RO node in the cluster is the leader. RemoveRoNode hands
  // leadership on, so only a node joining an empty fleet finds none.
  if (ro_nodes_.size() == 1) raw->set_leader(true);
  return raw;
}

Status Cluster::RemoveRoNode(RoNode* node) {
  return RemoveMatching([node](const RoNode& ro) { return &ro == node; });
}

Status Cluster::RemoveMatching(
    const std::function<bool(const RoNode&)>& match) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::unique_ptr<RoNode> victim;
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    const auto it =
        std::find_if(ro_nodes_.begin(), ro_nodes_.end(),
                     [&](const auto& ro) { return match(*ro); });
    if (it == ro_nodes_.end()) return Status::NotFound("node not in fleet");
    RoNode* node = it->get();
    // Retire under the topology lock: from here no AcquireRo admits a new
    // session, and strong-read waiters already inside see !healthy() and
    // bail — both of which the drain below depends on.
    node->Retire();
    victim = std::move(*it);
    ro_nodes_.erase(it);
    if (node->is_leader() && !ro_nodes_.empty()) {
      // RW re-designates one of the followers as the new leader (§7).
      ro_nodes_.front()->set_leader(true);
    }
  }
  // Drain: queries already admitted finish against the (still live) node
  // before it is destroyed; none can join after Retire().
  while (victim->active_sessions() > 0) YieldFor(100);
  victim->StopReplication();
  return Status::OK();
}

Status Cluster::TriggerCheckpoint() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  RoNode* l = leader();
  if (l == nullptr) return Status::NotFound("no leader");
  l->RequestCheckpoint(next_ckpt_id_++);
  // Recycle what the previous completed checkpoint made reclaimable; the one
  // just requested pays off at the next trigger. Periodic checkpoints thus
  // keep log storage bounded in long runs.
  IMCI_RETURN_NOT_OK(RecycleRedoLogLocked(nullptr));
  // Same watermark discipline for the RW node's MVCC version chains: drop
  // row history below the oldest live snapshot.
  rw_->PruneVersions();
  return Status::OK();
}

Status Cluster::RecycleRedoLog(Lsn* recycled_upto) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  return RecycleRedoLogLocked(recycled_upto);
}

Status Cluster::RecycleRedoLogLocked(Lsn* recycled_upto) {
  if (recycled_upto) *recycled_upto = 0;
  Vid csn = 0;
  Lsn safe = 0;
  uint64_t current = 0;
  Status s = ImciCheckpoint::ReadLatestManifest(&fs_, &csn, &safe, &current);
  if (s.IsNotFound()) return Status::OK();  // nothing reclaimable yet
  IMCI_RETURN_NOT_OK(s);
  // Checkpoints CURRENT supersedes: boots read CURRENT, restores read their
  // anchor's links, and one being written has a higher id (next_ckpt_id_;
  // admin_mu_ keeps booting nodes out).
  const std::string root = "imci_ckpt/";
  for (const std::string& f : fs_.ListFiles(root)) {
    uint64_t id = 0;
    auto [end, ec] =
        std::from_chars(f.data() + root.size(), f.data() + f.size(), id);
    if (ec == std::errc() && *end == '/' && id < current) {
      IMCI_RETURN_NOT_OK(fs_.DeleteFile(f));
    }
  }
  if (const auto slowest = SlowestCursor()) {
    safe = std::min(safe, *slowest);
  }
  IMCI_RETURN_NOT_OK(fs_.log("redo")->Truncate(safe));
  if (recycled_upto) *recycled_upto = fs_.log("redo")->truncated_lsn();
  return Status::OK();
}

std::optional<Lsn> Cluster::SlowestCursor() {
  std::optional<Lsn> slowest;
  std::lock_guard<std::mutex> g(topo_mu_);
  for (const auto& ro : ro_nodes_) {
    const Lsn cursor = ro->pipeline()->read_lsn();
    if (!slowest || cursor < *slowest) slowest = cursor;
  }
  return slowest;
}

Status Cluster::RestoreToLsn(Lsn lsn, RestoredCluster* out) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  ArchiveStore* arc = fs_.archive();
  LogStore* redo = fs_.log("redo");
  // Clamp to the durable watermark: restore reproduces durable history, and
  // written-but-unfsynced records are retractable (a failed batch fsync
  // trims them), so they must never be spliced into a restored log.
  const Lsn target = std::min(lsn, redo->durable_lsn());
  SnapshotStore::Anchor anchor;
  IMCI_RETURN_NOT_OK(arc->snapshots()->FindAnchor(target, &anchor));
  auto fs = std::make_unique<PolarFs>(options_.fs);
  IMCI_RETURN_NOT_OK(arc->snapshots()->Restore(anchor, fs.get()));
  // LSN alignment: pre-seed the fresh redo log's truncation watermark at
  // the anchor's start LSN *before* its first open, so the spliced records
  // appended below keep their original LSNs (the anchor's checkpoint
  // manifest and page LSNs are all in that space).
  std::string wm;
  PutFixed64(&wm, anchor.start_lsn);
  IMCI_RETURN_NOT_OK(fs->WriteFile("log/redo/TRUNCATED", std::move(wm)));
  // Splice the redo history (anchor.start_lsn, target]: the archived prefix
  // (below the live log's recycle watermark) first, the live tail after.
  std::vector<std::string> records;
  Lsn cursor = anchor.start_lsn;
  const Lsn archived_to = std::min(target, arc->archived_upto("redo"));
  if (archived_to > cursor) {
    IMCI_RETURN_NOT_OK(
        arc->ReadRecords("redo", cursor, archived_to, &records, &cursor));
  }
  if (cursor < target) {
    Status read_error;
    cursor = redo->Read(cursor, target, &records, &read_error);
    IMCI_RETURN_NOT_OK(read_error);
  }
  if (cursor != target ||
      records.size() != static_cast<size_t>(target - anchor.start_lsn)) {
    return Status::Corruption(
        "restore splice incomplete: history (" +
        std::to_string(anchor.start_lsn) + ", " + std::to_string(target) +
        "] not contiguously available");
  }
  // Replay stops at exactly `target` because nothing past it exists in the
  // restored log — CatchUpNow below cannot overshoot. The splice is durable
  // history, so append it durably: replication consumes only the durable
  // prefix, and a watermark stuck at the anchor would replay nothing.
  if (!records.empty()) {
    Status append_error;
    fs->log("redo")->Append(std::move(records), true, &append_error);
    IMCI_RETURN_NOT_OK(append_error);
  }
  auto catalog = std::make_unique<Catalog>();
  for (const auto& schema : catalog_.All()) catalog->Register(schema);
  auto node = std::make_unique<RoNode>("restore", fs.get(), catalog.get(),
                                       options_.ro);
  IMCI_RETURN_NOT_OK(node->Boot());
  IMCI_RETURN_NOT_OK(node->CatchUpNow());
  // Durable-prefix cut: transactions still undecided at `target` roll back.
  const size_t undone = node->RecoverRowReplica();
  out->anchor_ckpt_id = anchor.ckpt_id;
  out->lsn = target;
  out->applied_vid = node->applied_vid();
  out->undone = undone;
  out->node = std::move(node);
  out->catalog = std::move(catalog);
  out->fs = std::move(fs);
  return Status::OK();
}

void Cluster::StartHealthMonitor() {
  if (monitor_running_.exchange(true)) return;
  monitor_ = std::thread([this] { MonitorLoop(); });
}

void Cluster::StopHealthMonitor() {
  monitor_running_.store(false);
  if (monitor_.joinable()) monitor_.join();
}

void Cluster::MonitorLoop() {
  // Consecutive over-lag-limit samples per node, keyed by name (pointers
  // die with eviction).
  std::unordered_map<std::string, int> lag_strikes;
  while (monitor_running_.load(std::memory_order_acquire)) {
    YieldFor(options_.health.check_interval_us);
    // Sample under the topology lock: an admin RemoveRoNode frees a node
    // once it leaves the fleet, so a pointer copied out of the fleet is
    // not safe to read after the lock is dropped.
    std::vector<std::pair<std::string, RoNode::Health>> samples;
    {
      std::lock_guard<std::mutex> g(topo_mu_);
      samples.reserve(ro_nodes_.size());
      for (const auto& ro : ro_nodes_) {
        samples.emplace_back(ro->name(), ro->health());
      }
    }
    const std::string* victim = nullptr;
    for (const auto& [name, h] : samples) {
      if (!h.replicating) continue;  // stopped by an admin, not a failure
      if (h.wedged) {
        victim = &name;  // terminal: storage failures exhausted the retries
        break;
      }
      if (h.heartbeat_age_us > options_.health.heartbeat_timeout_us) {
        victim = &name;  // coordinator hung inside storage — same as dead
        break;
      }
      if (h.apply_lag > kMaxApplyLag) {
        if (++lag_strikes[name] >= kLagStrikes) {
          victim = &name;  // persistently unable to keep up
          break;
        }
      } else {
        lag_strikes.erase(name);
      }
    }
    if (victim != nullptr) {
      lag_strikes.erase(*victim);
      // By name, looked up again under the lock: the sampled node may have
      // left meanwhile, and a new one may occupy its address. NotFound = an
      // admin removed it first.
      if (RemoveMatching([victim](const RoNode& ro) {
            return ro.name() == *victim;
          }).ok()) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;  // replace on the next tick; re-check the survivors first
    }
    if (options_.health.auto_replace &&
        ro_nodes().size() < target_fleet_size_) {
      // Boot failures (e.g. faults still raging) are retried next tick.
      (void)BootReplacement();
    }
  }
}

Status Cluster::BootReplacement() {
  // admin_mu_ held across boot *and* convergence: recycling must not
  // truncate redo records the replacement is still replaying.
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::unique_ptr<RoNode> node;
  IMCI_RETURN_NOT_OK(BootNode(&node));
  while (monitor_running_.load(std::memory_order_acquire)) {
    if (node->pipeline()->wedged()) return node->pipeline()->wedge_reason();
    if (node->LsnDelay() <= kReadmitMaxLag) break;
    YieldFor(200);
  }
  Admit(std::move(node));
  replacements_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<RoNode*> Cluster::ro_nodes() {
  std::lock_guard<std::mutex> g(topo_mu_);
  std::vector<RoNode*> nodes;
  nodes.reserve(ro_nodes_.size());
  for (const auto& ro : ro_nodes_) nodes.push_back(ro.get());
  return nodes;
}

RoNode* Cluster::ro(size_t i) {
  std::lock_guard<std::mutex> g(topo_mu_);
  return i < ro_nodes_.size() ? ro_nodes_[i].get() : nullptr;
}

RoNode* Cluster::leader() {
  std::lock_guard<std::mutex> g(topo_mu_);
  for (const auto& ro : ro_nodes_) {
    if (ro->is_leader()) return ro.get();
  }
  return nullptr;
}

}  // namespace imci
