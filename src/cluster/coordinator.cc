#include "cluster/coordinator.h"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/clock.h"

namespace imci {

namespace {

/// Total dispatch attempts per fragment (first try + retries on surviving
/// peers) before the whole query falls back to single-node.
constexpr int kMaxAttemptsPerFragment = 3;

}  // namespace

Status QueryCoordinator::Execute(const LogicalRef& plan, Vid floor_vid,
                                 std::vector<Row>* out, bool* attempted,
                                 DistQueryStats* stats) {
  *attempted = false;
  if (!plan) return Status::OK();

  // Recruit participants. Channels arrive session-claimed; trimming or
  // destroying them releases the claim.
  std::vector<std::unique_ptr<FragmentChannel>> chans = channels_();
  const int cap = std::max(0, max_participants_.load());
  if (static_cast<int>(chans.size()) > cap) chans.resize(cap);
  if (chans.size() < 2) return Status::OK();

  // Eligibility + fragment cutting, against one participant's statistics
  // (replicas converge to the same content; stats only steer routing, cut
  // points and fan-out, not correctness). A query the participant would
  // route to its row engine (§6.1) is a lookup the B+tree serves without a
  // scan; it stays single-node however large the table.
  const StatsCollector* stats_src = chans[0]->stats();
  if (RouteQuery(plan, *stats_src, chans[0]->row_cost_threshold()).engine !=
      EngineChoice::kColumnEngine) {
    return Status::OK();
  }
  const int fanout =
      ChooseDop(plan, *stats_src, static_cast<int>(chans.size()),
                options_.rows_per_fragment);
  if (fanout < 2) return Status::OK();
  FragmentSet fset;
  if (!CutFragments(plan, *catalog_, *stats_src, fanout, &fset).ok()) {
    return Status::OK();
  }
  queries_attempted_.fetch_add(1, std::memory_order_relaxed);

  // Common-snapshot choice: the max applied VID across participants (at
  // least one node needs no wait), raised to the caller's floor. Every
  // fragment executes at exactly this VID, so concurrent RW commits are
  // all-or-nothing visible across the whole fan-out.
  Vid read_vid = floor_vid;
  for (const auto& ch : chans) read_vid = std::max(read_vid, ch->applied_vid());

  const size_t F = fset.fragments.size();
  const size_t C = chans.size();
  std::vector<std::string> requests(F);
  for (size_t i = 0; i < F; ++i) {
    FragmentRequest req;
    req.read_vid = read_vid;
    req.catchup_timeout_us = options_.catchup_timeout_us;
    req.dop = options_.fragment_dop;
    req.plan = fset.fragments[i];
    EncodeFragmentRequest(req, &requests[i]);
  }

  struct FragRun {
    FragmentResponse rsp;
    bool ok = false;
    int attempts = 0;
    uint64_t rows = 0;
    uint64_t stragglers = 0;
    std::string node;
  };
  std::vector<FragRun> runs(F);
  // Guards the shared per-query channel-death map: a channel that failed a
  // submit (evicted node, fault injection) or answered Busy (straggler) is
  // dead to this query; retries go to surviving peers at the same VID.
  std::mutex mu;
  std::vector<uint8_t> dead(C, 0);

  auto run_fragment = [&](size_t fi) {
    FragRun& fr = runs[fi];
    size_t preferred = fi % C;
    while (fr.attempts < kMaxAttemptsPerFragment) {
      // Pick the preferred channel if usable, else the next surviving one.
      int ci = -1;
      {
        std::lock_guard<std::mutex> g(mu);
        for (size_t k = 0; k < C; ++k) {
          const size_t cand = (preferred + k) % C;
          if (!dead[cand] && chans[cand]->healthy()) {
            ci = static_cast<int>(cand);
            break;
          }
        }
      }
      if (ci < 0) return;  // no surviving peer
      if (fr.attempts > 0) retries_.fetch_add(1, std::memory_order_relaxed);
      fr.attempts++;
      // A response that does not decode as rows of the fragment's output
      // types is a failed attempt, like a transport error.
      std::string response;
      Status s = chans[ci]->Submit(requests[fi], &response);
      if (s.ok()) {
        s = DecodeFragmentResponse(response, fset.fragment_types, &fr.rsp);
      }
      if (s.ok() && fr.rsp.status.ok()) {
        fr.ok = true;
        fr.rows = fr.rsp.rows.TotalRows();
        fr.node = chans[ci]->peer();
        return;
      }
      if (s.ok() && fr.rsp.status.code() == Code::kBusy) {
        fr.stragglers++;
        stragglers_.fetch_add(1, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> g(mu);
        dead[ci] = 1;
      }
      preferred = (ci + 1) % C;
    }
  };

  // One dispatch thread per fragment: the in-process channel executes on
  // the calling thread, so this is where inter-node parallelism comes from
  // (a TCP transport would make Submit a genuine remote round-trip and the
  // same structure still applies).
  {
    std::vector<std::thread> threads;
    threads.reserve(F);
    for (size_t i = 0; i < F; ++i) {
      threads.emplace_back(run_fragment, i);
    }
    for (std::thread& t : threads) t.join();
  }

  for (const FragRun& fr : runs) {
    if (!fr.ok) {
      // A fragment exhausted its attempts: abandon the distributed attempt
      // wholesale. The caller's single-node path answers the query, so the
      // client never sees this.
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  // Hand the fragment outputs' batches to the Values leaf and run the
  // coordinator-side completion plan over them. Fragment-index order, not
  // completion order: the final fold visits partials in a deterministic
  // sequence. The completion plan contains no scans, so it executes
  // locally without store access.
  Timer merge;
  std::vector<Batch>& merged = fset.values_node->values.batches;
  for (FragRun& fr : runs) {
    for (Batch& b : fr.rsp.rows.batches) merged.push_back(std::move(b));
  }
  ExecContext ctx;
  ctx.pool = nullptr;  // serial: merge volumes are small post-aggregation
  ctx.parallelism = 1;
  PhysOpRef root;
  std::vector<Row> result;
  Status s = LowerToColumnPlan(fset.final_plan, nullptr, &root);
  if (s.ok()) s = RunPlan(root, &ctx, &result);
  if (!s.ok()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  *out = std::move(result);
  queries_distributed_.fetch_add(1, std::memory_order_relaxed);
  *attempted = true;

  if (stats != nullptr) {
    stats->participants = static_cast<int>(C);
    stats->fragments = static_cast<int>(F);
    stats->snapshot_vid = read_vid;
    stats->merge_us = merge.ElapsedMicros();
    for (FragRun& fr : runs) {
      stats->retries += static_cast<uint64_t>(fr.attempts - 1);
      stats->stragglers += fr.stragglers;
      DistQueryStats::FragmentTiming t;
      t.node = std::move(fr.node);
      t.wait_us = fr.rsp.wait_us;
      t.exec_us = fr.rsp.exec_us;
      t.rows = fr.rows;
      t.attempts = fr.attempts;
      stats->timings.push_back(std::move(t));
    }
  }
  return Status::OK();
}

}  // namespace imci
