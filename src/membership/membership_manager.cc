#include "membership/membership_manager.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "dataflow/cluster.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "ps/ps_server.h"

namespace ps2 {

MembershipManager::MembershipManager(PsMaster* master) : master_(master) {
  PS2_CHECK(master != nullptr);
}

MembershipManager::~MembershipManager() = default;

PsClient* MembershipManager::client() {
  if (client_ == nullptr) {
    // Lazy: clusters that never migrate must not allocate a client id here,
    // or every data client's id — and with it the deterministic fault draws
    // keyed on (server, client, seq, attempt) — would shift by one.
    client_ = std::make_unique<PsClient>(master_);
  }
  return client_.get();
}

uint64_t MembershipManager::migrations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return migrations_;
}

MigrationStats MembershipManager::last_migration() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

std::map<int, std::vector<int>> MembershipManager::BlockPlan(
    const std::vector<int>& new_active) const {
  std::map<int, std::vector<int>> plan;
  for (const MatrixMeta& meta : master_->AllMetas()) {
    plan[meta.id] = ColumnPartitioner::BlockAssignment(
        new_active, meta.partitioner.num_partitions(),
        meta.partitioner.rotation());
  }
  return plan;
}

Result<int> MembershipManager::AddServer() {
  std::lock_guard<std::mutex> lock(mu_);
  PS2_ASSIGN_OR_RETURN(int candidate, master_->ClaimableSpare());
  std::vector<int> new_active = master_->active_servers();
  new_active.push_back(candidate);
  std::sort(new_active.begin(), new_active.end());
  // Sequenced before the call: the by-value new_active parameter is
  // move-constructed, which may run before a same-call BlockPlan argument
  // would read the vector.
  std::map<int, std::vector<int>> plan = BlockPlan(new_active);
  PS2_RETURN_NOT_OK(MigrateToAssignment(plan, std::move(new_active),
                                        /*removed=*/-1, /*joined=*/candidate)
                        .status());
  return candidate;
}

Status MembershipManager::RemoveServer(int server_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> active = master_->active_servers();
  if (!std::binary_search(active.begin(), active.end(), server_id)) {
    return Status::InvalidArgument("server is not active");
  }
  if (active.size() <= 1) {
    return Status::FailedPrecondition("cannot remove the last active server");
  }
  std::vector<int> new_active;
  new_active.reserve(active.size() - 1);
  for (int s : active) {
    if (s != server_id) new_active.push_back(s);
  }
  std::map<int, std::vector<int>> plan = BlockPlan(new_active);
  return MigrateToAssignment(plan, std::move(new_active),
                             /*removed=*/server_id, /*joined=*/-1)
      .status();
}

Result<MigrationStats> MembershipManager::RelocateMatrices(
    const std::map<int, int>& targets) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> active = master_->active_servers();
  std::map<int, std::vector<int>> plan;
  for (const auto& [matrix_id, server] : targets) {
    if (!std::binary_search(active.begin(), active.end(), server)) {
      return Status::InvalidArgument("relocation target is not active");
    }
    PS2_ASSIGN_OR_RETURN(MatrixMeta meta, master_->GetMeta(matrix_id));
    const std::vector<int>& assignment = meta.partitioner.assignment();
    if (assignment.size() != 1) {
      return Status::InvalidArgument(
          "only single-partition (home_server) matrices can relocate");
    }
    if (assignment[0] == server) continue;  // already home
    plan[matrix_id] = {server};
  }
  if (plan.empty()) return MigrationStats{};
  return MigrateToAssignment(plan, std::move(active), /*removed=*/-1,
                             /*joined=*/-1);
}

Result<bool> MembershipManager::RebalanceOnce(double min_skew) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int> active = master_->active_servers();
  if (active.size() < 2) return false;
  MetricsRegistry& metrics = master_->cluster()->metrics();
  // Busy time is cumulative; the signal is the delta since the last call,
  // i.e. the load distribution of the most recent training window.
  std::map<int, uint64_t> busy;
  uint64_t total = 0, max_busy = 0;
  int busiest = -1;
  for (int s : active) {
    const uint64_t now =
        metrics.Get(ServerTaggedName("obs.server_busy_time", s));
    const uint64_t delta = now - last_busy_[s];
    last_busy_[s] = now;
    busy[s] = delta;
    total += delta;
    if (delta > max_busy) {
      max_busy = delta;
      busiest = s;
    }
  }
  if (busiest < 0 || total == 0) return false;
  const double mean =
      static_cast<double>(total) / static_cast<double>(active.size());
  if (static_cast<double>(max_busy) < min_skew * mean) return false;
  // Move one edge partition per matrix off the busiest server, to whichever
  // partition-space neighbor is less busy. The rule is a pure function of
  // (assignment, busy deltas), so co-located matrices — identical
  // assignments — move in lockstep and stay co-located.
  std::map<int, std::vector<int>> plan;
  for (const MatrixMeta& meta : master_->AllMetas()) {
    const std::vector<int>& a = meta.partitioner.assignment();
    int lo = -1, hi = -1;
    for (size_t p = 0; p < a.size(); ++p) {
      if (a[p] != busiest) continue;
      if (lo < 0) lo = static_cast<int>(p);
      hi = static_cast<int>(p);
    }
    if (lo < 0 || hi == lo) continue;  // absent, or move would empty it
    const int left = lo > 0 ? a[lo - 1] : -1;
    const int right = hi + 1 < static_cast<int>(a.size()) ? a[hi + 1] : -1;
    int target = -1, edge = -1;
    if (left >= 0 && (right < 0 || busy[left] <= busy[right])) {
      target = left;
      edge = lo;
    } else if (right >= 0) {
      target = right;
      edge = hi;
    }
    if (target < 0) continue;
    std::vector<int> assignment = a;
    assignment[static_cast<size_t>(edge)] = target;
    plan[meta.id] = std::move(assignment);
  }
  if (plan.empty()) return false;
  PS2_RETURN_NOT_OK(
      MigrateToAssignment(plan, active, /*removed=*/-1, /*joined=*/-1)
          .status());
  metrics.Add("migrate.rebalances", 1);
  return true;
}

Result<std::vector<uint8_t>> MembershipManager::ExtractRange(
    const Move& move) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeExtract));
  writer.WriteVarint(static_cast<uint64_t>(move.matrix_id));
  writer.WriteVarint(move.begin);
  writer.WriteVarint(move.end);
  return client()->ControlCall(move.from, &writer);
}

Status MembershipManager::InstallRange(const Move& move, uint64_t epoch,
                                       const std::vector<uint8_t>& payload) {
  // The install request is the extract response re-framed under the target
  // epoch — the range bytes travel verbatim.
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeMigrate));
  writer.WriteVarint(epoch);
  writer.WriteVarint(static_cast<uint64_t>(move.matrix_id));
  writer.WriteBytes(Slice(payload));
  return client()->ControlCall(move.to, &writer).status();
}

Status MembershipManager::CommitServer(
    int server, uint64_t epoch, const std::vector<MatrixMeta>& old_metas,
    const std::vector<MatrixMeta>& new_metas) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kRoutingUpdate));
  writer.WriteVarint(epoch);
  // One entry per matrix whose span on `server` changes; the commit handler
  // leaves unlisted shards alone.
  std::vector<size_t> changed;
  for (size_t i = 0; i < new_metas.size(); ++i) {
    uint64_t ob = 0, oe = 0, nb = 0, ne = 0;
    const bool had = old_metas[i].partitioner.ServerSpan(server, &ob, &oe);
    const bool has = new_metas[i].partitioner.ServerSpan(server, &nb, &ne);
    if (!had && !has) continue;
    if (had && has && ob == nb && oe == ne) continue;
    changed.push_back(i);
  }
  writer.WriteVarint(changed.size());
  for (size_t i : changed) {
    const MatrixMeta& nm = new_metas[i];
    uint64_t nb = 0, ne = 0;
    if (!nm.partitioner.ServerSpan(server, &nb, &ne)) {
      nb = 0;
      ne = 0;  // span gone: the commit drops the shard
    }
    writer.WriteVarint(static_cast<uint64_t>(nm.id));
    writer.WriteVarint(nb);
    writer.WriteVarint(ne);
    writer.WriteVarint(nm.dim);
    writer.WriteVarint(nm.num_rows);
    writer.WriteU8(static_cast<uint8_t>(nm.storage));
  }
  return client()->ControlCall(server, &writer).status();
}

Result<MigrationStats> MembershipManager::MigrateToAssignment(
    const std::map<int, std::vector<int>>& plan, std::vector<int> new_active,
    int removed, int joined) {
  Cluster* cluster = master_->cluster();
  const uint64_t epoch = master_->routing_epoch() + 1;
  const std::vector<MatrixMeta> old_metas = master_->AllMetas();
  std::vector<MatrixMeta> new_metas;
  new_metas.reserve(old_metas.size());
  std::vector<Move> moves;
  std::set<int> involved;
  for (const MatrixMeta& meta : old_metas) {
    auto it = plan.find(meta.id);
    if (it == plan.end()) {
      new_metas.push_back(meta);
      new_metas.back().routing_epoch = epoch;
      continue;
    }
    const std::vector<int>& assignment = it->second;
    const std::vector<int>& old_assignment = meta.partitioner.assignment();
    PS2_CHECK_EQ(assignment.size(), old_assignment.size());
    for (size_t p = 0; p < old_assignment.size(); ++p) {
      if (old_assignment[p] == assignment[p]) continue;
      Move m;
      m.matrix_id = meta.id;
      m.partition = static_cast<int>(p);
      m.from = old_assignment[p];
      m.to = assignment[p];
      m.begin = meta.partitioner.RangeBegin(static_cast<int>(p));
      m.end = meta.partitioner.RangeEnd(static_cast<int>(p));
      involved.insert(m.from);
      involved.insert(m.to);
      // Zero-width tail partitions change owner without moving bytes.
      if (m.begin < m.end) moves.push_back(m);
    }
    PS2_ASSIGN_OR_RETURN(ColumnPartitioner np,
                         meta.partitioner.WithAssignment(assignment));
    MatrixMeta nm = meta;
    nm.partitioner = std::move(np);
    nm.routing_epoch = epoch;
    new_metas.push_back(std::move(nm));
  }
  if (removed >= 0) involved.insert(removed);

  MigrationStats stats;
  stats.epoch = epoch;
  stats.moves = moves.size();

  TaskTraffic traffic;
  {
    TrafficScope scope(&traffic);
    // Fence first: from here until each server's commit, tracked data
    // traffic bounces off with `routing stale (fenced)` and clients wait,
    // so every extracted byte is the final pre-migration value.
    for (int s : involved) master_->server(s)->FenceForMigration();
    std::vector<std::vector<uint8_t>> payloads(moves.size());
    for (size_t i = 0; i < moves.size(); ++i) {
      PS2_ASSIGN_OR_RETURN(payloads[i], ExtractRange(moves[i]));
      stats.bytes_moved += payloads[i].size();
    }
    for (size_t i = 0; i < moves.size(); ++i) {
      PS2_RETURN_NOT_OK(InstallRange(moves[i], epoch, payloads[i]));
    }
    for (int s : involved) {
      if (s == removed) continue;
      Status commit = Status::OK();
      for (int round = 0; round < 3; ++round) {
        commit = CommitServer(s, epoch, old_metas, new_metas);
        if (commit.ok() || !commit.IsFailedPrecondition()) break;
        // A crash between install and commit dropped the server's staged
        // state (it is process-soft); re-install from the payloads we still
        // hold and retry the commit.
        for (size_t i = 0; i < moves.size(); ++i) {
          if (moves[i].to != s) continue;
          PS2_RETURN_NOT_OK(InstallRange(moves[i], epoch, payloads[i]));
        }
      }
      PS2_RETURN_NOT_OK(commit);
    }
    // Everyone else learns the epoch directly (no fence to lift, no data to
    // move); the removed server is decommissioned instead — it keeps its
    // dedup table to answer applied-probes, and nothing else.
    for (int s = 0; s < master_->num_servers(); ++s) {
      if (s == removed || involved.count(s) != 0) continue;
      master_->server(s)->SetRoutingEpoch(epoch);
    }
    if (removed >= 0) master_->server(removed)->Decommission(epoch);
  }
  // Publish LAST: once the master hands out metas stamped with `epoch`,
  // every server already enforces it.
  master_->CommitRouting(new_metas, std::move(new_active), epoch, removed);
  if (TaskTraffic* ambient = TrafficScope::Current()) {
    ambient->MergeFrom(traffic);
  } else {
    cluster->ChargeOutOfTask(traffic);
  }
  // Composition hooks. A joining server is hotspot-wise a recovered one:
  // recreate its replica slots and force a full sync + client cache refresh.
  // Serving gets a fresh snapshot epoch covering the new layout; readers
  // pinned to older epochs repin via the documented retention protocol.
  if (joined >= 0) {
    PS2_RETURN_NOT_OK(master_->hotspot()->OnServerRecovered(joined));
  }
  if (master_->serving_snapshots()->epoch() > 0) {
    PS2_RETURN_NOT_OK(master_->serving_snapshots()->Publish().status());
  }
  // Durability: fresh images carry the new shard bounds, so recovery after
  // this point restores straight into the new routing table.
  PS2_RETURN_NOT_OK(master_->CheckpointAll());
  MetricsRegistry& metrics = cluster->metrics();
  metrics.Add("migrate.migrations", 1);
  metrics.Add("migrate.moves", stats.moves);
  metrics.Add("migrate.bytes", stats.bytes_moved);
  migrations_ += 1;  // mu_ held by our public caller
  last_ = stats;
  return stats;
}

}  // namespace ps2
