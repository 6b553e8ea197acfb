#include "hotspot/hotspot_manager.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/serde.h"
#include "net/message.h"
#include "net/network_model.h"
#include "ps/ps_master.h"

namespace ps2 {

namespace {

uint64_t WireBytes(const std::vector<uint8_t>& payload) {
  return payload.size() + Message::kHeaderBytes;
}

}  // namespace

Status HotspotOptions::Validate() const {
  if (top_k <= 0) return Status::InvalidArgument("top_k must be > 0");
  if (refresh_every <= 0) {
    return Status::InvalidArgument("refresh_every must be > 0");
  }
  if (sync_every <= 0) {
    return Status::InvalidArgument("sync_every must be > 0");
  }
  if (staleness_epochs <= 0) {
    return Status::InvalidArgument("staleness_epochs must be > 0");
  }
  if (sketch_capacity == 0) {
    return Status::InvalidArgument("sketch_capacity must be > 0");
  }
  return Status::OK();
}

HotspotManager::HotspotManager(PsMaster* master) : master_(master) {
  PS2_CHECK(master != nullptr);
}

Status HotspotManager::Enable(const HotspotOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  enabled_ = true;
  tick_ = 0;
  for (int s = 0; s < master_->num_servers(); ++s) {
    master_->server(s)->EnableAccessStats(options_.sketch_capacity);
  }
  for (HotRowCache* cache : caches_) {
    cache->SetStalenessEpochs(options_.staleness_epochs);
  }
  return Status::OK();
}

bool HotspotManager::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

const HotspotOptions& HotspotManager::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

Status HotspotManager::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return Status::OK();
  ++tick_;
  if (tick_ % static_cast<uint64_t>(options_.refresh_every) == 0) {
    bool changed = false;
    PS2_RETURN_NOT_OK(RefreshHotSetLocked(&changed));
    if (changed) return Status::OK();  // refresh already installed + synced
  }
  if (!hot_.empty() &&
      tick_ % static_cast<uint64_t>(options_.sync_every) == 0) {
    return SyncReplicasLocked();
  }
  return Status::OK();
}

Status HotspotManager::SyncNow() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncReplicasLocked();
}

Status HotspotManager::ReplicateNow(const std::vector<RowRef>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<RowRef, uint64_t>> hot;
  hot.reserve(rows.size());
  for (RowRef ref : rows) {
    PS2_ASSIGN_OR_RETURN(MatrixMeta meta, master_->GetMeta(ref.matrix_id));
    if (meta.storage != MatrixStorage::kDense) {
      return Status::FailedPrecondition(
          "only dense-storage rows can be replicated");
    }
    if (ref.row >= meta.num_rows) {
      return Status::OutOfRange("row out of range");
    }
    hot.emplace_back(ref, meta.dim);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return std::make_pair(a.first.matrix_id, a.first.row) <
           std::make_pair(b.first.matrix_id, b.first.row);
  });
  hot_ = std::move(hot);
  PS2_RETURN_NOT_OK(InstallHotSetLocked(hot_));
  return SyncReplicasLocked();
}

bool HotspotManager::IsReplicated(RowRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [hot_ref, dim] : hot_) {
    if (hot_ref == ref) return true;
  }
  return false;
}

std::vector<RowRef> HotspotManager::HotSet() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RowRef> rows;
  rows.reserve(hot_.size());
  for (const auto& [ref, dim] : hot_) rows.push_back(ref);
  return rows;
}

uint64_t HotspotManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status HotspotManager::OnServerRecovered(int server_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hot_.empty()) return Status::OK();
  // A restored checkpoint may resurrect replica pendings that a sync after
  // the checkpoint already reconciled into the primaries; their replica
  // version predates the current epoch, which is how we tell them from
  // pendings the crash genuinely left un-reconciled.
  master_->server(server_id)->DropStaleReplicaPendings(epoch_);
  // Recreate the replica slots on the recovered server only — its shard
  // metadata survived at the master, but the replica set was dropped with
  // the state (a restored checkpoint holds the slots of *that* era, which
  // may not match the current hot set).
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kHotSetUpdate));
  writer.WriteVarint(hot_.size());
  for (const auto& [ref, dim] : hot_) {
    writer.WriteVarint(static_cast<uint64_t>(ref.matrix_id));
    writer.WriteVarint(ref.row);
    writer.WriteVarint(dim);
  }
  TaskTraffic t;
  t.rounds += 1;
  std::vector<uint8_t> response;
  PS2_RETURN_NOT_OK(Exchange(&t, server_id, writer.Release(), &response));
  ChargeLocked(t);
  // Full sync re-installs fresh values under a new epoch, which is what
  // invalidates client caches warmed before the crash.
  return SyncReplicasLocked();
}

void HotspotManager::RegisterCache(HotRowCache* cache) {
  std::lock_guard<std::mutex> lock(mu_);
  caches_.push_back(cache);
  cache->SetStalenessEpochs(options_.staleness_epochs);
  cache->SetHotSet(hot_);
  cache->SetEpoch(epoch_);  // entries start unwarmed; first pull refreshes
}

void HotspotManager::UnregisterCache(HotRowCache* cache) {
  std::lock_guard<std::mutex> lock(mu_);
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache),
                caches_.end());
}

void HotspotManager::ChargeLocked(const TaskTraffic& t) {
  // SyncNow may be called from inside a task (tests, async trainers): the
  // ambient scope then absorbs the traffic and the stage barrier prices it,
  // keeping the non-thread-safe clock advance on the coordinator only.
  if (TaskTraffic* ambient = TrafficScope::Current()) {
    ambient->MergeFrom(t);
    return;
  }
  master_->cluster()->ChargeOutOfTask(t);
}

Status HotspotManager::Exchange(TaskTraffic* t, int server_id,
                                const std::vector<uint8_t>& request,
                                std::vector<uint8_t>* response) {
  PS2_ASSIGN_OR_RETURN(PsServer::HandleResult result,
                       master_->server(server_id)->Handle(
                           RpcHeader{}, WireFrame{Slice(request), 0}));
  t->RecordExchange(server_id, WireBytes(request),
                    result.response.size() + Message::kHeaderBytes,
                    result.server_ops);
  *response = std::move(result.response);
  return Status::OK();
}

Status HotspotManager::RefreshHotSetLocked(bool* changed) {
  *changed = false;
  // Aggregate the per-server sketches. This rides the master's heartbeat
  // exchanges (a few hundred bytes of control traffic), so it is not
  // charged to the data path.
  std::map<std::pair<int, uint32_t>, uint64_t> counts;
  const size_t per_server_k = static_cast<size_t>(4 * options_.top_k);
  for (int s = 0; s < master_->num_servers(); ++s) {
    for (const SpaceSavingSketch::Entry& e :
         master_->server(s)->TopPulledRows(per_server_k)) {
      counts[{e.ref.matrix_id, e.ref.row}] += e.count;
    }
  }
  std::vector<std::pair<uint64_t, std::pair<int, uint32_t>>> ranked;
  ranked.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    if (count >= options_.min_pull_count) ranked.emplace_back(count, key);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  std::vector<std::pair<RowRef, uint64_t>> hot;
  for (const auto& [count, key] : ranked) {
    if (hot.size() >= static_cast<size_t>(options_.top_k)) break;
    Result<MatrixMeta> meta = master_->GetMeta(key.first);
    if (!meta.ok()) continue;  // matrix freed since the pulls were recorded
    if (meta->storage != MatrixStorage::kDense) continue;
    if (key.second >= meta->num_rows) continue;
    hot.emplace_back(RowRef{key.first, key.second}, meta->dim);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return std::make_pair(a.first.matrix_id, a.first.row) <
           std::make_pair(b.first.matrix_id, b.first.row);
  });

  MetricsRegistry& metrics = master_->cluster()->metrics();
  metrics.Add("hotspot.refreshes", 1);
  if (hot == hot_) {
    // Stable hot set (the common steady state): nothing to (re)install, and
    // the regular sync cadence keeps replicas fresh.
    return Status::OK();
  }
  *changed = true;
  // Flush the outgoing hot set first, so pendings of rows about to be
  // demoted are not lost.
  if (!hot_.empty()) PS2_RETURN_NOT_OK(SyncReplicasLocked());
  hot_ = std::move(hot);
  PS2_RETURN_NOT_OK(InstallHotSetLocked(hot_));
  PS2_RETURN_NOT_OK(SyncReplicasLocked());
  metrics.Set("hotspot.hot_rows", hot_.size());
  return Status::OK();
}

Status HotspotManager::InstallHotSetLocked(
    const std::vector<std::pair<RowRef, uint64_t>>& hot) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kHotSetUpdate));
  writer.WriteVarint(hot.size());
  for (const auto& [ref, dim] : hot) {
    writer.WriteVarint(static_cast<uint64_t>(ref.matrix_id));
    writer.WriteVarint(ref.row);
    writer.WriteVarint(dim);
  }
  const std::vector<uint8_t> request = writer.Release();

  TaskTraffic t;
  t.rounds += 1;  // one parallel fan-out to every server
  for (int s = 0; s < master_->num_servers(); ++s) {
    std::vector<uint8_t> response;
    PS2_RETURN_NOT_OK(Exchange(&t, s, request, &response));
  }
  ChargeLocked(t);
  for (HotRowCache* cache : caches_) cache->SetHotSet(hot);
  return Status::OK();
}

Status HotspotManager::SyncReplicasLocked() {
  if (hot_.empty()) return Status::OK();
  const size_t n = hot_.size();
  const int num_servers = master_->num_servers();
  TaskTraffic t;

  // ---- Phase 0: collect pending deltas + primary slices from every server.
  BufferWriter collect;
  collect.WriteU8(static_cast<uint8_t>(PsOpCode::kReplicaSync));
  collect.WriteU8(0);
  collect.WriteVarint(n);
  for (const auto& [ref, dim] : hot_) {
    collect.WriteVarint(static_cast<uint64_t>(ref.matrix_id));
    collect.WriteVarint(ref.row);
  }
  const std::vector<uint8_t> collect_req = collect.Release();

  std::vector<std::map<uint64_t, double>> merged(n);
  std::vector<std::vector<double>> fresh(n);
  for (size_t i = 0; i < n; ++i) fresh[i].assign(hot_[i].second, 0.0);

  t.rounds += 1;
  for (int s = 0; s < num_servers; ++s) {
    std::vector<uint8_t> response;
    PS2_RETURN_NOT_OK(Exchange(&t, s, collect_req, &response));
    BufferReader in(response);
    for (size_t i = 0; i < n; ++i) {
      // Each pending delta: a column varint plus an f64.
      PS2_ASSIGN_OR_RETURN(uint64_t nnz, in.ReadCount(1 + sizeof(double)));
      std::vector<uint64_t> cols(nnz);
      PS2_RETURN_NOT_OK(in.ReadDeltaKeys(cols.data(), nnz));
      for (uint64_t j = 0; j < nnz; ++j) {
        PS2_ASSIGN_OR_RETURN(double v, in.ReadF64());
        merged[i][cols[j]] += v;
      }
      PS2_ASSIGN_OR_RETURN(uint8_t has_slice, in.ReadU8());
      if (has_slice != 0) {
        PS2_ASSIGN_OR_RETURN(uint64_t begin, in.ReadVarint());
        PS2_ASSIGN_OR_RETURN(uint64_t width, in.ReadVarint());
        if (begin + width > fresh[i].size()) {
          return Status::Internal("replica slice outside row dimension");
        }
        PS2_ASSIGN_OR_RETURN(std::vector<double> slice,
                             in.ReadF64Span(width));
        std::copy(slice.begin(), slice.end(), fresh[i].begin() + begin);
      }
    }
  }

  // ---- Apply merged pendings to the primaries (and the reconciled rows).
  bool any_pending = false;
  for (const auto& m : merged) any_pending |= !m.empty();
  if (any_pending) {
    t.rounds += 1;
    for (size_t i = 0; i < n; ++i) {
      if (merged[i].empty()) continue;
      for (const auto& [col, v] : merged[i]) fresh[i][col] += v;
      PS2_ASSIGN_OR_RETURN(MatrixMeta meta,
                           master_->GetMeta(hot_[i].first.matrix_id));
      // Route each owner its columns as one sparse push.
      std::map<int, std::pair<std::vector<uint64_t>, std::vector<double>>>
          per_server;
      for (const auto& [col, v] : merged[i]) {
        auto& [cols, vals] = per_server[meta.partitioner.ServerOfColumn(col)];
        cols.push_back(col);
        vals.push_back(v);
      }
      for (const auto& [server, cv] : per_server) {
        // One kWriteRows run: an index write of one row.
        BufferWriter push;
        push.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
        push.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
        push.WriteVarint(1);
        push.WriteVarint(static_cast<uint64_t>(hot_[i].first.matrix_id));
        push.WriteVarint(hot_[i].first.row);
        push.WriteVarint(cv.first.size());
        push.WriteDeltaKeys(cv.first.data(), cv.first.size());
        push.WriteF64Span(cv.second.data(), cv.second.size());
        std::vector<uint8_t> response;
        PS2_RETURN_NOT_OK(Exchange(&t, server, push.Release(), &response));
      }
    }
  }

  // ---- Phase 1: install the reconciled rows everywhere under a new epoch.
  ++epoch_;
  BufferWriter install;
  install.WriteU8(static_cast<uint8_t>(PsOpCode::kReplicaSync));
  install.WriteU8(1);
  install.WriteVarint(epoch_);
  install.WriteVarint(n);
  for (size_t i = 0; i < n; ++i) {
    install.WriteVarint(static_cast<uint64_t>(hot_[i].first.matrix_id));
    install.WriteVarint(hot_[i].first.row);
    install.WriteVarint(fresh[i].size());
    install.WriteF64Span(fresh[i].data(), fresh[i].size());
  }
  const std::vector<uint8_t> install_req = install.Release();
  t.rounds += 1;
  for (int s = 0; s < num_servers; ++s) {
    std::vector<uint8_t> response;
    PS2_RETURN_NOT_OK(Exchange(&t, s, install_req, &response));
  }

  // ---- Warm every registered client cache with the reconciled values.
  for (HotRowCache* cache : caches_) {
    for (size_t i = 0; i < n; ++i) {
      cache->Store(hot_[i].first, fresh[i], epoch_);
    }
    cache->SetEpoch(epoch_);
  }

  ChargeLocked(t);
  MetricsRegistry& metrics = master_->cluster()->metrics();
  metrics.Add("hotspot.syncs", 1);
  metrics.Add("hotspot.sync_bytes",
              t.TotalBytesToServers() + t.TotalBytesFromServers());
  return Status::OK();
}

}  // namespace ps2
