#include "serving/snapshot.h"

#include <algorithm>

#include "common/logging.h"
#include "net/message.h"
#include "net/network_model.h"
#include "ps/ps_master.h"

namespace ps2 {

namespace {

// The publish command on the wire: opcode + epoch varint. The ack carries a
// handful of counters back. Both are control-plane small; the real cost is
// the copy work on the server, charged as server ops below.
constexpr uint64_t kPublishRequestBytes = 12;
constexpr uint64_t kPublishResponseBytes = 40;

// Placements kept: one per epoch a server retains (the latest two).
constexpr size_t kRetainedPlacements = 2;

}  // namespace

ModelSnapshotManager::ModelSnapshotManager(PsMaster* master)
    : master_(master) {
  PS2_CHECK(master != nullptr);
}

Result<SnapshotPublishStats> ModelSnapshotManager::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t next = epoch_ + 1;
  SnapshotPublishStats stats;
  stats.epoch = next;
  TaskTraffic t;
  t.rounds += 1;  // servers publish in parallel: one dependent round
  for (int s = 0; s < master_->num_servers(); ++s) {
    PS2_ASSIGN_OR_RETURN(PsServer::PublishStats ps,
                         master_->server(s)->PublishSnapshot(next));
    stats.rows_total += ps.rows_total;
    stats.rows_copied += ps.rows_copied;
    stats.rows_reused += ps.rows_reused;
    stats.bytes_copied += ps.bytes_copied;
    // Copy-on-publish is in-memory work on the server; price it as one op
    // per copied double (whole rows or just the written chunks), so a quiet
    // model publishes almost for free.
    t.RecordExchange(s, kPublishRequestBytes + Message::kHeaderBytes,
                     kPublishResponseBytes + Message::kHeaderBytes,
                     ps.bytes_copied / sizeof(double));
  }
  epoch_ = next;
  placements_.push_back({next, master_->PinMetaTable()});
  if (placements_.size() > kRetainedPlacements) {
    placements_.erase(placements_.begin());
  }
  // Publish may run from inside a task (tests, serving loops): the ambient
  // scope then absorbs the traffic and the stage barrier prices it; from
  // the coordinator it goes straight to the cluster clock.
  if (TaskTraffic* ambient = TrafficScope::Current()) {
    ambient->MergeFrom(t);
  } else {
    master_->cluster()->ChargeOutOfTask(t);
  }
  auto& metrics = master_->cluster()->metrics();
  metrics.Add("serving.snapshots_published", 1);
  metrics.Add("serving.snapshot_rows_copied", stats.rows_copied);
  metrics.Add("serving.snapshot_rows_reused", stats.rows_reused);
  metrics.Add("serving.snapshot_bytes_copied", stats.bytes_copied);
  return stats;
}

uint64_t ModelSnapshotManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status ModelSnapshotManager::PlacementOf(uint64_t epoch,
                                         const std::vector<RowRef>& rows,
                                         MetaBatch* out) const {
  std::shared_ptr<const MetaTable> table;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Placement& p : placements_) {
      if (p.epoch == epoch) table = p.metas;
    }
  }
  if (table == nullptr) return master_->GetMetas(rows, out);
  out->metas.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto id = static_cast<size_t>(rows[i].matrix_id);
    if (rows[i].matrix_id < 0 || id >= table->size() ||
        (*table)[id] == nullptr) {
      return Status::NotFound("matrix not in serving snapshot");
    }
    out->metas[i] = (*table)[id].get();
  }
  out->pin = std::move(table);
  return Status::OK();
}

Status ModelSnapshotManager::OnServerRecovered(int server_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch_ == 0) return Status::OK();  // nothing was ever published
  // The restored process has empty snapshot state, so republishing the
  // current epoch is a full copy of its shards — correct (the checkpoint
  // image is a consistent cut) if checkpoint-stale until the next Publish.
  PS2_ASSIGN_OR_RETURN(PsServer::PublishStats ps,
                       master_->server(server_id)->PublishSnapshot(epoch_));
  (void)ps;
  master_->cluster()->metrics().Add("serving.snapshot_republishes", 1);
  return Status::OK();
}

}  // namespace ps2
