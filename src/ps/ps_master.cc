#include "ps/ps_master.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "membership/membership_manager.h"

namespace ps2 {

PsMaster::PsMaster(Cluster* cluster) : cluster_(cluster) {
  PS2_CHECK(cluster != nullptr);
  // Allocate the whole elastic fleet up front (DESIGN.md §12): servers
  // beyond spec.num_servers exist as idle processes so a later AddServer is
  // a membership change, not an object-lifetime event — client seq streams
  // and per-server metric tables stay stable across joins. With
  // max_servers unset the fleet IS the initial set and nothing changes.
  const int fleet = cluster->spec().EffectiveMaxServers();
  const int n = cluster->num_servers();
  servers_.reserve(fleet);
  for (int s = 0; s < fleet; ++s) {
    servers_.push_back(std::make_unique<PsServer>(s, &udfs_));
    servers_.back()->SetMetrics(&cluster->metrics());
    servers_.back()->SetFilterConfig(cluster->spec().filters);
  }
  active_.reserve(n);
  for (int s = 0; s < n; ++s) active_.push_back(s);
  retired_.assign(static_cast<size_t>(fleet), false);
  hotspot_ = std::make_unique<HotspotManager>(this);
  snapshots_ = std::make_unique<ModelSnapshotManager>(this);
  membership_ = std::make_unique<MembershipManager>(this);
}

PsMaster::~PsMaster() = default;

PsMaster::MatrixState* PsMaster::FindLocked(int matrix_id) {
  const auto id = static_cast<size_t>(matrix_id);  // negative: past the end
  if (id >= matrices_.size() || matrices_[id].meta == nullptr) return nullptr;
  return &matrices_[id];
}

const PsMaster::MatrixState* PsMaster::FindLocked(int matrix_id) const {
  return const_cast<PsMaster*>(this)->FindLocked(matrix_id);
}

void PsMaster::RetireMetasLocked(
    std::vector<std::shared_ptr<const MatrixMeta>> metas) {
  if (metas.empty()) return;
  auto next = std::make_shared<MetaEpoch>();
  meta_epoch_->retired = std::move(metas);
  meta_epoch_->next = next;
  meta_epoch_ = std::move(next);
}

std::vector<int> PsMaster::active_servers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

int PsMaster::num_active_servers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(active_.size());
}

bool PsMaster::is_server_active(int server_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::binary_search(active_.begin(), active_.end(), server_id);
}

uint64_t PsMaster::routing_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return routing_epoch_;
}

Result<int> PsMaster::AddServer() { return membership_->AddServer(); }

Status PsMaster::RemoveServer(int server_id) {
  return membership_->RemoveServer(server_id);
}

Result<bool> PsMaster::RebalanceOnce(double min_skew) {
  return membership_->RebalanceOnce(min_skew);
}

Result<int> PsMaster::ClaimableSpare() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int s = 0; s < static_cast<int>(servers_.size()); ++s) {
    if (retired_[static_cast<size_t>(s)]) continue;
    if (std::binary_search(active_.begin(), active_.end(), s)) continue;
    return s;
  }
  return Status::FailedPrecondition(
      "no spare server slots in the fleet (raise max_servers)");
}

std::vector<MatrixMeta> PsMaster::AllMetas() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MatrixMeta> metas;
  metas.reserve(matrices_.size());
  for (const MatrixState& state : matrices_) {
    if (state.meta != nullptr) metas.push_back(*state.meta);
  }
  return metas;
}

void PsMaster::CommitRouting(const std::vector<MatrixMeta>& metas,
                             std::vector<int> new_active, uint64_t epoch,
                             int retired_server) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const MatrixMeta>> replaced;
  replaced.reserve(metas.size());
  for (const MatrixMeta& meta : metas) {
    MatrixState* state = FindLocked(meta.id);
    if (state == nullptr) continue;  // freed mid-migration
    auto next = std::make_shared<MatrixMeta>(*state->meta);
    next->partitioner = meta.partitioner;
    next->routing_epoch = epoch;
    replaced.push_back(std::exchange(state->meta, std::move(next)));
  }
  RetireMetasLocked(std::move(replaced));
  active_ = std::move(new_active);
  if (retired_server >= 0 &&
      retired_server < static_cast<int>(retired_.size())) {
    retired_[static_cast<size_t>(retired_server)] = true;
  }
  routing_epoch_ = epoch;
  cluster_->metrics().Set("ps.migration_epoch", epoch);
}

Result<int> PsMaster::CreateMatrixInternal(MatrixOptions options,
                                           int rotation) {
  if (options.dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (options.reserve_rows == 0) {
    return Status::InvalidArgument("reserve_rows must be > 0");
  }
  // Partition count is fixed for the matrix lifetime at the FLEET scale
  // (DESIGN.md §12): an elastic cluster that starts on 2 of 8 slots gets 8
  // partitions so later joins take whole partitions instead of re-splitting
  // ranges. With max_servers unset the fleet equals the active set and this
  // reduces bit-exactly to the pre-elastic one-partition-per-server layout.
  int partitions = options.num_servers > 0
                       ? std::min(options.num_servers, num_servers())
                       : num_servers();
  // Never split an alignment unit, and don't spread a tiny matrix over more
  // partitions than it has units.
  uint64_t units = options.dim / std::max<uint64_t>(1, options.alignment);
  partitions = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(partitions), std::max<uint64_t>(units, 1)));

  MatrixMeta meta;
  std::vector<int> active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    meta.id = next_matrix_id_++;
    meta.routing_epoch = routing_epoch_;
    active = active_;
  }
  meta.name = options.name;
  meta.dim = options.dim;
  meta.num_rows = options.reserve_rows;
  meta.storage = options.storage;
  if (options.home_server >= 0) {
    // Single-partition matrix pinned to one home (per-key management,
    // DESIGN.md §13). The home must currently serve ranges; relocation
    // later moves the whole partition via the migration path.
    const bool active_home =
        std::find(active.begin(), active.end(), options.home_server) !=
        active.end();
    if (!active_home) {
      return Status::InvalidArgument("home_server is not an active server");
    }
    PS2_ASSIGN_OR_RETURN(
        meta.partitioner,
        ColumnPartitioner::MakeElastic(options.dim, {options.home_server}, 1,
                                       options.alignment, 0));
    return RegisterMatrix(std::move(meta));
  }
  PS2_ASSIGN_OR_RETURN(
      meta.partitioner,
      ColumnPartitioner::MakeElastic(options.dim, active, partitions,
                                     options.alignment,
                                     rotation % partitions));
  return RegisterMatrix(std::move(meta));
}

Result<int> PsMaster::RegisterMatrix(MatrixMeta meta) {
  for (auto& server : servers_) {
    // Every server admits the id: a migration may bring the matrix to one
    // that holds no shard of it now.
    server->AdmitMatrixIds(meta.id + 1);
    uint64_t begin = 0, end = 0;
    if (!meta.partitioner.ServerSpan(server->id(), &begin, &end)) continue;
    PS2_RETURN_NOT_OK(server->CreateMatrixShard(meta));
  }
  const int id = meta.id;
  auto published = std::make_shared<const MatrixMeta>(std::move(meta));
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto slot = static_cast<size_t>(id);
    if (slot >= matrices_.size()) matrices_.resize(slot + 1);
    matrices_[slot] = MatrixState{std::move(published), 1};
  }
  cluster_->metrics().Add("ps.matrices_created", 1);
  return id;
}

Result<int> PsMaster::CreateMatrix(const MatrixOptions& options) {
  // Each independently created matrix gets its own rotation, so two equal
  // shaped matrices do NOT share server placement (paper Fig. 4's trap).
  int rotation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rotation = next_matrix_id_;
  }
  return CreateMatrixInternal(options, rotation);
}

Result<int> PsMaster::CreateAlignedMatrix(int base_matrix_id,
                                          const std::string& name,
                                          uint32_t reserve_rows) {
  if (reserve_rows == 0) {
    return Status::InvalidArgument("reserve_rows must be > 0");
  }
  PS2_ASSIGN_OR_RETURN(MatrixMeta base, GetMeta(base_matrix_id));
  // Copy the base partitioner verbatim rather than recomputing it: after a
  // migration (or a rebalancer move) the base's assignment is no longer the
  // canonical block layout, and co-location — the whole point of alignment —
  // must track wherever the base's partitions actually live now.
  MatrixMeta meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    meta.id = next_matrix_id_++;
  }
  meta.name = name;
  meta.dim = base.dim;
  meta.num_rows = reserve_rows;
  meta.storage = base.storage;
  meta.partitioner = base.partitioner;
  meta.routing_epoch = base.routing_epoch;
  return RegisterMatrix(std::move(meta));
}

Result<MatrixMeta> PsMaster::GetMeta(int matrix_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const MatrixState* state = FindLocked(matrix_id);
  if (state == nullptr) return Status::NotFound("unknown matrix id");
  return *state->meta;
}

Result<MetaBatch> PsMaster::GetMetas(const std::vector<RowRef>& rows) const {
  MetaBatch batch;
  batch.metas.resize(rows.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < rows.size(); ++i) {
    const MatrixState* state = FindLocked(rows[i].matrix_id);
    if (state == nullptr) return Status::NotFound("unknown matrix id");
    batch.metas[i] = state->meta.get();
  }
  // Every meta above is either live or unpublished later, while this
  // epoch — or one it holds — keeps it.
  batch.pin = meta_epoch_;
  return batch;
}

std::shared_ptr<const MetaTable> PsMaster::PinMetaTable() const {
  auto table = std::make_shared<MetaTable>();
  std::lock_guard<std::mutex> lock(mu_);
  table->reserve(matrices_.size());
  for (const MatrixState& state : matrices_) table->push_back(state.meta);
  return table;
}

Result<RowRef> PsMaster::AllocateRow(int matrix_id) {
  std::lock_guard<std::mutex> lock(mu_);
  MatrixState* found = FindLocked(matrix_id);
  if (found == nullptr) return Status::NotFound("unknown matrix id");
  MatrixState& state = *found;
  if (state.next_free_row >= state.meta->num_rows) {
    return Status::OutOfRange("matrix row reservation exhausted");
  }
  RowRef ref;
  ref.matrix_id = matrix_id;
  ref.row = state.next_free_row++;
  return ref;
}

Status PsMaster::FreeMatrix(int matrix_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MatrixState* state = FindLocked(matrix_id);
    if (state == nullptr) return Status::NotFound("unknown matrix id");
    std::vector<std::shared_ptr<const MatrixMeta>> freed;
    freed.push_back(std::move(state->meta));
    RetireMetasLocked(std::move(freed));
  }
  // Free wherever the shard actually lives — post-migration that is the
  // partitioner's assignment, not servers 0..P-1.
  for (auto& server : servers_) {
    if (!server->HasMatrix(matrix_id)) continue;
    PS2_RETURN_NOT_OK(server->FreeMatrixShard(matrix_id));
  }
  return Status::OK();
}

Status PsMaster::CheckpointAll() {
  const ClusterSpec& spec = cluster_->spec();
  uint64_t max_bytes = 0;
  for (auto& server : servers_) {
    std::vector<uint8_t> image = server->SerializeState();
    max_bytes = std::max<uint64_t>(max_bytes, image.size());
    checkpoint_store_.Put(server->id(), std::move(image));
  }
  // Servers write in parallel; the slowest bounds the stall.
  cluster_->AdvanceClock(spec.rpc_latency_s +
                         static_cast<double>(max_bytes) /
                             spec.io_bandwidth_bps);
  cluster_->metrics().Add("ps.checkpoints", 1);
  return Status::OK();
}

Result<SimTime> PsMaster::RecoverServerInternal(int server_id) {
  PsServer* server = servers_[server_id].get();
  const ClusterSpec& cluster_spec = cluster_->spec();
  if (server->decommissioned()) {
    // A decommissioned server holds no ranges — only its dedup table, which
    // survives the crash in our model (it is what answers applied-probes).
    // Just restart the process; restoring a pre-decommission image would
    // resurrect migrated state.
    server->Revive();
    cluster_->metrics().Add("ps.server_failures", 1);
    return 10 * cluster_spec.rpc_latency_s;
  }
  server->DropAllState();
  uint64_t restored_bytes = 0;
  // Single-lock check-and-fetch: Has()-then-Get() would race a concurrent
  // CheckpointAll between the two calls.
  if (std::optional<std::vector<uint8_t>> image =
          checkpoint_store_.TryGet(server_id)) {
    restored_bytes = image->size();
    PS2_RETURN_NOT_OK(server->RestoreState(*image));
  }
  // The image's shard bounds may predate the latest committed migration
  // (checkpoint taken before the epoch bump). The routing table is the
  // authority: reconcile every shard to the server's current span and
  // re-stamp the server's epoch so it resumes rejecting stale traffic.
  uint64_t epoch;
  std::vector<MatrixMeta> metas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = routing_epoch_;
    metas.reserve(matrices_.size());
    for (const MatrixState& state : matrices_) {
      if (state.meta != nullptr) metas.push_back(*state.meta);
    }
  }
  uint64_t reconciled = 0;
  for (const MatrixMeta& meta : metas) {
    PS2_ASSIGN_OR_RETURN(bool changed, server->ReconcileShardBounds(meta));
    if (changed) reconciled += 1;
  }
  if (reconciled > 0) {
    cluster_->metrics().Add("ps.migration_reconciles", reconciled);
  }
  server->SetRoutingEpoch(epoch);
  server->Revive();
  // The recovered process lost its replica slots and bumped no epoch, so
  // client HotRowCaches would serve stale rows past staleness_epochs.
  // Recreate the slots and force a full sync + cache refresh.
  PS2_RETURN_NOT_OK(hotspot_->OnServerRecovered(server_id));
  // Snapshots are process-local soft state: republish the current serving
  // epoch from the restored image so pinned readers keep a consistent cut.
  PS2_RETURN_NOT_OK(snapshots_->OnServerRecovered(server_id));
  cluster_->metrics().Add("ps.server_failures", 1);
  const ClusterSpec& spec = cluster_->spec();
  // Failure detection (a heartbeat interval), process restart, image load.
  return 10 * spec.rpc_latency_s +
         static_cast<double>(restored_bytes) / spec.io_bandwidth_bps;
}

Status PsMaster::KillAndRecoverServer(int server_id) {
  if (server_id < 0 || server_id >= num_servers()) {
    return Status::InvalidArgument("bad server id");
  }
  std::lock_guard<std::mutex> lock(recovery_mu_);
  servers_[server_id]->Crash();
  PS2_ASSIGN_OR_RETURN(SimTime stall, RecoverServerInternal(server_id));
  cluster_->AdvanceClock(stall);
  return Status::OK();
}

Result<SimTime> PsMaster::RecoverCrashedServer(int server_id) {
  if (server_id < 0 || server_id >= num_servers()) {
    return Status::InvalidArgument("bad server id");
  }
  std::lock_guard<std::mutex> lock(recovery_mu_);
  // Another task's retry loop may have recovered it while we waited on the
  // lock; recovery then costs this caller nothing extra.
  if (!servers_[server_id]->crashed()) return SimTime{0.0};
  return RecoverServerInternal(server_id);
}

uint64_t PsMaster::TotalDedupHits() const {
  uint64_t total = 0;
  for (const auto& server : servers_) total += server->dedup_hits();
  return total;
}

}  // namespace ps2
