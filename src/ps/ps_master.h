#pragma once

// PS-master: the coordinator-side module that manages parameter servers
// (paper §5.1). It owns server lifetime, the matrix registry and routing
// metadata, hands out rows for `derive`, and drives checkpoint / recovery.
//
// In PS2 the parameter servers run as a *separate application* from Spark;
// here PsMaster attaches to an existing Cluster (using its spec, clock and
// metrics) without touching the dataflow engine — mirroring the paper's
// "no hacking of Spark's core" design point.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/cluster.h"
#include "hotspot/hotspot_manager.h"
#include "ps/checkpoint.h"
#include "ps/ps_server.h"
#include "ps/ps_types.h"
#include "serving/snapshot.h"

namespace ps2 {

class MembershipManager;

/// \brief Options for creating a distributed matrix (a co-located DCV group).
struct MatrixOptions {
  std::string name = "matrix";
  uint64_t dim = 0;
  /// Rows pre-allocated for `derive` (the paper's k, default "usually small,
  /// for example ten").
  uint32_t reserve_rows = 10;
  MatrixStorage storage = MatrixStorage::kDense;
  /// Partition boundaries land on multiples of this (GBDT: histogram size).
  uint64_t alignment = 1;
  /// Servers to spread over; 0 = all servers in the cluster.
  int num_servers = 0;
  /// When >= 0, the matrix is NOT spread: it gets a single partition homed
  /// on this server (per-key parameter management, DESIGN.md §13). Such a
  /// matrix can later be relocated whole via
  /// MembershipManager::RelocateMatrices. Overrides num_servers.
  int home_server = -1;
};

/// \brief Owns the PS-servers, matrix metadata and fault-tolerance machinery.
class PsMaster {
 public:
  explicit PsMaster(Cluster* cluster);
  ~PsMaster();

  Cluster* cluster() const { return cluster_; }
  UdfRegistry* udfs() { return &udfs_; }
  /// Allocated fleet size (ClusterSpec::EffectiveMaxServers()): every server
  /// process that exists, active or not. Per-server tables (client seq
  /// streams, traffic vectors) are sized by this.
  int num_servers() const { return static_cast<int>(servers_.size()); }
  PsServer* server(int s) { return servers_[s].get(); }

  // ---- Elastic membership (DESIGN.md §12) ----

  /// Servers currently serving ranges, ascending. Starts as
  /// {0..spec.num_servers-1}; AddServer/RemoveServer reshape it.
  std::vector<int> active_servers() const;
  int num_active_servers() const;
  bool is_server_active(int server_id) const;
  /// Current routing-table version; bumped once per committed migration.
  uint64_t routing_epoch() const;

  /// Activates a spare fleet slot and migrates it a balanced share of every
  /// matrix's partitions. Fails when no spare (non-retired) server exists.
  Result<int> AddServer();
  /// Migrates `server_id`'s ranges to the remaining active servers, then
  /// decommissions it (it keeps answering dedup probes, nothing else).
  Status RemoveServer(int server_id);
  /// One step of the skew-healing rebalancer: when busy-time skew across
  /// active servers exceeds `min_skew` (max/mean), moves one edge partition
  /// per matrix off the busiest server. Returns whether a move happened.
  Result<bool> RebalanceOnce(double min_skew = 1.25);

  MembershipManager* membership() const { return membership_.get(); }

  /// Hot-parameter management (statistics, replication, client caches).
  /// Always constructed; a no-op until HotspotManager::Enable.
  HotspotManager* hotspot() const { return hotspot_.get(); }

  /// Serving snapshot epochs (serving/, DESIGN.md §10). Always constructed;
  /// costs nothing until the first Publish.
  ModelSnapshotManager* serving_snapshots() const { return snapshots_.get(); }

  /// Creates a matrix distributed over the servers. Row 0 is implicitly
  /// allocated (it is the DCV the caller asked for); further rows are handed
  /// out by AllocateRow. Independently created matrices receive different
  /// partition rotations, so they are NOT co-located with each other.
  Result<int> CreateMatrix(const MatrixOptions& options);

  /// Creates a matrix co-located with `base_matrix_id` (same partitioner,
  /// same rotation). Used when a DCV group outgrows its reserved rows.
  Result<int> CreateAlignedMatrix(int base_matrix_id, const std::string& name,
                                  uint32_t reserve_rows);

  /// A copy of the published meta of `matrix_id`.
  Result<MatrixMeta> GetMeta(int matrix_id) const;

  /// The published meta of each row's matrix, resolved in ONE critical
  /// section by id index and pinned once for the whole batch (per-row paths
  /// must not take the master lock, or a reference count, per row). Metas
  /// are immutable once published — a routing commit swaps in a new one —
  /// so the pointers stay valid and unchanging however long the batch is
  /// held; a stale one is bounced by its routing-epoch stamp. NotFound when
  /// any row names an unknown matrix.
  Result<MetaBatch> GetMetas(const std::vector<RowRef>& rows) const;
  /// GetMetas into `out`, reusing its storage (the client's per-thread row
  /// op keeps one batch from op to op).
  Status GetMetas(const std::vector<RowRef>& rows, MetaBatch* out) const;

  /// The placement in force now: every live matrix's published meta, by
  /// id (null for a free id). Holding the table keeps those metas alive.
  std::shared_ptr<const MetaTable> PinMetaTable() const;

  /// Hands out the next free row of `matrix_id` (the `derive` operator);
  /// returns OutOfRange when the reservation is exhausted.
  Result<RowRef> AllocateRow(int matrix_id);

  /// Frees a matrix on all servers.
  Status FreeMatrix(int matrix_id);

  // ---- Fault tolerance (paper §5.3, "Server Failure") ----

  /// Checkpoints every server to the external store, charging IO time.
  Status CheckpointAll();

  /// Simulates a server crash + recovery: state dropped, new server process
  /// started, latest checkpoint restored (or zeros if none). Charges the
  /// detection + restore time to the coordinator clock and refreshes the
  /// hotspot plane (replicas + client caches) on the recovered server.
  Status KillAndRecoverServer(int server_id);

  /// Recovers a server that an injected message fault crashed mid-stage
  /// (PsServer::crashed()). Idempotent and safe from concurrent task
  /// threads: the first caller performs drop + restore + Revive, later
  /// callers find the server alive and return 0. Returns the recovery
  /// stall in virtual seconds — charged to the *calling task's* traffic,
  /// not the coordinator clock (pool threads must not advance the clock
  /// mid-stage).
  Result<SimTime> RecoverCrashedServer(int server_id);

  /// Hands out a unique client id for RpcHeader tracking (dedup tables are
  /// keyed by it, so every PsClient must have its own).
  int AllocateClientId() { return next_client_id_.fetch_add(1); }

  /// Sum of dedup-suppressed retries across all servers.
  uint64_t TotalDedupHits() const;

  const CheckpointStore& checkpoints() const { return checkpoint_store_; }

 private:
  friend class MembershipManager;

  struct MatrixState {
    /// Published and never edited; CommitRouting swaps in a new one. Null
    /// for an id that is freed or not yet registered.
    std::shared_ptr<const MatrixMeta> meta;
    uint32_t next_free_row = 1;  // row 0 belongs to the creating DCV
  };

  /// Lifetime of unpublished metas. GetMetas pins the newest epoch; a meta
  /// a commit or free unpublishes joins the newest epoch's `retired` list,
  /// and a fresh epoch begins. Each epoch holds the next, so a pin keeps
  /// every meta unpublished after it was taken, and an epoch nobody pins
  /// frees its metas at once. Pins last one call, so the chain a pin holds
  /// spans the few commits made meanwhile.
  struct MetaEpoch {
    std::vector<std::shared_ptr<const MatrixMeta>> retired;
    std::shared_ptr<MetaEpoch> next;
  };

  /// The state of a live matrix, or nullptr (mu_ held).
  MatrixState* FindLocked(int matrix_id);
  const MatrixState* FindLocked(int matrix_id) const;
  /// Moves `metas` into the newest epoch and begins the next (mu_ held).
  void RetireMetasLocked(std::vector<std::shared_ptr<const MatrixMeta>> metas);

  Result<int> CreateMatrixInternal(MatrixOptions options, int rotation);

  /// Registers `meta` (id already assigned) and creates its shards on every
  /// covered server. Shared by CreateMatrixInternal and CreateAlignedMatrix.
  Result<int> RegisterMatrix(MatrixMeta meta);

  /// Snapshot of all matrix metas, for migration planning.
  std::vector<MatrixMeta> AllMetas() const;

  /// Lowest fleet slot that is neither active nor retired — the join
  /// candidate. FailedPrecondition when the fleet is exhausted.
  Result<int> ClaimableSpare() const;

  /// Installs migrated routing state: new partitioner snapshots (stamped
  /// with `epoch` and published as fresh metas; the old ones stay intact for
  /// whoever still holds them), the new active list, and the new routing
  /// epoch — in one critical section, and only after every involved server
  /// committed, so a meta a client fetches never stamps an epoch ahead of
  /// the servers'.
  void CommitRouting(const std::vector<MatrixMeta>& metas,
                     std::vector<int> new_active, uint64_t epoch,
                     int retired_server);

  /// Shared drop + restore + revive + hotspot-refresh path for both
  /// recovery entry points. Returns the recovery stall (not yet charged).
  Result<SimTime> RecoverServerInternal(int server_id);

  Cluster* cluster_;
  UdfRegistry udfs_;
  std::vector<std::unique_ptr<PsServer>> servers_;
  std::unique_ptr<HotspotManager> hotspot_;
  std::unique_ptr<ModelSnapshotManager> snapshots_;
  std::unique_ptr<MembershipManager> membership_;
  CheckpointStore checkpoint_store_;

  mutable std::mutex mu_;
  /// Matrix states by id; ids are handed out densely, so lookups index.
  std::vector<MatrixState> matrices_;
  std::shared_ptr<MetaEpoch> meta_epoch_ = std::make_shared<MetaEpoch>();
  /// Active server ids, ascending (guarded by mu_).
  std::vector<int> active_;
  /// Decommissioned fleet slots; they never rejoin (guarded by mu_).
  std::vector<bool> retired_;
  /// Routing-table version (guarded by mu_); 0 until the first migration.
  uint64_t routing_epoch_ = 0;
  int next_matrix_id_ = 0;
  std::atomic<int> next_client_id_{0};
  /// Serializes recovery so concurrent retry loops hitting the same crashed
  /// server restore its image exactly once.
  std::mutex recovery_mu_;
};

}  // namespace ps2
