#pragma once

// PS-server: stores matrix shards and executes row/column operations.
//
// A server owns, for every matrix, *all rows* of one contiguous column range
// (see ps/partitioner.h). Requests arrive as serialized buffers (built by
// PsClient) and responses leave as serialized buffers, so the traffic the
// network model charges is exactly what a Netty/Protobuf implementation
// would put on the wire. Server-side user functions (the `zip` operator of
// paper Figs. 3/8) are looked up in a UdfRegistry — standing in for code
// pre-deployed to the servers in the real system.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/slice.h"
#include "common/status.h"
#include "hotspot/access_stats.h"
#include "net/filter_config.h"
#include "net/filters.h"
#include "net/message.h"
#include "ps/ps_types.h"

namespace ps2 {

/// Mutating server-side function over aligned row slices.
/// `rows` are the local slices (one pointer per DCV, `n` elements each),
/// `col_offset` is the global column index of element 0. Returns op count.
using ZipFn = std::function<uint64_t(const std::vector<double*>& rows, size_t n,
                                     uint64_t col_offset)>;

/// Read-only server-side aggregation returning a small result vector.
using ZipAggFn = std::function<std::vector<double>(
    const std::vector<const double*>& rows, size_t n, uint64_t col_offset)>;

/// Runs built-in kind `kind` (not kZip) element-wise over `n` elements:
/// dst = op(a, b, scalar), reading NumSources(kind) sources; the op count.
uint64_t ApplyColumnOp(ColOpKind kind, double* dst, const double* a,
                       const double* b, double scalar, size_t n);

/// A registered mutating UDF and the operand count it takes (0 = any).
struct ZipUdf {
  ZipFn fn;
  size_t arity = 0;
};

/// \brief Registry of server-side functions, shared by all servers.
class UdfRegistry {
 public:
  /// `arity` is the operand count `fn` requires (0 = any): the server fails
  /// a zip that names it with another count (InvalidArgument, nothing
  /// applied) instead of running it.
  int RegisterZip(ZipFn fn, size_t arity = 0);
  int RegisterZipAggregate(ZipAggFn fn);
  const ZipUdf* GetZip(int id) const;
  const ZipAggFn* GetZipAggregate(int id) const;

 private:
  mutable std::mutex mu_;
  std::vector<ZipUdf> zip_fns_;
  std::vector<ZipAggFn> zip_agg_fns_;
};

/// \brief One parameter server: matrix shards + request execution.
class PsServer {
 public:
  PsServer(int id, const UdfRegistry* udfs) : id_(id), udfs_(udfs) {}

  int id() const { return id_; }

  /// Points service-time observability at `metrics` (PsMaster wires the
  /// cluster registry here). With metrics attached, every data-plane Handle
  /// records its wall-clock service time into the per-opcode histogram
  /// `ps.server.handle_us{op=...}` and the request concurrency seen on
  /// arrival into `ps.server.queue_depth{server=i}`. Wall-clock samples go
  /// into histograms only — never counters — so determinism-checked
  /// Snapshot() output is unaffected. nullptr (the default) disables.
  void SetMetrics(MetricsRegistry* metrics);

  /// Control plane (issued by the master, not on the data path).
  /// Creating a shard also admits its id (see AdmitMatrixIds).
  Status CreateMatrixShard(const MatrixMeta& meta);
  Status FreeMatrixShard(int matrix_id);
  bool HasMatrix(int matrix_id) const;

  /// Admits matrix ids [0, limit): the ids the cluster has handed out, which
  /// a migration may bring here later. The master admits every new id on
  /// every server. A matrix id decoded from the wire outside the admitted
  /// range is rejected, so a forged id can never size the id-indexed shard
  /// table. The bound only grows. Control plane, like CreateMatrixShard.
  void AdmitMatrixIds(int limit);

  // ---- Elastic membership / resharding (membership/, DESIGN.md §12) ----

  /// Suspends the tracked data plane for a migration: until the commit
  /// (kRoutingUpdate) lands, tracked requests get the `routing stale
  /// (fenced)` FailedPrecondition. Control plane, like CreateMatrixShard.
  void FenceForMigration();

  /// Installs the routing-table version this server enforces: a tracked
  /// request stamped with an older (nonzero) epoch is rejected with
  /// `routing stale (epoch)`. Called directly on servers not involved in a
  /// migration; involved servers get their epoch from the commit op.
  void SetRoutingEpoch(uint64_t epoch);

  /// Permanently retires the server (RemoveServer): every tracked data-plane
  /// request is rejected with `routing stale (decommissioned)`. The dedup
  /// table is kept so rejections still answer the applied-probe (see
  /// DESIGN.md §12); migration control ops keep working so in-flight
  /// extracts can finish.
  void Decommission(uint64_t epoch);

  bool fenced() const;
  bool decommissioned() const;
  uint64_t routing_epoch() const;

  /// Re-aligns the shard of `meta.id` with what `meta.partitioner` says this
  /// server owns — the crash-recovery reconcile: a checkpoint written before
  /// a migration restores the old bounds, and this rebuilds the shard at the
  /// current bounds preserving the overlapping columns (the migrated-away or
  /// not-yet-migrated remainder is zero-filled, same semantics as any other
  /// post-checkpoint loss). Returns true if the bounds changed. If the
  /// partitioner no longer assigns this server any columns the shard is
  /// dropped; if the server has no shard but owns columns, one is created.
  Result<bool> ReconcileShardBounds(const MatrixMeta& meta);

  // ---- Hot-parameter management (hotspot/, DESIGN.md §5d) ----

  /// Turns on per-(matrix, row) pull/push frequency sketches of `capacity`
  /// monitored keys (0 disables). Control plane, like CreateMatrixShard.
  void EnableAccessStats(size_t capacity);

  /// Most-pulled rows by estimated count (empty unless stats are enabled).
  /// The master aggregates these across servers into the ranked hot set.
  std::vector<SpaceSavingSketch::Entry> TopPulledRows(size_t k) const;

  /// True if this server holds a replica of `ref` (tests, co-location).
  bool HasReplica(RowRef ref) const;

  /// Drops pending replica deltas whose replica was installed before
  /// `current_epoch`. Called by the HotspotManager after a checkpoint
  /// restore: pendings in a checkpoint older than the latest sync were
  /// already reconciled into the primaries — re-applying the resurrected
  /// copies would double-count them.
  void DropStaleReplicaPendings(uint64_t current_epoch);

  /// Snapshot of one replica (tests / recovery verification).
  struct ReplicaSnapshot {
    std::vector<double> values;
    std::map<uint64_t, double> pending;
    uint64_t version = 0;
  };
  Result<ReplicaSnapshot> DebugReplica(RowRef ref) const;

  struct HandleResult {
    std::vector<uint8_t> response;
    uint64_t server_ops = 0;
    /// True when a mutating request was recognized as a retry of an
    /// already-applied (client, seq) and acked without re-applying.
    bool dedup_hit = false;
    /// Wire filters applied to `response` (0 = response is the logical
    /// bytes). The client must Decode before parsing when nonzero.
    uint8_t response_mask = 0;
    /// Pre-filter response size when response_mask != 0 (else 0: the
    /// response already is the logical payload).
    uint64_t response_logical_bytes = 0;
    /// Marked value spans of the logical response (server-internal: consumed
    /// by the response filter encode; meaningless to the client).
    std::vector<PayloadSection> response_sections;
  };

  /// Installs the wire filter config (PsMaster wires this from the
  /// ClusterSpec, once, before any data-plane traffic — like SetMetrics).
  /// Governs response-side filtering; requests carry their mask per frame.
  void SetFilterConfig(const FilterConfig& config);

  /// Data plane, zero-copy: executes one wire frame (a view into the
  /// sender's buffer — nothing is copied on delivery) stamped with `header`.
  /// An untracked header (client_id < 0: control-plane callers) skips fault
  /// accounting, dedup and response filtering. For tracked mutating requests
  /// the per-client dedup table is consulted first: a retry of an
  /// already-applied sequence number is acked with an empty response
  /// instead of re-applying (DESIGN.md §6). Returns Unavailable while the
  /// server is crashed. If the frame carries a filter mask, the payload is
  /// decoded *after* the dedup check (a duplicate never decodes, so a
  /// replayed install cannot perturb key-cache state) — a kKeysRef whose
  /// hash this server no longer holds returns FailedPrecondition (see
  /// IsKeyCacheMiss) without consuming the sequence number. Responses to
  /// tracked requests are filter-encoded per the installed config
  /// (delta/compress only — key caching is request-side).
  Result<HandleResult> Handle(const RpcHeader& header, const WireFrame& frame);

  // ---- Simulated process lifecycle (fault injection) ----

  /// Marks the server down: every Handle call returns Unavailable until
  /// Revive(). State is *not* dropped here — PsMaster's recovery path drops
  /// and restores it, modeling the restarted process.
  void Crash();
  /// Clears the crashed flag (the recovered process is serving again).
  void Revive();
  bool crashed() const;

  /// Retried mutations recognized and suppressed by the dedup table.
  uint64_t dedup_hits() const;

  /// Serializes all shards (for checkpointing). Includes the replica set
  /// and the per-client dedup table, so recovery is crash-consistent: a
  /// retry that races a crash can never double-apply.
  std::vector<uint8_t> SerializeState() const;
  /// Replaces all shard contents from a checkpoint buffer.
  Status RestoreState(const std::vector<uint8_t>& buffer);
  /// Drops all shard *contents* (simulated crash); metadata survives at the
  /// master, which recreates shards before restoring the checkpoint. The
  /// dedup table is dropped too — it rolls back with the state it guards.
  void DropAllState();

  /// Total doubles stored (tests / memory accounting).
  uint64_t StoredValues() const;

  // ---- Worker clocks (consistency/, DESIGN.md §11) ----

  /// Sizes the per-worker clock vector to `num_workers`, all clocks 0.
  /// Control plane, issued once by the ConsistencyController before
  /// training — like CreateMatrixShard. Idempotent for the same size.
  void InitWorkerClocks(int num_workers);

  /// This shard's view of every worker's clock (empty until
  /// InitWorkerClocks). Clock values only grow: HandleClockAdvance is a
  /// max-merge, so retried advances are idempotent even past the dedup
  /// table.
  std::vector<uint64_t> WorkerClocks() const;

  /// min over workers of WorkerClocks() — the bounded-staleness gate input.
  /// Returns 0 when clocks were never initialized.
  uint64_t MinWorkerClock() const;

  // ---- Serving snapshots (serving/, DESIGN.md §10) ----

  /// Doubles per copy-on-publish chunk of a dense snapshot row. At 256
  /// doubles (2 KiB) a sparse write of k keys re-copies at most k × 2 KiB,
  /// while a chunk's clock and patch slot (24 bytes) stay near 1% of it.
  static constexpr uint64_t kSnapshotChunk = 256;

  /// What one PublishSnapshot call did (the master charges copy cost and
  /// control-plane bytes from these).
  struct PublishStats {
    uint64_t rows_total = 0;   ///< rows in the published snapshot
    uint64_t rows_copied = 0;  ///< rows with any chunk copied (touched)
    uint64_t rows_reused = 0;  ///< rows shared whole with the previous epoch
    uint64_t bytes_copied = 0; ///< payload bytes of the copied chunks
  };

  /// Publishes an immutable snapshot of every primary shard under `epoch`.
  /// Copy-on-publish at chunk granularity: a dense row untouched since the
  /// previous snapshot shares its image whole; after sparse writes only the
  /// written kSnapshotChunk-double chunks are copied and the rest are
  /// shared; a row rewritten whole (a whole-row writer, a layout change, a
  /// restore) is copied as one buffer with one memcpy. Sparse-storage rows
  /// copy whole when touched. The last two epochs are retained so epoch N
  /// keeps serving while N+1 is being published. `epoch` must be strictly
  /// greater than the latest published epoch.
  Result<PublishStats> PublishSnapshot(uint64_t epoch);

  /// Bytes of snapshot payload the retained epochs hold, each shared buffer
  /// counted once. A dense row image holds at most one whole-row buffer plus
  /// one buffer per chunk (2× the row), and the next epoch's image of the
  /// row either shares it or adds at most one row's worth of chunks or one
  /// whole-row buffer. So while shard bounds stay put, this is at most 3×
  /// the dense shard bytes (rows × width × 8), however many publishes ran.
  uint64_t SnapshotBytesHeld() const;

  /// Latest published snapshot epoch (0 = nothing published yet). Snapshots
  /// are process-local soft state: DropAllState clears them, and recovery
  /// republishes from the restored shards.
  uint64_t snapshot_epoch() const;

  /// True if `epoch` is still retained and servable.
  bool HasSnapshotEpoch(uint64_t epoch) const;

 private:
  /// Copy-on-publish clocks of one row (mutation_clock_ values; DESIGN.md
  /// §10): the last write of any kind and the last whole-row write.
  struct RowClock {
    uint64_t version = 0;
    uint64_t rewrite = 0;
  };

  /// What a shard keeps beside its entry: nothing a dense row access reads.
  struct Shard {
    uint64_t dim = 0;  ///< the matrix's logical dimension
    // Sparse storage: per-row map global column -> value.
    std::vector<std::map<uint64_t, double>> sparse_rows;
    // Dense storage: the last sparse write to each chunk (rows x
    // num_chunks(), row-major; empty until the first publish that sees the
    // shard, and sparse writes count as whole-row writes till then).
    std::vector<uint64_t> chunk_versions;
  };

  /// One matrix id's slot in shards_ and the only record of its shard's
  /// bounds. A row resolves in one hop: the entry holds the bounds, the row
  /// count, the storage kind and the dense values as one rows x width
  /// block, so a row access reads no Shard and no per-row header.
  struct ShardEntry {
    std::unique_ptr<double[]> values;    ///< dense: row r at row(r)
    std::unique_ptr<RowClock[]> clocks;  ///< one per row
    uint64_t begin = 0;  ///< global column of local element 0
    uint64_t end = 0;
    uint32_t num_rows = 0;
    MatrixStorage storage = MatrixStorage::kDense;
    std::unique_ptr<Shard> rest;  ///< null: no shard of this id here

    bool present() const { return rest != nullptr; }
    uint64_t width() const { return end - begin; }
    bool dense() const { return storage == MatrixStorage::kDense; }
    double* row(uint64_t r) const { return values.get() + r * width(); }
    uint64_t num_chunks() const {
      return (width() + kSnapshotChunk - 1) / kSnapshotChunk;
    }
  };

  /// One immutable dense row of a published snapshot, in kSnapshotChunk
  /// chunks. Chunk c is patches[c] when that is set, else it lies at
  /// base + c * kSnapshotChunk. A whole-row copy fills `base` alone; a
  /// publish after sparse writes patches only the written chunks and shares
  /// everything else with the previous image. `base` is dropped once every
  /// chunk is patched.
  struct ChunkedRow {
    std::shared_ptr<const double[]> base;
    std::vector<std::shared_ptr<const double[]>> patches;  ///< empty: none
    size_t num_patched = 0;

    const double* chunk(size_t c) const {
      return !patches.empty() && patches[c] != nullptr
                 ? patches[c].get()
                 : base.get() + c * kSnapshotChunk;
    }
  };

  /// One immutable row of a published snapshot: `chunks` for dense storage,
  /// `sparse` for sparse storage. Buffers are shared, never mutated, so an
  /// epoch stays bit-stable while later epochs publish.
  struct SnapshotRow {
    uint64_t version = 0;  ///< shard row version at copy time
    std::shared_ptr<const ChunkedRow> chunks;
    std::shared_ptr<const std::map<uint64_t, double>> sparse;
  };
  struct ShardSnapshot {
    bool present = false;  ///< false: no shard of this id at publish
    uint64_t begin = 0;
    uint64_t end = 0;
    bool dense = true;
    std::vector<SnapshotRow> rows;
  };
  struct ModelSnapshot {
    uint64_t epoch = 0;
    /// By matrix id, like shards_.
    std::vector<ShardSnapshot> shards;

    /// The snapshot of `matrix_id`'s shard, or nullptr.
    const ShardSnapshot* Find(uint64_t matrix_id) const {
      return matrix_id < shards.size() && shards[matrix_id].present
                 ? &shards[matrix_id]
                 : nullptr;
    }
  };
  /// The image of one touched row for the next epoch: a copy of only the
  /// chunks written since `prev` when the row was written sparsely, else a
  /// whole-row copy. Adds the doubles copied to `*copied`.
  std::shared_ptr<const ChunkedRow> CopyDenseRowLocked(
      const ShardEntry& shard, size_t row, const SnapshotRow* prev,
      uint64_t* copied) const;
  /// One validated read of a kReadRows or kServingPull response: columns
  /// [begin, begin + n), or the n keys at `key_begin` of a key list, of one
  /// row image — a dense span (column `base` at [0]), a snapshot's chunked
  /// image (read whole or by key), or a sparse map.
  struct RowRead {
    const double* dense = nullptr;
    const ChunkedRow* chunks = nullptr;
    const std::map<uint64_t, double>* sparse = nullptr;
    uint64_t base = 0;
    uint64_t begin = 0;
    size_t key_begin = 0;
    uint64_t n = 0;
    bool indices = false;
    bool int_values = false;
  };
  /// Writes each read as n, then its n values: an f64 section, or zigzag
  /// varints of the rounded values when `int_values`.
  static void WriteRowReads(const std::vector<RowRead>& reads,
                            const std::vector<uint64_t>& keys,
                            BufferWriter* writer);

  /// Snapshot epochs retained for serving (publish evicts beyond this).
  static constexpr size_t kRetainedSnapshots = 2;

  /// A replica of a hot row: the full row's values (all columns, not just
  /// this server's range) plus locally aggregated pending push deltas.
  /// version == 0 means "designated but never installed" — pulls fall
  /// through to the primary shard until the first ReplicaSync install.
  struct Replica {
    uint64_t dim = 0;
    uint64_t version = 0;
    std::vector<double> values;
    std::map<uint64_t, double> pending;
  };

  /// State extracted from a source server and staged by a kRangeMigrate
  /// install, waiting for the epoch's commit (kRoutingUpdate). Keyed by
  /// (epoch, matrix, begin); a retried install overwrites its key, so
  /// replays are idempotent. Soft state: a crash before the commit drops it
  /// and the master re-installs (DESIGN.md §12).
  struct StagedRange {
    uint64_t begin = 0;
    uint64_t end = 0;
    uint64_t dim = 0;
    uint32_t num_rows = 0;
    MatrixStorage storage = MatrixStorage::kDense;
    // Dense: num_rows x (end-begin), row-major. Sparse: per-row column ->
    // value within [begin, end).
    std::vector<double> dense;
    std::vector<std::map<uint64_t, double>> sparse_rows;
    // Source server's worker clocks, max-merged at commit (clock tables
    // follow the range owner — DESIGN.md §11/§12).
    std::vector<uint64_t> worker_clocks;
  };

  /// Sequence numbers already applied for one client (DESIGN.md §6).
  /// `floor` covers the contiguous prefix [1, floor]; out-of-order arrivals
  /// (bounded by the client's async window) sit in `seen` until the gap
  /// fills. Capped: if `seen` outgrows kMaxSeenPerClient (permanently lost
  /// seqs from abandoned ops), the floor jumps to the smallest seen entry.
  struct ClientDedup {
    uint64_t floor = 0;
    std::set<uint64_t> seen;
  };
  static constexpr size_t kMaxSeenPerClient = 4096;

  /// True if (client, seq) was already applied (mu_ held).
  bool IsDuplicateLocked(int client_id, uint64_t seq) const;
  /// Records a successfully handled tracked seq (mu_ held).
  void RecordSeqLocked(int client_id, uint64_t seq);

  Result<HandleResult> HandleLocked(const RpcHeader& header, Slice request);
  Result<HandleResult> HandleInternal(const RpcHeader& header,
                                      const WireFrame& frame);
  /// Applies response-side filters (outside mu_; the response is private to
  /// this call).
  void EncodeResponse(const RpcHeader& header, HandleResult* out);

  /// The one shard lookup: the entry of `matrix_id`'s shard, or nullptr.
  /// One index into shards_. Takes any id: a negative int converts past
  /// every table size, and a wire varint is checked whole, never truncated
  /// onto another id.
  const ShardEntry* ShardOf(uint64_t matrix_id) const;
  ShardEntry* ShardOf(uint64_t matrix_id) {
    return const_cast<ShardEntry*>(std::as_const(*this).ShardOf(matrix_id));
  }
  /// ShardOf when the shard holds row `row`, else nullptr; DenseShard also
  /// asks for dense storage. RowMiss says why either found nothing, so a
  /// row's lookup builds no Result.
  ShardEntry* FindShard(uint64_t matrix_id, uint32_t row);
  ShardEntry* DenseShard(uint64_t matrix_id, uint32_t row);
  /// NotFound (no shard), OutOfRange (no such row) or FailedPrecondition
  /// (sparse storage): the reason a FindShard or DenseShard came up empty.
  Status RowMiss(uint64_t matrix_id, uint32_t row) const;
  /// Installs a shard of `matrix_id` (admitted; none there yet) over
  /// [begin, end) with zeroed rows, and returns its entry.
  ShardEntry* PutShardLocked(int matrix_id, uint64_t dim, uint32_t num_rows,
                             MatrixStorage storage, uint64_t begin,
                             uint64_t end);

  /// Installed replica of (matrix, row), or nullptr.
  Replica* FindReplica(int matrix_id, uint32_t row);

  /// Read-only view of a row slice [begin, begin+width): the primary shard
  /// when this server owns exactly that slice, else an installed replica
  /// (replicated rows read as if co-located everywhere), else nullptr.
  const double* ReadRowView(int matrix_id, uint32_t row, uint64_t begin,
                            uint64_t width);

  /// A validated row of a shard: what a handler keeps instead of looking
  /// the matrix up again.
  struct ShardRow {
    ShardEntry* shard;
    uint32_t row;
  };

  /// Decodes a zip entry's k and its k (matrix, row) operands, resolving
  /// each to its dense primary slice; all must share one column window
  /// (`width`, `begin`). Appends the operands to `touched` when non-null.
  Result<std::vector<double*>> ZipRows(BufferReader* in, uint64_t* width,
                                       uint64_t* begin,
                                       std::vector<ShardRow>* touched);

  /// This server's partial sum / nnz / squared norm / max of one row slice
  /// (dense or sparse storage); adds the elements read to `ops`.
  Result<double> RowAggregate(int matrix_id, uint32_t row, AggKind kind,
                              uint64_t* ops);

  void RecordPull(int matrix_id, uint32_t row);
  void RecordPush(int matrix_id, uint32_t row);

  /// Marks one row (or every row of every shard) as rewritten whole: the
  /// next PublishSnapshot copies all of it.
  void TouchRowLocked(ShardEntry* shard, uint64_t row);
  void TouchAllRowsLocked();
  /// Marks the chunks of dense row `row` that hold the global columns
  /// cols[0, n): the next PublishSnapshot copies just those chunks (the
  /// whole row while the shard has no chunk clocks yet).
  void TouchChunksLocked(ShardEntry* shard, uint64_t row,
                         const uint64_t* cols, size_t n);
  /// Re-sizes any chunk clocks to the shard's current bounds and marks
  /// every row rewritten: for new shards and after a layout change.
  void TouchLayoutLocked(ShardEntry* shard);

  /// A writer for a row-read response of about `bytes` bytes holding up to
  /// `sections` value spans. The spans are marked only when a response
  /// filter will read them (EncodeResponse), so an unfiltered response
  /// allocates its buffer alone.
  BufferWriter ResponseWriter(size_t bytes, size_t sections) const;
  Result<HandleResult> HandleReadRows(BufferReader* in);
  Result<HandleResult> HandleWriteRows(BufferReader* in);
  Result<HandleResult> HandleColumnOps(BufferReader* in);
  Result<HandleResult> HandleAggregate(BufferReader* in);
  Result<HandleResult> HandleMatrixInit(BufferReader* in);
  Result<HandleResult> HandleHotSetUpdate(BufferReader* in);
  Result<HandleResult> HandleReplicaSync(BufferReader* in);
  Result<HandleResult> HandleServingPull(BufferReader* in);
  Result<HandleResult> HandleClockAdvance(BufferReader* in);
  Result<HandleResult> HandleRangeExtract(BufferReader* in);
  Result<HandleResult> HandleRangeMigrate(BufferReader* in);
  Result<HandleResult> HandleRoutingUpdate(BufferReader* in);

  /// Rebuilds `matrix_id`'s shard at [new_begin, new_end), preserving the
  /// overlap with the old bounds and filling the rest from this epoch's
  /// staged ranges (zero where nothing is staged — callers validate
  /// coverage first).
  void ResizeShardLocked(int matrix_id, ShardEntry* shard, uint64_t new_begin,
                         uint64_t new_end, uint64_t epoch);

  int id_;
  const UdfRegistry* udfs_;
  mutable std::mutex mu_;
  // Shard entries by matrix id (not present: no shard here). Iterating it
  // visits shards in id order, which fixes the checkpoint image's layout. It
  // grows only up to an admitted id, never to an id decoded from the wire.
  std::vector<ShardEntry> shards_;
  int64_t matrix_id_limit_ = 0;  ///< ids [0, limit) admitted (AdmitMatrixIds)
  // Monotonic write clock feeding the Shard clocks (mu_ held).
  uint64_t mutation_clock_ = 0;
  // Published snapshots, oldest first, at most kRetainedSnapshots.
  std::vector<ModelSnapshot> snapshots_;
  std::map<std::pair<int, uint32_t>, Replica> replicas_;
  std::map<int, ClientDedup> dedup_;  ///< client id -> applied seqs
  uint64_t dedup_hits_ = 0;
  // Per-worker clocks of the consistency controller (DESIGN.md §11); one
  // slot per worker, sized by InitWorkerClocks. Durable: checkpointed with
  // the shards and dropped/restored with them on crash recovery.
  std::vector<uint64_t> worker_clocks_;
  // Wire filters. filters_ is written once at wiring time (SetFilterConfig,
  // before traffic — same discipline as SetMetrics); keycache_ has its own
  // mutex and is cleared by DropAllState (soft state: clients fault entries
  // back in through the miss protocol after recovery).
  FilterConfig filters_;
  FilterChain chain_;
  ServerKeyCache keycache_;
  bool crashed_ = false;
  // Elastic membership (DESIGN.md §12). routing_epoch_ is the newest routing
  // table version this server has enforced; tracked requests stamped with an
  // older nonzero epoch are rejected (`routing stale`). fenced_ suspends the
  // tracked data plane mid-migration; decommissioned_ is permanent.
  uint64_t routing_epoch_ = 0;
  bool fenced_ = false;
  bool decommissioned_ = false;
  // (epoch, matrix, begin) -> extracted state staged by kRangeMigrate.
  std::map<std::tuple<uint64_t, int, uint64_t>, StagedRange> staged_;
  size_t stats_capacity_ = 0;  ///< 0 = access statistics off
  std::unique_ptr<AccessStats> stats_;
  // Observability (SetMetrics). `active_` counts Handle calls currently in
  // flight on this server — sampled at request arrival as the queue depth.
  // Histogram pointers are resolved once at wiring time so the per-request
  // cost is a direct Histogram::Record, not a registry lookup (pointers
  // stay valid across MetricsRegistry::Reset — see GetOrCreateHistogram).
  std::atomic<MetricsRegistry*> metrics_{nullptr};
  std::atomic<int> active_{0};
  std::vector<Histogram*> handle_us_hists_;  ///< per opcode, + 1 for unknown
  Histogram* queue_depth_hist_ = nullptr;
};

}  // namespace ps2
