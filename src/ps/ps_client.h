#pragma once

// PS-client: the bridge between workers (or the coordinator) and PS-servers
// (paper §5.1). Each operation
//
//   1. builds one serialized request per server whose column range it
//      touches,
//   2. executes them — each an in-process PsServer::Handle call standing in
//      for a Netty RPC — by one rule (ExchangeEach): keyed requests (row
//      reads and writes by range or index, serving pulls, clock and control
//      calls) run inline, in request order, on the issuing thread;
//      shard-scoped requests (ColumnOps, Aggregate, whole-slice row reads
//      and writes, MatrixInit) run over a server's whole shard, the only
//      exchanges long enough to repay a hand-off, so they spread over the
//      cluster pool unless the issuing thread is one of that pool's workers
//      (DESIGN.md §5c), and
//   3. records the exchanges — request bytes, response bytes, server ops —
//      into the op's own TaskTraffic, which its PsFuture receipt carries
//      until it is settled (ps/ps_future.h). Settling charges it by one
//      rule (Charge): into the issuing task's TrafficScope, or — when the
//      coordinator issued the op between stages, e.g. the Adam update zip —
//      onto the cluster clock as the collective cost of its fan-out.
//
// Every op runs through one Submit and returns a completed PsFuture<T>
// (paper §5.1's asynchronous client). Overlap accounting: the first op
// issued while a context has nothing outstanding is the round *leader*
// (TaskTraffic::rounds += 1); ops issued while others are outstanding ride
// the leader's latency window (TaskTraffic::pipelined_rounds += 1), so an
// overlapped group of k ops charges max — one round — rather than the sum
// the serial client paid. Leader/follower is decided at issue and retired
// at settlement, both on the caller thread in program order, so virtual
// time stays deterministic no matter which thread ran an exchange. The
// synchronous API is a thin XAsync(...).Get() wrapper — with nothing
// outstanding it is leader-classified and byte-and-round identical to the
// old serial client.
//
// Error fan-out semantics (the same inline and on the pool): every request
// executes on its server, every *successful* exchange is recorded in
// partition order, and the reported Status is the first failure in
// partition order. There is no partial-execution mode — a stage that fails
// on server k still ran its requests on servers > k, and the dedup layer
// below makes re-driving the whole fan-out safe.
//
// Fault tolerance (DESIGN.md §6): every request carries an RpcHeader
// (client id, per-server monotonic sequence number, attempt). Injected
// message faults (lost request, lost response, server crash — see
// sim/failure_injector.h) surface as Unavailable; the client retries the
// *same* sequence number up to PsClientOptions::max_attempts times with
// exponential backoff charged to virtual time (TaskTraffic::
// retry_backoff_time), optionally recovering a crashed server from its
// latest checkpoint first. Servers deduplicate retried mutations by
// (client, seq), so a push whose response was lost is applied exactly once.
//
// Column ops verify co-location; on non-co-located operands they fall back
// to the naive pull-compute-push path of paper Fig. 4 (see ColumnOpsAsync).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/slice.h"
#include "hotspot/client_cache.h"
#include "linalg/sparse_vector.h"
#include "net/filter_config.h"
#include "net/filters.h"
#include "ps/ps_future.h"
#include "ps/ps_master.h"
#include "ps/ps_types.h"

namespace ps2 {

/// \brief The columns a ReadRows / WriteRows op addresses in each of its
/// rows — the wire selector of DESIGN.md §5b.
struct RowSelector {
  RowSelectorKind kind = RowSelectorKind::kRange;
  /// kRange: the window; the default is the whole row.
  ColRange cols;
  /// kIndices reads: the sorted, unique columns every row shares. Borrowed:
  /// the op serializes it before it returns.
  const std::vector<uint64_t>* indices = nullptr;
  /// Values travel as zigzag varints of llround(value) instead of f64s —
  /// PS2's message compression for integer count matrices (LDA).
  bool int_values = false;

  /// Each server's whole slice of every row, sent once per server. Reads
  /// return whole rows; writes take full-width deltas.
  static RowSelector All() { return Of(RowSelectorKind::kAll); }
  /// Columns `cols` of every row, split at partition boundaries.
  static RowSelector Range(ColRange cols = ColRange::All()) {
    RowSelector s = Of(RowSelectorKind::kRange);
    s.cols = cols;
    return s;
  }
  /// The shared `indices` of every row, split at partition boundaries.
  static RowSelector Indices(const std::vector<uint64_t>& indices) {
    RowSelector s = Of(RowSelectorKind::kIndices);
    s.indices = &indices;
    return s;
  }
  /// This selector with integer-coded values.
  RowSelector IntValues() const {
    RowSelector s = *this;
    s.int_values = true;
    return s;
  }

 private:
  static RowSelector Of(RowSelectorKind kind) {
    RowSelector s;
    s.kind = kind;
    return s;
  }
};

/// \brief Tunables of the client's retry and wire behaviour.
struct PsClientOptions {
  /// Total tries per request (1 = no retries). Only Unavailable results —
  /// injected message faults and crashed servers — are retried; the backoff
  /// between tries is charged to virtual time via CostModel::RetryBackoff.
  int max_attempts = 4;
  /// When a retry finds the server crashed (sim/failure_injector.h), ask the
  /// master to restore it from its latest checkpoint before retrying. The
  /// recovery stall is charged to the retrying task. When false, the request
  /// keeps retrying against the dead server and surfaces Unavailable.
  bool recover_crashed_servers = true;
  /// Wire filter chain for this client's traffic (net/filters.h). Unset
  /// (the default) inherits ClusterSpec::filters — the same convention as
  /// the --simd flag's runtime dispatch: one spec-level switch, per-client
  /// override for tests.
  std::optional<FilterConfig> filters;
};

/// \brief The per-row deltas of a WriteRows op: dense or sparse vectors,
/// one per row, borrowed from the caller (the op serializes them before it
/// returns).
struct RowDeltas {
  // Implicit on purpose: callers pass their vectors as they are.
  RowDeltas(const std::vector<std::vector<double>>& d)
      : dense(d.data()), size(d.size()) {}
  RowDeltas(const std::vector<SparseVector>& d)
      : sparse(d.data()), size(d.size()) {}
  /// One row's delta.
  RowDeltas(const std::vector<double>& d) : dense(&d), size(1) {}
  RowDeltas(const SparseVector& d) : sparse(&d), size(1) {}

  const std::vector<double>* dense = nullptr;
  const SparseVector* sparse = nullptr;
  size_t size = 0;
};

/// \brief One entry of a ColumnOps request. A built-in kind reads
/// `rows` = {dst, sources...} — exactly 1 + NumSources(kind) rows — and
/// `scalar`; kZip runs registered UDF `udf` over `rows` (at least one).
struct ColumnOpEntry {
  ColOpKind kind = ColOpKind::kFill;
  std::vector<RowRef> rows;
  double scalar = 0.0;
  int udf = -1;
};

/// \brief One entry of an Aggregate request: sum / nnz / squared norm / max
/// of rows[0], the dot of rows[0] and rows[1], or registered zip-aggregate
/// UDF `udf` over `rows`.
struct AggregateEntry {
  AggKind kind = AggKind::kSum;
  std::vector<RowRef> rows;
  int udf = -1;
};

/// \brief One Aggregate entry's result.
struct AggregateValue {
  /// Scalar kinds: the partials summed (max: maxed) in partition order.
  double value = 0.0;
  /// kZipAggregate: one result vector per server shard, in partition order.
  std::vector<std::vector<double>> parts;
};

/// \brief Thread-safe client for PS operations.
class PsClient {
 public:
  explicit PsClient(PsMaster* master, PsClientOptions options = {});
  ~PsClient();

  PsClient(const PsClient&) = delete;
  PsClient& operator=(const PsClient&) = delete;

  // ---- Row access (paper Table 1: pull, push) -----------------------------
  //
  // Two ops, kReadRows and kWriteRows, over one planner: the rows' metas are
  // pinned once (PsMaster::GetMetas), each row's selection is split at
  // partition boundaries (range and index selectors) or server spans (the
  // all selector), and the pieces are grouped by server into one request
  // per (server, partition) — per server for the all selector. Rows may
  // belong to any mix of matrices. A migration that bounces a request with
  // `routing stale` gets its pieces re-planned from fresh metas and re-sent,
  // so each is read or applied exactly once.
  //
  // The hot tier (DESIGN.md §5d) is checked once per row: a hot row fresh in
  // the HotRowCache is read locally. A stale hot row is refreshed whole from
  // its hash home's replica by a range or index read, and read from its
  // primaries by an all read; either way the result warms the cache. Range
  // and index writes to a hot row go to its hash home's replica pending
  // buffer; all-selector writes go to the primaries.
  //
  // An op that sends nothing — no rows, empty selections, every row served
  // locally — completes at issue without a round.
  //
  // Reads — row reads and serving pulls alike — return one flat RowBlock
  // (ps/ps_types.h) and build it in a block the caller hands back, so a
  // pipelined reader allocates nothing per batch. The planner, the
  // exchange and the request buffers run in per-thread scratch that keeps
  // its capacity across ops (DESIGN.md §5c), so a steady stream of small row
  // ops allocates only the servers' response buffers. A buffer over 16 KiB
  // (a wide request, a plan of hundreds of rows) and a filtered request's
  // bytes are allocated per op, as without scratch.

  /// Reads `cols` of every row into one RowBlock, row i holding its
  /// selected values in selector order (the window, or one value per
  /// index). The result is built in `reuse`'s storage: hand back the
  /// previous batch's block and a read of the same shape allocates nothing.
  PsFuture<RowBlock> ReadRowsAsync(const std::vector<RowRef>& rows,
                                   const RowSelector& cols,
                                   RowBlock reuse = {});

  /// Adds `deltas[i]` into `rows[i]`. Dense deltas follow `cols`: the all
  /// selector takes full-width deltas, a range selector deltas as wide as
  /// its window, where the whole-row default means [0, deltas[i].size()).
  /// Sparse deltas carry their own columns (per-row index bodies on the
  /// wire); of `cols` only int_values applies to them.
  PsFuture<Ack> WriteRowsAsync(const std::vector<RowRef>& rows,
                               RowDeltas deltas,
                               const RowSelector& cols = RowSelector::Range());

  /// Blocking single-row sparse write (WriteRowsAsync).
  Status PushSparse(RowRef ref, const SparseVector& delta);

  // ---- Column access (paper Table 1: axpy, dot, copy, add, sub, zip, ...,
  //      and the sum / nnz / norm2 / max row aggregates) -------------------
  //
  // ColumnOps (mutating, deduplicated on retry) and Aggregate (read-only)
  // send ONE shard-scoped request per server carrying all their entries; a
  // ColumnOps server resolves every entry before it applies any. Hot-row
  // replicas read as built-in sources or dot operands do not anchor
  // placement (Place). Without a common placement, built-in entries take
  // the pull-compute-push relay of paper Fig. 4 (synchronously, at issue
  // time; counted in dcv.noncolocated_column_ops / _dots) and a request
  // with zip entries fails with FailedPrecondition.

  PsFuture<Ack> ColumnOpsAsync(const std::vector<ColumnOpEntry>& entries);

  /// One result per entry, in entry order.
  PsFuture<std::vector<AggregateValue>> AggregateAsync(
      const std::vector<AggregateEntry>& entries);

  /// The co-location planner: the meta whose partitioner places every
  /// anchoring row's columns, or nullptr when the anchors disagree. A
  /// replicated hot row with `replica_ok[i]` set (missing = false) does not
  /// anchor; if no row is left to anchor, rows[0] does.
  Result<std::shared_ptr<const MatrixMeta>> Place(
      const std::vector<RowRef>& rows,
      const std::vector<bool>& replica_ok = {});

  /// \brief One read of the serving tier: a row, at `indices` (sorted,
  /// unique) or the whole row when `indices` is empty.
  struct ServingRead {
    RowRef row;
    std::vector<uint64_t> indices;
  };

  /// Initializes rows [row_begin, row_end) of a matrix with deterministic
  /// hash-uniform values in [-scale, scale], entirely server-side — the
  /// bulk initializer for embedding matrices (2V rows would otherwise need
  /// 2V pushes).
  Status MatrixInit(int matrix_id, uint32_t row_begin, uint32_t row_end,
                    double scale, uint64_t seed);

  // ---- Asynchronous API ---------------------------------------------------
  //
  // Each op validates at issue time (an invalid call returns an
  // already-failed receipt that charges nothing) and runs its exchanges
  // before returning (see the header comment). Wait()/Get() the receipt —
  // on the issuing thread — to retrieve the result and charge the traffic.

  /// Advances `worker`'s clock to `clock` in every active server's
  /// worker-clock vector (kClockAdvance fan-out; consistency/, DESIGN.md
  /// §11). Servers max-merge, so the op is idempotent and retry-safe.
  PsFuture<Ack> ClockAdvanceAsync(int worker, uint64_t clock);
  /// Blocking wrapper around ClockAdvanceAsync.
  Status ClockAdvance(int worker, uint64_t clock);

  /// Batched snapshot-isolated reads against published epoch `epoch`
  /// (kServingPull), planned like ReadRowsAsync but routed by the placement
  /// in force when `epoch` was published, so a read pinned before a
  /// relocation still reaches the server holding that epoch. Entries bound
  /// for the same server travel in ONE request — the ServingFrontend's
  /// coalescing lever. Row r of the returned block holds read r's values:
  /// the whole row for a full-row read, else the values at its indices. The
  /// block is built in `reuse`'s storage, as ReadRowsAsync does. Fails with
  /// FailedPrecondition("serving snapshot epoch not available") when `epoch`
  /// fell out of a server's retention window; callers repin to the current
  /// epoch and retry.
  PsFuture<RowBlock> ServingPullAsync(uint64_t epoch,
                                      const std::vector<ServingRead>& reads,
                                      RowBlock reuse);
  /// The block form with one vector per read.
  PsFuture<std::vector<std::vector<double>>> ServingPullAsync(
      uint64_t epoch, const std::vector<ServingRead>& reads);

  /// Runs one migration-control exchange (membership/, DESIGN.md §12):
  /// seals `writer` into a request for `server`, drives it through the full
  /// fault/retry/dedup machinery, and returns the raw response bytes.
  /// Control opcodes are exempt from the routing-staleness check, so this
  /// works against fenced and decommissioned servers — it is what un-fences
  /// them.
  Result<std::vector<uint8_t>> ControlCall(int server, BufferWriter* writer);

  const PsClientOptions& options() const { return options_; }
  PsMaster* master() const { return master_; }

  /// The client's bounded-staleness hot-row cache (hotspot/, §5d). Kept in
  /// sync by the HotspotManager; exposed for tests and benches.
  const HotRowCache& hot_cache() const { return cache_; }

 private:
  /// One serialized request bound for one server. `payload` holds the
  /// logical (unfiltered) bytes; wire() is what actually travels. With the
  /// filter chain off (or a no-gain encode) wire() is a view of `payload`,
  /// zero copies. A request lives only as long as its op, so the row path
  /// keeps its buffers in per-thread scratch and reuses them.
  struct ServerRequest {
    int server = -1;
    std::vector<uint8_t> payload;          ///< logical serialized request
    std::vector<PayloadSection> sections;  ///< filterable spans within payload
    /// Stamped on the issuing thread (program order) by StampRequests so the
    /// per-server sequence numbers — and the fault draws keyed on them — do
    /// not depend on how a pooled fan-out is scheduled.
    RpcHeader header;
    std::vector<uint8_t> filtered;  ///< the filter chain's output, if any
    uint8_t wire_mask = 0; ///< WireFrame::filter_mask for this request
    EncodeStats estats;    ///< per-request encode accounting
    /// Routing identity for the `routing stale` re-route protocol
    /// (DESIGN.md §12): partition-routed requests (route_matrix >= 0)
    /// re-aim via ServerOfPartition against a refetched meta. Untagged
    /// requests surface the rejection (row ops re-plan their pieces).
    int route_matrix = -1;
    int route_partition = -1;
    /// Set by MakeShardRequest: the op runs over the server's whole shard,
    /// so ExchangeEach may spread the fan-out over the cluster pool.
    bool shard_scoped = false;

    /// The bytes that travel: `filtered` under a filter mask, else the
    /// payload itself.
    Slice wire() const { return wire_mask != 0 ? filtered : payload; }
  };

  /// ExchangeEach's per-thread scratch (ps_client.cc).
  struct ExchangeScratch;

  /// Result of driving one request through the retry loop.
  struct ExchangeOutcome {
    std::optional<Result<PsServer::HandleResult>> result;
    uint64_t retries = 0;      ///< failed attempts that were retried
    double backoff = 0.0;      ///< virtual seconds of backoff + recovery stall
    uint64_t dedup_hits = 0;   ///< duplicate mutations the server suppressed
                               ///< (counted even when the ack was then lost)
    uint64_t req_wire = 0;     ///< request bytes on the wire (incl. header)
    uint64_t req_logical = 0;  ///< request bytes pre-filter (incl. header)
    uint64_t resp_wire = 0;    ///< response bytes on the wire (incl. header)
    uint64_t resp_logical = 0; ///< response bytes post-decode (incl. header)
    uint64_t kc_refs = 0;      ///< key-lists replaced by a cached-hash ref
    uint64_t kc_installs = 0;  ///< key-lists installed into the server cache
    uint64_t kc_misses = 0;    ///< keycache-miss round trips (re-encodes)
    uint64_t routing_refetches = 0;  ///< routing-stale waits + re-aims
  };

  /// Runs one op: classifies it leader or follower in the issuing context,
  /// runs `run(traffic)` — its exchanges, recorded into the op's own
  /// traffic, and the parse of their responses — and returns the completed
  /// receipt.
  template <typename T, typename Run>
  PsFuture<T> Submit(Run run);
  /// Submit for a single fan-out of prepared requests: ExchangeAll, then
  /// `parse(results)` on the responses in request order.
  template <typename T, typename Parse>
  PsFuture<T> Submit(std::vector<ServerRequest> requests, Parse parse);

  /// The one charge rule: `traffic` merges into the ambient TrafficScope,
  /// or — issued by the coordinator between stages — charges the cluster
  /// clock with the collective cost of its fan-out.
  void Charge(const TaskTraffic& traffic);

  /// Counts an op into `ctx`'s outstanding window and returns its slot;
  /// `*leader` is set when nothing else was outstanding there. Hands
  /// `traffic` a per-server table a settled op gave back, so an op's
  /// record allocates nothing in steady state.
  uint32_t Issue(const void* ctx, bool* leader, TaskTraffic* traffic);
  friend void internal::SettleOp(PsClient*, uint32_t, TaskTraffic*);

  /// Seals `writer` into a request bound for `server`: moves the buffer and
  /// the section marks in (no copy), and leaves the wire view aliasing the
  /// payload until EncodeRequest runs.
  ServerRequest MakeRequest(int server, BufferWriter* writer);

  /// MakeRequest aimed by (matrix, partition): targets
  /// `meta.partitioner.ServerOfPartition(partition)`, stamps
  /// `meta.routing_epoch` into the header and records the routing identity
  /// so ExecuteRequest can re-aim after a `routing stale` rejection.
  ServerRequest MakeRouted(const MatrixMeta& meta, int partition,
                           BufferWriter* writer);

  /// MakeRouted for a shard-scoped op (built from SpanTargets): marks the
  /// request so ExchangeEach may run the fan-out on the cluster pool.
  ServerRequest MakeShardRequest(const MatrixMeta& meta, int partition,
                                 BufferWriter* writer);

  /// Runs the filter chain over `req->payload` per this client's
  /// FilterConfig, filling `wire`/`wire_mask`/`estats`. With
  /// `force_key_install` the key-cache filter re-sends the key list verbatim
  /// even on a client-side cache hit (the keycache-miss recovery path).
  /// Idempotent: resets the wire view first, so re-encoding is safe.
  void EncodeRequest(ServerRequest* req, bool force_key_install);

  /// Assigns each request its RpcHeader (client id + next per-server seq)
  /// and runs EncodeRequest on it. Must run on the issuing thread, in
  /// program order — the keycache install/ref decisions (client-side state)
  /// stay deterministic, and with them the wire bytes the benches pin.
  void StampRequests(std::span<ServerRequest> requests);

  /// Drives one stamped request through fault injection and the bounded
  /// retry loop (same seq, incremented attempt). Safe on any thread.
  /// Mutable: a keycache miss re-encodes the request in place (same seq,
  /// key list forced verbatim) and re-drives it without consuming an
  /// attempt.
  ExchangeOutcome ExecuteRequest(ServerRequest& request);

  /// Executes all requests — inline, or on the cluster pool for a
  /// shard-scoped fan-out (see the header comment) — then records every
  /// success into `traffic` in request order and appends each request's
  /// outcome to `out`. Its scratch is per thread and must not be re-entered
  /// (checked).
  void ExchangeEach(TaskTraffic* traffic, std::span<ServerRequest> requests,
                    std::vector<Result<PsServer::HandleResult>>* out);

  /// ExchangeEach, failing with the first failure in request order.
  Result<std::vector<PsServer::HandleResult>> ExchangeAll(
      TaskTraffic* traffic, std::vector<ServerRequest> requests);

  /// One row's share of a row op on one server: columns [lo, hi) of a
  /// window, or positions [lo, hi) of the row's index list.
  struct RowPart {
    uint32_t item = 0;  ///< the row's position in the op
    int server = -1;
    /// Splits requests within a server: partition + 1 for a piece split at
    /// partition boundaries, 0 for whole slices, hot traffic and re-planned
    /// pieces.
    uint32_t group = 0;
    bool index_run = false;    ///< [lo, hi) indexes the row's index list
    bool whole_slice = false;  ///< the server's whole slice (the all kind)
    bool hot = false;          ///< hot-tier traffic at the row's hash home
    uint64_t lo = 0;
    uint64_t hi = 0;
  };

  /// A ReadRows / WriteRows / ServingPull op being planned and exchanged.
  /// One per thread, leased for the op: its buffers keep their capacity
  /// across ops.
  struct RowOp;

  /// Splits window [lo, hi) of row `item` (columns of `part`) at partition
  /// boundaries — or, with `by_server`, at server spans — onto `out`.
  static void SplitWindow(const ColumnPartitioner& part, uint32_t item,
                          uint64_t lo, uint64_t hi, bool by_server,
                          bool whole_slice, std::vector<RowPart>* out);
  /// The index-list analog: positions [lo, hi) of the sorted `idx`.
  static void SplitIndices(const ColumnPartitioner& part, uint32_t item,
                           const uint64_t* idx, size_t lo, size_t hi,
                           bool by_server, std::vector<RowPart>* out);

  /// The hash home of a hot row over the active servers: every server holds
  /// the replica, and hashing spreads refresh and hot-push load.
  int HotHome(RowRef ref);

  /// Serializes one request (`parts`, all bound for one server) into the
  /// buffers of `reuse`, a request of an earlier op.
  ServerRequest EncodeRowRequest(const RowOp& op, const RowPart* parts,
                                 size_t n, ServerRequest reuse);

  /// Exchanges `op`'s planned pieces: one request per (server, group),
  /// re-planning the pieces of any request a migration bounced from fresh
  /// metas. Leaves the responses in `op->results` and records which pieces
  /// each answers in `op->answered`.
  Status ExchangeRows(TaskTraffic* traffic, RowOp* op);

  /// Issues a planned read or serving pull through ExchangeRows and fills
  /// `out` (shaped per row) from the responses; `warm` flags the rows whose
  /// values then refresh the hot-row cache. Completes at once when there is
  /// nothing to send.
  PsFuture<RowBlock> SubmitReads(RowOp* op, RowBlock out,
                                 std::vector<uint8_t> warm);

  /// Checks, places and serializes a ColumnOps or Aggregate request: one
  /// shard-scoped request per server of the placement, or nullopt when the
  /// anchors are not co-located and the entries must relay. Zip entries
  /// without a common placement fail with FailedPrecondition.
  template <typename Entry>
  Result<std::optional<std::vector<ServerRequest>>> ColumnRequests(
      PsOpCode op, const std::vector<Entry>& entries);

  /// Runs non-co-located entries on the client: a single built-in entry
  /// pulls its sources, computes and writes dst back; several run one by
  /// one through ColumnOpsAsync.
  Result<Ack> ColumnOpsRelay(const std::vector<ColumnOpEntry>& entries);
  /// Aggregate counterpart: a non-co-located dot pulls both rows.
  Result<std::vector<AggregateValue>> AggregateRelay(
      const std::vector<AggregateEntry>& entries);

  PsMaster* master_;
  PsClientOptions options_;
  /// Resolved filter chain config (options_.filters or ClusterSpec::filters).
  FilterConfig filters_;
  FilterChain chain_;
  /// Client-side mirror of each server's key-set cache; epoch-synced with
  /// the hotspot replica epoch so invalidation piggybacks on recovery.
  ClientKeyCache keycache_;
  int client_id_;  ///< unique per client (PsMaster::AllocateClientId)
  /// Next sequence number per server, starting at 1 (0 = never sent).
  std::unique_ptr<std::atomic<uint64_t>[]> next_seq_;
  /// Leader/follower bookkeeping: per issuing context (its TrafficScope
  /// record; nullptr = the coordinator), the ops issued and not yet
  /// settled. Touched only in caller program order — issue at Submit,
  /// retire at settlement — so classification, and with it virtual time,
  /// is deterministic. A slot whose count drops to zero is reused by the
  /// next context, so an op allocates nothing here.
  struct WindowSlot {
    const void* ctx = nullptr;
    uint32_t outstanding = 0;
  };
  std::mutex window_mu_;
  std::vector<WindowSlot> window_;
  /// Per-server tables of settled ops' traffic records, cleared, for Issue
  /// to hand to the next op (guarded by window_mu_).
  std::vector<std::vector<TaskTraffic::PerServer>> spare_servers_;
  /// Bounded-staleness copies of the hot rows, warmed by the
  /// HotspotManager at every replica sync.
  HotRowCache cache_;
  /// Per-opcode latency histograms (index kNumPsOpCodes = unknown opcode),
  /// resolved once at construction so the per-exchange cost is a direct
  /// Histogram::Record — no registry lock or string lookup on the hot path.
  /// Pointers survive MetricsRegistry::Reset (see GetOrCreateHistogram).
  std::vector<Histogram*> exchange_us_hists_;
  Histogram* retries_hist_ = nullptr;
  Histogram* backoff_hist_ = nullptr;
};

}  // namespace ps2
