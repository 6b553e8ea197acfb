#pragma once

// Shared types of the parameter-server module.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ps/partitioner.h"

namespace ps2 {

/// \brief Storage layout of a matrix on the servers.
enum class MatrixStorage : uint8_t {
  kDense = 0,   ///< contiguous doubles per (row, range)
  kSparse = 1,  ///< hash map per row; for very high-dim rarely-touched rows
};

/// \brief Metadata of a distributed matrix (a group of co-located DCVs).
struct MatrixMeta {
  int id = -1;
  std::string name;
  uint64_t dim = 0;        ///< columns (feature dimension)
  uint32_t num_rows = 0;   ///< reserved rows; `derive` hands these out
  MatrixStorage storage = MatrixStorage::kDense;
  ColumnPartitioner partitioner;
  /// Routing-table version this partitioner snapshot belongs to. Clients
  /// stamp it into RpcHeader::routing_epoch so a meta fetched before a
  /// migration commit is rejected (and refetched) instead of silently
  /// routing to the old owner. 0 until the first membership change.
  uint64_t routing_epoch = 0;
};

/// The published metas of a batch of rows (PsMaster::GetMetas): one
/// pointer per row, all kept alive by a single shared pin however long the
/// batch is held, across later routing commits and frees. Rows of one
/// matrix point at the same meta.
struct MetaBatch {
  std::shared_ptr<const void> pin;
  std::vector<const MatrixMeta*> metas;

  const MatrixMeta& operator[](size_t i) const { return *metas[i]; }
  /// An owning handle on row i's meta, valid after the batch is gone.
  std::shared_ptr<const MatrixMeta> Hold(size_t i) const {
    return std::shared_ptr<const MatrixMeta>(pin, metas[i]);
  }
};

/// Every matrix's published meta, by id (null for a free id).
using MetaTable = std::vector<std::shared_ptr<const MatrixMeta>>;

/// \brief A half-open column window [begin, end) of a row.
///
/// The default-constructed range means "the whole row" — the row's dimension
/// is substituted at the call site via Resolve(). This replaces the old
/// `PsClient::kWholeRow = ~0ULL` sentinel and the loose `(begin, end)`
/// argument pairs.
struct ColRange {
  constexpr ColRange() = default;  ///< whole row
  constexpr ColRange(uint64_t b, uint64_t e) : begin(b), end(e), whole(false) {}

  static constexpr ColRange All() { return ColRange(); }
  static constexpr ColRange Of(uint64_t begin, uint64_t end) {
    return ColRange(begin, end);
  }

  /// Concrete [begin, end) for a row of `dim` columns.
  constexpr ColRange Resolve(uint64_t dim) const {
    return whole ? ColRange(0, dim) : *this;
  }

  constexpr uint64_t width() const { return end - begin; }

  uint64_t begin = 0;
  uint64_t end = 0;
  bool whole = true;
};

/// \brief Identifies one row (one DCV) of a distributed matrix.
struct RowRef {
  int matrix_id = -1;
  uint32_t row = 0;

  bool operator==(const RowRef& other) const {
    return matrix_id == other.matrix_id && row == other.row;
  }
};

/// \brief Entry kinds of a kColumnOps request (paper Table 1 column access,
/// mutating). The kind fixes the operand tuple: a built-in element-wise kind
/// carries dst, NumSources(kind) sources and an f64 scalar; kZip carries a
/// udf id, k and k rows.
enum class ColOpKind : uint8_t {
  kAdd = 0,    ///< dst = a + b
  kSub = 1,    ///< dst = a - b
  kMul = 2,    ///< dst = a * b
  kDiv = 3,    ///< dst = a / b   (b==0 -> 0)
  kCopy = 4,   ///< dst = a
  kAxpy = 5,   ///< dst += scalar * a
  kFill = 6,   ///< dst = scalar
  kScale = 7,  ///< dst *= scalar
  kZip = 8,    ///< registered mutating UDF over k co-located rows
};

/// Sources a built-in ColOpKind reads besides dst (0 for zip).
constexpr int NumSources(ColOpKind kind) {
  return kind <= ColOpKind::kDiv ? 2 : kind <= ColOpKind::kAxpy ? 1 : 0;
}

/// \brief Entry kinds of a kAggregate request (read-only). The kind fixes
/// the operand tuple: one row for sum / nnz / norm2 / max (paper Table 1 row
/// aggregates), two for dot, and udf, k, k rows for zip-aggregate.
enum class AggKind : uint8_t {
  kSum = 0,
  kNnz = 1,
  kNorm2Squared = 2,
  kMax = 3,
  kDot = 4,           ///< partial dot product of two rows
  kZipAggregate = 5,  ///< registered read-only UDF over k co-located rows
};

/// \brief Wire opcodes understood by PsServer::Handle.
enum class PsOpCode : uint8_t {
  kReadRows = 0,    ///< runs of (selector, rows): row values (paper pull)
  kWriteRows = 1,   ///< runs of (selector, per-row body + values) (push)
  kColumnOps = 2,   ///< batched element-wise ops and zips (mutating)
  kAggregate = 3,   ///< batched row aggregates, dots, zip-aggregates
  kMatrixInit = 4,  ///< hash-random init of whole-matrix row ranges
  // Hot-parameter management (DESIGN.md §5d).
  kHotSetUpdate = 5,  ///< master installs the replicated hot-row set
  kReplicaSync = 6,   ///< collect pending deltas / install fresh values
  // Online serving tier (DESIGN.md §10).
  kServingPull = 7,  ///< batched read from a published snapshot epoch
  // Consistency controller (DESIGN.md §11).
  kClockAdvance = 8,  ///< worker advances its clock in the server's vector
  // Elastic membership / online resharding (DESIGN.md §12).
  kRangeExtract = 9,    ///< read one matrix's column range off the old owner
  kRangeMigrate = 10,   ///< stage an extracted range on the new owner
  kRoutingUpdate = 11,  ///< fence / commit staged ranges / bump routing epoch
};

/// Stable short name of an opcode for metric tags and trace spans
/// (`ps.server.handle_us{op=read_rows}`). Returns "unknown" for values
/// outside the enum rather than crashing on a corrupted wire byte.
/// kColumnOps keeps the pre-batching name "column_op" so the metric and
/// span series stay continuous (it now also counts zips).
constexpr const char* PsOpCodeName(PsOpCode op) {
  switch (op) {
    case PsOpCode::kReadRows: return "read_rows";
    case PsOpCode::kWriteRows: return "write_rows";
    case PsOpCode::kColumnOps: return "column_op";
    case PsOpCode::kAggregate: return "aggregate";
    case PsOpCode::kMatrixInit: return "matrix_init";
    case PsOpCode::kHotSetUpdate: return "hot_set_update";
    case PsOpCode::kReplicaSync: return "replica_sync";
    case PsOpCode::kServingPull: return "serving_pull";
    case PsOpCode::kClockAdvance: return "clock_advance";
    case PsOpCode::kRangeExtract: return "range_extract";
    case PsOpCode::kRangeMigrate: return "range_migrate";
    case PsOpCode::kRoutingUpdate: return "routing_update";
  }
  return "unknown";
}

/// Number of distinct PsOpCode values (for per-opcode metric tables).
constexpr int kNumPsOpCodes = 12;

/// True for opcodes whose handlers mutate server state. Retrying one of
/// these after an ambiguous failure (a lost *response*) would double-apply
/// without the per-client sequence-number dedup in PsServer — read-only
/// opcodes are trivially idempotent and skip the dedup table.
constexpr bool IsMutatingOpcode(PsOpCode op) {
  switch (op) {
    case PsOpCode::kWriteRows:
    case PsOpCode::kColumnOps:
    case PsOpCode::kMatrixInit:
    case PsOpCode::kHotSetUpdate:
    case PsOpCode::kReplicaSync:
    // Clock advances mutate the server's worker-clock vector. The handler is
    // a max-merge (idempotent), but routing them through the dedup table
    // keeps the retry accounting uniform with the other mutations.
    case PsOpCode::kClockAdvance:
    // Staging a migrated range overwrites the staging slot (idempotent), and
    // routing updates are epoch-guarded, but both ride the dedup table so a
    // replayed commit after a lost response acks instead of re-running.
    case PsOpCode::kRangeMigrate:
    case PsOpCode::kRoutingUpdate:
      return true;
    case PsOpCode::kReadRows:
    case PsOpCode::kAggregate:
    case PsOpCode::kServingPull:
    case PsOpCode::kRangeExtract:
      return false;
  }
  return false;
}

/// \brief Which columns of each row a kReadRows / kWriteRows run addresses
/// (DESIGN.md §5b). On the wire a run starts with a selector tag byte: the
/// kind in the low two bits, plus the kRowSelector* flag bits. A tag with
/// any other bit set, or kind 3, is rejected.
enum class RowSelectorKind : uint8_t {
  kAll = 0,      ///< the server's whole slice; a write states its width
  kRange = 1,    ///< body: begin, n — columns [begin, begin + n)
  kIndices = 2,  ///< body: n, then n delta-varint columns
};
constexpr uint8_t kRowSelectorKindMask = 0x03;
/// Values travel as zigzag varints of llround(value) instead of raw f64s:
/// PS2's message compression for integer count matrices (LDA).
constexpr uint8_t kRowSelectorIntValues = 0x04;
/// kWriteRows only: add the deltas into the row's hot replica's pending
/// buffer (DESIGN.md §5d) instead of the primary shard.
constexpr uint8_t kRowSelectorReplica = 0x08;

/// True for the membership/resharding control plane (DESIGN.md §12). These
/// opcodes must keep flowing while a server is fenced or decommissioned —
/// they are exactly what un-fences it — so PsServer's routing-staleness
/// check exempts them, and PsClient never re-routes them.
constexpr bool IsMigrationControlOpcode(PsOpCode op) {
  return op == PsOpCode::kRangeExtract || op == PsOpCode::kRangeMigrate ||
         op == PsOpCode::kRoutingUpdate;
}

/// Matches PsServer's routing-staleness rejection ("routing stale (fenced)",
/// "... (decommissioned)", "... (epoch)", optionally suffixed " (applied)"
/// when the mutation in question already executed on the rejecting server).
/// Same FailedPrecondition refetch idiom as IsKeyCacheMiss (net/filters.h).
inline bool IsRoutingStale(const Status& status) {
  return status.IsFailedPrecondition() &&
         status.message().rfind("routing stale", 0) == 0;
}

/// \brief Per-message identity riding the RPC framing (DESIGN.md §6).
///
/// Every data-plane request carries (client id, per-client sequence number,
/// attempt). The pair (client_id, seq) names one *logical* operation: a
/// retried message reuses the seq of the original so the server's dedup
/// table can recognize (and ack without re-applying) a mutation whose first
/// response was lost. The fields travel in the fixed Message::kHeaderBytes
/// framing (the correlation-id slot), not in the payload, so byte accounting
/// is unchanged. client_id < 0 marks untracked control-plane traffic
/// (master/hotspot exchanges): no fault injection, no dedup.
struct RpcHeader {
  int client_id = -1;   ///< PsMaster::AllocateClientId(); -1 = untracked
  uint64_t seq = 0;     ///< per-(client, server) monotonic, starting at 1
  uint32_t attempt = 1; ///< 1 = first try; >1 = retry of the same seq
  /// 1 + the routing-table version the sender planned this request against
  /// (DESIGN.md §12). 0 = unstamped (clock broadcasts, control legs); the
  /// +1 keeps "planned against the initial version-0 table" distinguishable
  /// from "unstamped", so the FIRST migration can bounce in-flight requests
  /// too. A server rejects a stamp at or below its own version with the
  /// `routing stale` FailedPrecondition refetch protocol. Rides the fixed
  /// Message::kHeaderBytes framing, so wire byte accounting is unchanged.
  uint64_t routing_epoch = 0;

  bool tracked() const { return client_id >= 0; }
};

}  // namespace ps2
