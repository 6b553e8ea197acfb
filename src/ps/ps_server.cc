#include "ps/ps_server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "linalg/dense_vector.h"
#include "obs/trace.h"

namespace ps2 {

namespace {

// Precomputed per-opcode histogram names (building a tagged name allocates;
// Handle is the hottest function in the tree).
const std::string& HandleUsName(PsOpCode op) {
  static const auto* names = [] {
    auto* n = new std::array<std::string, kNumPsOpCodes + 1>;
    for (int i = 0; i < kNumPsOpCodes; ++i) {
      (*n)[i] = TaggedName("ps.server.handle_us",
                           {{"op", PsOpCodeName(static_cast<PsOpCode>(i))}});
    }
    (*n)[kNumPsOpCodes] =
        TaggedName("ps.server.handle_us", {{"op", "unknown"}});
    return n;
  }();
  const int i = static_cast<int>(op);
  return (*names)[i >= 0 && i < kNumPsOpCodes ? i : kNumPsOpCodes];
}

/// One (matrix, row) operand: two varints. An id or row too wide for
/// RowRef is rejected rather than truncated onto another matrix or row.
Result<RowRef> ReadRow(BufferReader* in) {
  PS2_ASSIGN_OR_RETURN(uint64_t m, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t r, in->ReadVarint());
  if (m > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::NotFound("matrix not found on server");
  }
  if (r > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange("row out of range");
  }
  return RowRef{static_cast<int>(m), static_cast<uint32_t>(r)};
}

/// Decodes `n` delta-varint keys into out[0, n) and rejects the list if any
/// key falls outside [lo, hi). A forged delta can wrap past 2^64, so every
/// key is checked, not only the first and last.
Status ReadKeysInRange(BufferReader* in, uint64_t n, uint64_t lo, uint64_t hi,
                       const char* out_of_range, uint64_t* out) {
  PS2_RETURN_NOT_OK(in->ReadDeltaKeys(out, n));
  for (uint64_t i = 0; i < n; ++i) {
    if (out[i] < lo || out[i] >= hi) return Status::OutOfRange(out_of_range);
  }
  return Status::OK();
}

/// Sparse (column, value) entries, flat: the bodies of index writes and of
/// migrated sparse rows.
struct SparseEntries {
  std::vector<uint64_t> keys;
  std::vector<double> values;
};

/// Appends one sparse body — `n` delta-varint keys, then their `n` values —
/// to `out`, range-checking every key against [lo, hi). The caller applies
/// nothing until the whole request has decoded, so a truncated or
/// out-of-range body changes nothing.
Status ReadSparseEntries(BufferReader* in, uint64_t n, uint64_t lo,
                         uint64_t hi, bool int_values,
                         const char* out_of_range, SparseEntries* out) {
  const size_t at = out->keys.size();
  out->keys.resize(at + n);
  PS2_RETURN_NOT_OK(
      ReadKeysInRange(in, n, lo, hi, out_of_range, out->keys.data() + at));
  out->values.resize(at + n);
  return in->ReadValues(out->values.data() + at, n, int_values);
}

/// The decoded selector tag of a kReadRows / kWriteRows run.
struct SelectorTag {
  RowSelectorKind kind = RowSelectorKind::kAll;
  bool int_values = false;
  bool replica = false;
};

Result<SelectorTag> ReadSelectorTag(BufferReader* in) {
  PS2_ASSIGN_OR_RETURN(uint8_t tag, in->ReadU8());
  const uint8_t kind = tag & kRowSelectorKindMask;
  const uint8_t known =
      kRowSelectorKindMask | kRowSelectorIntValues | kRowSelectorReplica;
  if ((tag & ~known) != 0 ||
      kind > static_cast<uint8_t>(RowSelectorKind::kIndices)) {
    return Status::InvalidArgument("unknown row selector");
  }
  SelectorTag out;
  out.kind = static_cast<RowSelectorKind>(kind);
  out.int_values = (tag & kRowSelectorIntValues) != 0;
  out.replica = (tag & kRowSelectorReplica) != 0;
  return out;
}

}  // namespace

uint64_t ApplyColumnOp(ColOpKind kind, double* dst, const double* a,
                       const double* b, double scalar, size_t n) {
  switch (kind) {
    case ColOpKind::kAdd: return kernels::Add(dst, a, b, n);
    case ColOpKind::kSub: return kernels::Sub(dst, a, b, n);
    case ColOpKind::kMul: return kernels::Mul(dst, a, b, n);
    case ColOpKind::kDiv: return kernels::Div(dst, a, b, n);
    case ColOpKind::kCopy: return kernels::Copy(dst, a, n);
    case ColOpKind::kAxpy: return kernels::Axpy(dst, a, scalar, n);
    case ColOpKind::kFill: return kernels::Fill(dst, scalar, n);
    case ColOpKind::kScale: return kernels::Scale(dst, scalar, n);
    case ColOpKind::kZip: break;
  }
  return 0;
}

// ---------------------------------------------------------------- UdfRegistry

int UdfRegistry::RegisterZip(ZipFn fn, size_t arity) {
  std::lock_guard<std::mutex> lock(mu_);
  zip_fns_.push_back({std::move(fn), arity});
  return static_cast<int>(zip_fns_.size()) - 1;
}

int UdfRegistry::RegisterZipAggregate(ZipAggFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  zip_agg_fns_.push_back(std::move(fn));
  return static_cast<int>(zip_agg_fns_.size()) - 1;
}

const ZipUdf* UdfRegistry::GetZip(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(zip_fns_.size())) return nullptr;
  return &zip_fns_[id];
}

const ZipAggFn* UdfRegistry::GetZipAggregate(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(zip_agg_fns_.size())) return nullptr;
  return &zip_agg_fns_[id];
}

// ------------------------------------------------------------------- PsServer

Status PsServer::CreateMatrixShard(const MatrixMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (meta.id < 0) return Status::InvalidArgument("negative matrix id");
  if (ShardOf(meta.id) != nullptr) {
    return Status::AlreadyExists("matrix shard already exists on server");
  }
  // This server's slice is the union span of its assigned partitions (block
  // assignment keeps them contiguous — ps/partitioner.h).
  const ColumnPartitioner& part = meta.partitioner;
  uint64_t begin = 0, end = 0;
  if (!part.ServerSpan(id_, &begin, &end)) {
    return Status::InvalidArgument("server not covered by partitioner");
  }
  Shard shard;
  shard.meta = meta;
  shard.begin = begin;
  shard.end = end;
  if (shard.dense()) {
    shard.dense_rows.assign(meta.num_rows,
                            std::vector<double>(shard.width(), 0.0));
  } else {
    shard.sparse_rows.assign(meta.num_rows, {});
  }
  matrix_id_limit_ = std::max(matrix_id_limit_, meta.id + int64_t{1});
  TouchLayoutLocked(PutShardLocked(std::move(shard)));
  return Status::OK();
}

Status PsServer::FreeMatrixShard(int matrix_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ShardOf(matrix_id) == nullptr) {
    return Status::NotFound("matrix shard not found");
  }
  shards_[static_cast<size_t>(matrix_id)].reset();
  return Status::OK();
}

bool PsServer::HasMatrix(int matrix_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ShardOf(matrix_id) != nullptr;
}

void PsServer::AdmitMatrixIds(int limit) {
  std::lock_guard<std::mutex> lock(mu_);
  matrix_id_limit_ = std::max<int64_t>(matrix_id_limit_, limit);
}

PsServer::Shard* PsServer::ShardOf(uint64_t matrix_id) const {
  return matrix_id < shards_.size() ? shards_[matrix_id].get() : nullptr;
}

PsServer::Shard* PsServer::PutShardLocked(Shard shard) {
  const int id = shard.meta.id;
  PS2_CHECK(id >= 0 && id < matrix_id_limit_) << "matrix id not admitted";
  const auto slot = static_cast<size_t>(id);
  if (slot >= shards_.size()) shards_.resize(slot + 1);
  shards_[slot] = std::make_unique<Shard>(std::move(shard));
  return shards_[slot].get();
}

void PsServer::FenceForMigration() {
  std::lock_guard<std::mutex> lock(mu_);
  fenced_ = true;
}

void PsServer::SetRoutingEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch > routing_epoch_) routing_epoch_ = epoch;
}

void PsServer::Decommission(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  decommissioned_ = true;
  fenced_ = false;
  if (epoch > routing_epoch_) routing_epoch_ = epoch;
  // Shard contents were migrated away; drop them (the dedup table stays —
  // it answers applied-probes for mutations this server absorbed before the
  // migration, DESIGN.md §12).
  shards_.clear();
  replicas_.clear();
  snapshots_.clear();
  staged_.clear();
}

bool PsServer::fenced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_;
}

bool PsServer::decommissioned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decommissioned_;
}

uint64_t PsServer::routing_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return routing_epoch_;
}

void PsServer::ResizeShardLocked(Shard* shard, uint64_t new_begin,
                                 uint64_t new_end, uint64_t epoch) {
  const uint64_t old_begin = shard->begin;
  const uint64_t old_end = shard->end;
  const uint64_t n_rows = shard->meta.num_rows;
  if (shard->dense()) {
    const uint64_t new_width = new_end - new_begin;
    const uint64_t lo = std::max(old_begin, new_begin);
    const uint64_t hi = std::min(old_end, new_end);
    for (uint64_t r = 0; r < n_rows; ++r) {
      std::vector<double> row(new_width, 0.0);
      if (lo < hi) {
        const double* src = shard->dense_rows[r].data() + (lo - old_begin);
        std::copy(src, src + (hi - lo), row.data() + (lo - new_begin));
      }
      shard->dense_rows[r] = std::move(row);
    }
  } else {
    for (uint64_t r = 0; r < n_rows; ++r) {
      auto& map = shard->sparse_rows[r];
      map.erase(map.begin(), map.lower_bound(new_begin));
      map.erase(map.lower_bound(new_end), map.end());
    }
  }
  shard->begin = new_begin;
  shard->end = new_end;
  // Fill the non-overlap from this epoch's staged ranges (installed by
  // kRangeMigrate; the commit validated coverage before calling here).
  const int matrix_id = shard->meta.id;
  for (auto& [key, staged] : staged_) {
    if (std::get<0>(key) != epoch || std::get<1>(key) != matrix_id) continue;
    const uint64_t lo = std::max(staged.begin, new_begin);
    const uint64_t hi = std::min(staged.end, new_end);
    if (lo >= hi) continue;
    for (uint64_t r = 0; r < n_rows && r < staged.num_rows; ++r) {
      if (shard->dense()) {
        const double* src = staged.dense_rows[r].data() + (lo - staged.begin);
        std::copy(src, src + (hi - lo),
                  shard->dense_rows[r].data() + (lo - new_begin));
      } else {
        const auto& src = staged.sparse_rows[r];
        for (auto it = src.lower_bound(lo); it != src.end() && it->first < hi;
             ++it) {
          shard->sparse_rows[r][it->first] = it->second;
        }
      }
    }
  }
  // The row layout changed under every row: stamp them all so the next
  // snapshot publish re-copies, and so serving never aliases stale buffers.
  TouchLayoutLocked(shard);
}

Result<bool> PsServer::ReconcileShardBounds(const MatrixMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t begin = 0, end = 0;
  const bool covered = meta.partitioner.ServerSpan(id_, &begin, &end);
  if (meta.id < 0) return Status::InvalidArgument("negative matrix id");
  Shard* existing = ShardOf(meta.id);
  if (!covered) {
    if (existing == nullptr) return false;
    shards_[static_cast<size_t>(meta.id)].reset();
    return true;
  }
  if (existing == nullptr) {
    Shard shard;
    shard.meta = meta;
    shard.begin = begin;
    shard.end = end;
    if (shard.dense()) {
      shard.dense_rows.assign(meta.num_rows,
                              std::vector<double>(shard.width(), 0.0));
    } else {
      shard.sparse_rows.assign(meta.num_rows, {});
    }
    matrix_id_limit_ = std::max(matrix_id_limit_, meta.id + int64_t{1});
    TouchLayoutLocked(PutShardLocked(std::move(shard)));
    return true;
  }
  Shard& shard = *existing;
  shard.meta = meta;
  if (shard.begin == begin && shard.end == end) return false;
  // Epoch 0 never matches a staged key, so this is a pure overlap-preserving
  // resize: the non-overlap restores as zeros, the standard post-checkpoint
  // loss semantics.
  ResizeShardLocked(&shard, begin, end, /*epoch=*/0);
  return true;
}

void PsServer::SetMetrics(MetricsRegistry* metrics) {
  // Called once at wiring time (PsMaster ctor), before any data-plane
  // traffic — the pointer caches are never written concurrently with Handle.
  handle_us_hists_.resize(kNumPsOpCodes + 1);
  for (int i = 0; i <= kNumPsOpCodes; ++i) {
    handle_us_hists_[i] = metrics->GetOrCreateHistogram(HandleUsName(
        static_cast<PsOpCode>(i < kNumPsOpCodes ? i : 0xff)));
  }
  queue_depth_hist_ = metrics->GetOrCreateHistogram(
      ServerTaggedName("ps.server.queue_depth", id_));
  metrics_.store(metrics, std::memory_order_release);
}

void PsServer::EnableAccessStats(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_capacity_ = capacity;
  stats_ = capacity > 0 ? std::make_unique<AccessStats>(capacity) : nullptr;
}

std::vector<SpaceSavingSketch::Entry> PsServer::TopPulledRows(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_ == nullptr) return {};
  return stats_->pulls.TopK(k);
}

void PsServer::DropStaleReplicaPendings(uint64_t current_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, replica] : replicas_) {
    if (replica.version < current_epoch) replica.pending.clear();
  }
}

bool PsServer::HasReplica(RowRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.count({ref.matrix_id, ref.row}) > 0;
}

Result<PsServer::ReplicaSnapshot> PsServer::DebugReplica(RowRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replicas_.find({ref.matrix_id, ref.row});
  if (it == replicas_.end()) return Status::NotFound("no replica on server");
  ReplicaSnapshot snap;
  snap.values = it->second.values;
  if (it->second.version == 0) snap.values.assign(it->second.dim, 0.0);
  snap.pending = it->second.pending;
  snap.version = it->second.version;
  return snap;
}

void PsServer::TouchRowLocked(Shard* shard, uint64_t row) {
  const uint64_t v = ++mutation_clock_;
  shard->row_clocks[row] = {v, v};
}

void PsServer::TouchAllRowsLocked() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard == nullptr) continue;
    for (uint64_t r = 0; r < shard->meta.num_rows; ++r) {
      TouchRowLocked(shard.get(), r);
    }
  }
}

void PsServer::TouchChunksLocked(Shard* shard, uint64_t row,
                                 const uint64_t* cols, size_t n) {
  if (shard->chunk_versions.empty()) {
    TouchRowLocked(shard, row);  // never published: no image to patch
    return;
  }
  const uint64_t v = ++mutation_clock_;
  shard->row_clocks[row].version = v;
  uint64_t* chunks = shard->chunk_versions.data() + row * shard->num_chunks();
  for (size_t i = 0; i < n; ++i) {
    chunks[(cols[i] - shard->begin) / kSnapshotChunk] = v;
  }
}

void PsServer::TouchLayoutLocked(Shard* shard) {
  const uint64_t n_rows = shard->meta.num_rows;
  shard->row_clocks.resize(n_rows);
  // A rewrite stamp outranks every chunk stamp, so zeroed chunk clocks are
  // safe: the next publish copies each row whole anyway.
  if (!shard->chunk_versions.empty()) {
    shard->chunk_versions.assign(n_rows * shard->num_chunks(), 0);
  }
  for (uint64_t r = 0; r < n_rows; ++r) TouchRowLocked(shard, r);
}

void PsServer::RecordPull(int matrix_id, uint32_t row) {
  if (stats_ != nullptr) stats_->pulls.Record(RowRef{matrix_id, row});
}

void PsServer::RecordPush(int matrix_id, uint32_t row) {
  if (stats_ != nullptr) stats_->pushes.Record(RowRef{matrix_id, row});
}

PsServer::Replica* PsServer::FindReplica(int matrix_id, uint32_t row) {
  auto it = replicas_.find({matrix_id, row});
  if (it == replicas_.end() || it->second.version == 0) return nullptr;
  return &it->second;
}

Result<const double*> PsServer::ReadRowView(int matrix_id, uint32_t row,
                                            uint64_t begin, uint64_t width) {
  const Shard* shard = ShardOf(matrix_id);
  if (shard != nullptr && row < shard->meta.num_rows && shard->dense() &&
      shard->begin == begin && shard->width() == width) {
    return shard->dense_rows[row].data();
  }
  Replica* replica = FindReplica(matrix_id, row);
  if (replica != nullptr && begin + width <= replica->dim) {
    return replica->values.data() + begin;
  }
  return Status::FailedPrecondition(
      "row is neither a local primary slice nor a replica");
}

Result<PsServer::Shard*> PsServer::FindShard(int matrix_id, uint32_t row) {
  Shard* shard = ShardOf(matrix_id);
  if (shard == nullptr) {
    return Status::NotFound("matrix not found on server");
  }
  if (row >= shard->meta.num_rows) {
    return Status::OutOfRange("row out of range");
  }
  return shard;
}

Result<PsServer::Shard*> PsServer::DenseShard(int matrix_id, uint32_t row) {
  PS2_ASSIGN_OR_RETURN(Shard * shard, FindShard(matrix_id, row));
  if (!shard->dense()) {
    return Status::FailedPrecondition(
        "operation requires dense matrix storage");
  }
  return shard;
}

void PsServer::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
}

void PsServer::Revive() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
}

bool PsServer::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

uint64_t PsServer::dedup_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dedup_hits_;
}

bool PsServer::IsDuplicateLocked(int client_id, uint64_t seq) const {
  auto it = dedup_.find(client_id);
  if (it == dedup_.end()) return false;
  return seq <= it->second.floor || it->second.seen.count(seq) > 0;
}

void PsServer::RecordSeqLocked(int client_id, uint64_t seq) {
  ClientDedup& d = dedup_[client_id];
  if (seq <= d.floor) return;
  if (seq == d.floor + 1 && d.seen.empty()) {
    d.floor = seq;  // in order, nothing pending: the common case
    return;
  }
  d.seen.insert(seq);
  while (!d.seen.empty() && *d.seen.begin() == d.floor + 1) {
    d.floor += 1;
    d.seen.erase(d.seen.begin());
  }
  if (d.seen.size() > kMaxSeenPerClient) {
    // Permanently missing seqs (ops whose every attempt was lost). Jump the
    // floor forward: a duplicate of a skipped seq would be wrongly deduped,
    // but the client already gave up on it after max_attempts.
    d.floor = *d.seen.begin();
    d.seen.erase(d.seen.begin());
    while (!d.seen.empty() && *d.seen.begin() == d.floor + 1) {
      d.floor += 1;
      d.seen.erase(d.seen.begin());
    }
  }
}

void PsServer::SetFilterConfig(const FilterConfig& config) {
  filters_ = config;
}

Result<PsServer::HandleResult> PsServer::Handle(const RpcHeader& header,
                                                const WireFrame& frame) {
  // The opcode is verbatim at payload[0] whatever the filter mask (the
  // chain's prefix rule), so dispatch labels never require a decode.
  const PsOpCode op = frame.payload.empty()
                          ? static_cast<PsOpCode>(0xff)
                          : static_cast<PsOpCode>(frame.payload[0]);
  PS2_TRACE_SPAN("ps.server", PsOpCodeName(op));
  if (metrics_.load(std::memory_order_acquire) == nullptr) {
    Result<HandleResult> result = HandleInternal(header, frame);
    if (result.ok()) EncodeResponse(header, &*result);
    return result;
  }
  // Latency/queue-depth histograms sample 1 in 16 requests per thread: two
  // clock reads plus two histogram records per request measurably slow the
  // hottest loop in the tree, and the distributions converge just as well
  // from a deterministic per-thread 1/16 stride. `active_` still counts every
  // request, so sampled depth readings see the true in-flight population.
  static thread_local uint32_t sample_tick = 0;
  const bool sampled = (sample_tick++ & 15) == 0;
  const int depth = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!sampled) {
    Result<HandleResult> result = HandleInternal(header, frame);
    active_.fetch_sub(1, std::memory_order_relaxed);
    if (result.ok()) EncodeResponse(header, &*result);
    return result;
  }
  // Queue depth = requests in flight on this server the moment this one
  // arrives (including itself). Service time is measured from arrival to
  // return, so it includes the wait for mu_ — i.e. queueing delay, which is
  // exactly the straggler signal we want per opcode.
  const auto start = std::chrono::steady_clock::now();
  Result<HandleResult> result = HandleInternal(header, frame);
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  active_.fetch_sub(1, std::memory_order_relaxed);
  const int i = static_cast<int>(op);
  handle_us_hists_[i >= 0 && i < kNumPsOpCodes ? i : kNumPsOpCodes]
      ->Record(us);
  queue_depth_hist_->Record(static_cast<double>(depth));
  if (result.ok()) EncodeResponse(header, &*result);
  return result;
}

Result<PsServer::HandleResult> PsServer::HandleInternal(
    const RpcHeader& header, const WireFrame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::Unavailable("server is down (injected crash)");
  }
  // Routing staleness (DESIGN.md §12): while fenced or after decommission —
  // and for requests stamped with an out-of-date routing epoch — tracked
  // data-plane traffic is bounced with FailedPrecondition so the client
  // refetches the routing table and re-plans (mirrors the key-cache miss
  // protocol: the seq is NOT consumed). Migration control ops are exempt:
  // they are how the fence is lifted. For mutating requests the rejection
  // carries an applied-probe — whether this (client, seq) already executed
  // here — so a re-routed retry of a lost-response mutation never
  // double-applies on the new owner.
  if (header.tracked() && !frame.payload.empty()) {
    const PsOpCode op = static_cast<PsOpCode>(frame.payload[0]);
    if (!IsMigrationControlOpcode(op)) {
      const char* why = nullptr;
      if (decommissioned_) {
        why = "decommissioned";
      } else if (fenced_) {
        why = "fenced";
      } else if (header.routing_epoch != 0 &&
                 header.routing_epoch <= routing_epoch_) {
        // Stamps carry version + 1, so `<=` means "planned against a table
        // older than mine" — including requests planned against the initial
        // version-0 table arriving after the first migration committed.
        why = "epoch";
      }
      if (why != nullptr) {
        std::string msg = std::string("routing stale (") + why + ")";
        if (IsMutatingOpcode(op) &&
            IsDuplicateLocked(header.client_id, header.seq)) {
          msg += " (applied)";
        }
        return Status::FailedPrecondition(msg);
      }
    }
  }
  Slice payload = frame.payload;
  std::vector<uint8_t> decoded;  // keeps decoded bytes alive for HandleLocked
  auto decode = [&]() -> Status {
    if (frame.filter_mask == 0) return Status::OK();
    FilterContext ctx;
    ctx.dir = FilterDir::kClientToServer;
    ctx.server_keys = &keycache_;
    PS2_ASSIGN_OR_RETURN(
        decoded, chain_.Decode(payload, frame.filter_mask, /*prefix=*/1, &ctx));
    payload = Slice(decoded);
    return Status::OK();
  };
  if (!header.tracked()) {
    PS2_RETURN_NOT_OK(decode());
    return HandleLocked(header, payload);
  }
  if (payload.empty()) return Status::InvalidArgument("empty request");
  const bool mutating = IsMutatingOpcode(static_cast<PsOpCode>(payload[0]));
  if (mutating && IsDuplicateLocked(header.client_id, header.seq)) {
    // Retry of an already-applied mutation: ack without re-applying — and
    // without decoding, so a replayed request can never re-touch key-cache
    // state. All mutating client ops are ack-parsed, so the empty response
    // is valid.
    dedup_hits_ += 1;
    HandleResult out;
    out.dedup_hit = true;
    return out;
  }
  // A key-cache miss surfaces here as FailedPrecondition: the seq is NOT
  // recorded, so the client's re-encoded retry of the same seq still applies.
  PS2_RETURN_NOT_OK(decode());
  Result<HandleResult> result = HandleLocked(header, payload);
  if (result.ok()) RecordSeqLocked(header.client_id, header.seq);
  return result;
}

void PsServer::EncodeResponse(const RpcHeader& header, HandleResult* out) {
  // Response-side filtering (delta/compress only — key caching is
  // request-side). Untracked traffic (control plane, legacy callers) is
  // never filtered: those callers parse the response directly.
  if (!header.tracked() || out->dedup_hit || out->response.empty()) return;
  const uint8_t want = filters_.bits & (kFilterDelta | kFilterCompress);
  if (want == 0) return;
  FilterContext ctx;
  ctx.dir = FilterDir::kServerToClient;
  EncodedPayload enc = chain_.Encode(Slice(out->response),
                                     out->response_sections, want,
                                     /*prefix=*/0, &ctx);
  if (enc.mask == 0) return;  // nothing transformed or shrank
  out->response_logical_bytes = out->response.size();
  out->response = std::move(enc.wire);
  out->response_mask = enc.mask;
}

Result<PsServer::HandleResult> PsServer::HandleLocked(const RpcHeader& header,
                                                      Slice request) {
  (void)header;
  BufferReader in(request);
  PS2_ASSIGN_OR_RETURN(uint8_t opcode, in.ReadU8());
  switch (static_cast<PsOpCode>(opcode)) {
    case PsOpCode::kReadRows:
      return HandleReadRows(&in);
    case PsOpCode::kWriteRows:
      return HandleWriteRows(&in);
    case PsOpCode::kColumnOps:
      return HandleColumnOps(&in);
    case PsOpCode::kAggregate:
      return HandleAggregate(&in);
    case PsOpCode::kMatrixInit:
      return HandleMatrixInit(&in);
    case PsOpCode::kHotSetUpdate:
      return HandleHotSetUpdate(&in);
    case PsOpCode::kReplicaSync:
      return HandleReplicaSync(&in);
    case PsOpCode::kServingPull:
      return HandleServingPull(&in);
    case PsOpCode::kClockAdvance:
      return HandleClockAdvance(&in);
    case PsOpCode::kRangeExtract:
      return HandleRangeExtract(&in);
    case PsOpCode::kRangeMigrate:
      return HandleRangeMigrate(&in);
    case PsOpCode::kRoutingUpdate:
      return HandleRoutingUpdate(&in);
  }
  return Status::InvalidArgument("unknown opcode");
}

Result<PsServer::HandleResult> PsServer::HandleReadRows(BufferReader* in) {
  // Validate-then-gather: every run's selector, every row's source and every
  // key is decoded and checked first, so the response is sized once and a
  // bad row fails the request before anything is written. A range or index
  // read of a hot row is served by its installed replica, which holds every
  // column (§5d); an all read names this server's own slice and always reads
  // the primary.
  thread_local std::vector<RowRead> reads;
  thread_local std::vector<uint64_t> keys;
  reads.clear();
  keys.clear();
  uint64_t n_values = 0;
  do {
    PS2_ASSIGN_OR_RETURN(SelectorTag sel, ReadSelectorTag(in));
    if (sel.replica) {
      return Status::InvalidArgument("replica flag on a row read");
    }
    uint64_t begin = 0, n = 0;
    // A shared key list is decoded once; its smallest and largest key are
    // checked against each row's bounds.
    const size_t key_begin = keys.size();
    uint64_t key_min = 0, key_max = 0;
    if (sel.kind == RowSelectorKind::kRange) {
      PS2_ASSIGN_OR_RETURN(begin, in->ReadVarint());
      PS2_ASSIGN_OR_RETURN(n, in->ReadVarint());
    } else if (sel.kind == RowSelectorKind::kIndices) {
      PS2_ASSIGN_OR_RETURN(n, in->ReadCount(1));  // index varints
      keys.resize(key_begin + n);
      PS2_RETURN_NOT_OK(in->ReadDeltaKeys(keys.data() + key_begin, n));
      if (n > 0) {
        const auto [lo_it, hi_it] =
            std::minmax_element(keys.begin() + key_begin, keys.end());
        key_min = *lo_it;
        key_max = *hi_it;
      }
    }
    // Each row: (matrix, row) varints.
    PS2_ASSIGN_OR_RETURN(uint64_t n_rows, in->ReadCount(2));
    for (uint64_t i = 0; i < n_rows; ++i) {
      PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
      RecordPull(ref.matrix_id, ref.row);
      RowRead r;
      uint64_t hi = 0;  // the source holds columns [r.base, hi)
      const Replica* replica = sel.kind != RowSelectorKind::kAll
                                   ? FindReplica(ref.matrix_id, ref.row)
                                   : nullptr;
      if (replica != nullptr) {
        r.dense = replica->values.data();
        hi = replica->dim;
      } else {
        PS2_ASSIGN_OR_RETURN(Shard * shard, FindShard(ref.matrix_id, ref.row));
        r.base = shard->begin;
        hi = shard->end;
        if (shard->dense()) {
          r.dense = shard->dense_rows[ref.row].data();
        } else {
          r.sparse = &shard->sparse_rows[ref.row];
        }
      }
      r.n = n;
      r.int_values = sel.int_values;
      switch (sel.kind) {
        case RowSelectorKind::kAll:
          r.begin = r.base;
          r.n = hi - r.base;
          break;
        case RowSelectorKind::kRange:
          if (begin < r.base || begin > hi || n > hi - begin) {
            return Status::OutOfRange("read window outside server range");
          }
          r.begin = begin;
          break;
        case RowSelectorKind::kIndices:
          if (n > 0 && (key_min < r.base || key_max >= hi)) {
            return Status::OutOfRange("read index outside server range");
          }
          r.key_begin = key_begin;
          r.indices = true;
          break;
      }
      reads.push_back(r);
      n_values += r.n;
    }
  } while (!in->AtEnd());

  HandleResult out;
  BufferWriter writer(
      reads.size() * kMaxVarintBytes + n_values * sizeof(double),
      /*sections=*/reads.size());
  WriteRowReads(reads, keys, &writer);
  out.server_ops = n_values;
  out.response_sections = writer.TakeSections();
  out.response = writer.Release();
  return out;
}

void PsServer::WriteRowReads(const std::vector<RowRead>& reads,
                             const std::vector<uint64_t>& keys,
                             BufferWriter* writer) {
  thread_local std::vector<double> values;
  for (const RowRead& r : reads) {
    writer->WriteVarint(r.n);
    if (r.n == 0) continue;
    const uint64_t* k = keys.data() + r.key_begin;
    const double* span = values.data();
    if (r.dense != nullptr && !r.indices) {
      span = r.dense + (r.begin - r.base);
    } else if (r.chunks != nullptr && !r.indices) {
      // A snapshot slice, read whole: chunk by chunk, no gather.
      writer->BeginSection(SectionKind::kF64Values);
      for (uint64_t c = 0; c * kSnapshotChunk < r.n; ++c) {
        writer->WriteF64Span(r.chunks->chunk(c),
                             std::min(kSnapshotChunk,
                                      r.n - c * kSnapshotChunk));
      }
      writer->EndSection();
      continue;
    } else if (r.dense != nullptr) {
      values.resize(r.n);
      for (uint64_t i = 0; i < r.n; ++i) values[i] = r.dense[k[i] - r.base];
      span = values.data();
    } else {
      values.resize(r.n);
      for (uint64_t i = 0; i < r.n; ++i) {
        const uint64_t col = r.indices ? k[i] : r.begin + i;
        if (r.chunks != nullptr) {
          const uint64_t c = col - r.base;
          values[i] = r.chunks->chunk(c / kSnapshotChunk)[c % kSnapshotChunk];
        } else {
          auto it = r.sparse->find(col);
          values[i] = it == r.sparse->end() ? 0.0 : it->second;
        }
      }
      span = values.data();
    }
    writer->WriteValues(span, r.n, r.int_values);
  }
}

Result<PsServer::HandleResult> PsServer::HandleWriteRows(BufferReader* in) {
  // Validate-then-apply: every row is resolved and every body decoded and
  // bounds-checked before the first delta lands, so a bad run anywhere —
  // even the last — fails the request with nothing applied, no row or chunk
  // stamped and no replica's pending buffer touched.
  struct Write {
    Shard* shard;      ///< the primary, or null for a replica write
    Replica* replica;
    RowRef ref;
    uint64_t begin;    ///< kAll / kRange: the first column written
    size_t key_at;     ///< kIndices: the first of its keys in `entries`
    size_t value_at;   ///< the first of its values in `entries`, unless
    const uint8_t* raw;  ///< f64 window values, read in place
    uint64_t n;
    bool indices;
  };
  thread_local std::vector<Write> writes;
  thread_local SparseEntries entries;
  writes.clear();
  entries.keys.clear();
  entries.values.clear();
  do {
    PS2_ASSIGN_OR_RETURN(SelectorTag sel, ReadSelectorTag(in));
    const size_t value_bytes = sel.int_values ? 1 : sizeof(double);
    // Each row: (matrix, row) varints, then at least one body varint.
    PS2_ASSIGN_OR_RETURN(uint64_t n_rows, in->ReadCount(3));
    for (uint64_t i = 0; i < n_rows; ++i) {
      PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
      Write w{};
      w.ref = ref;
      uint64_t lo = 0, hi = 0;  // the columns the target holds
      if (sel.replica) {
        // A designated replica accumulates even before its first install:
        // the next sync folds the pending deltas into the primary either way.
        auto it = replicas_.find({ref.matrix_id, ref.row});
        if (it == replicas_.end()) {
          return Status::FailedPrecondition(
              "hot push to a row without a replica");
        }
        w.replica = &it->second;
        hi = it->second.dim;
      } else {
        PS2_ASSIGN_OR_RETURN(w.shard, FindShard(ref.matrix_id, ref.row));
        lo = w.shard->begin;
        hi = w.shard->end;
      }
      w.value_at = entries.values.size();
      if (sel.kind == RowSelectorKind::kIndices) {
        // Each delta: an index varint plus its value.
        PS2_ASSIGN_OR_RETURN(w.n, in->ReadCount(1 + value_bytes));
        w.indices = true;
        w.key_at = entries.keys.size();
        PS2_RETURN_NOT_OK(ReadSparseEntries(in, w.n, lo, hi, sel.int_values,
                                            "write index outside server range",
                                            &entries));
      } else {
        w.begin = lo;
        if (sel.kind == RowSelectorKind::kRange) {
          PS2_ASSIGN_OR_RETURN(w.begin, in->ReadVarint());
        }
        // Every value takes a byte at least; the exact bound is the read.
        PS2_ASSIGN_OR_RETURN(w.n, in->ReadVarint());
        if (w.begin < lo || w.begin > hi || w.n > hi - w.begin ||
            (sel.kind == RowSelectorKind::kAll && w.n != hi - lo) ||
            w.n > in->remaining()) {
          return Status::OutOfRange("write window outside server range");
        }
        if (!sel.int_values) {
          PS2_ASSIGN_OR_RETURN(Slice raw, in->ReadBytes(w.n * sizeof(double)));
          w.raw = raw.data();
        } else {
          entries.values.resize(w.value_at + w.n);
          PS2_RETURN_NOT_OK(in->ReadValues(entries.values.data() + w.value_at,
                                           w.n, /*ints=*/true));
        }
      }
      writes.push_back(w);
    }
  } while (!in->AtEnd());

  // Index writes to dense rows stamp just the chunks they touch; window
  // writes and sparse-storage writes stamp the whole row.
  HandleResult out;
  for (const Write& w : writes) {
    RecordPush(w.ref.matrix_id, w.ref.row);
    const uint8_t* bytes =
        w.raw != nullptr
            ? w.raw
            : reinterpret_cast<const uint8_t*>(entries.values.data() +
                                               w.value_at);
    auto v = [bytes](uint64_t i) {
      double d;
      std::memcpy(&d, bytes + i * sizeof(double), sizeof(double));
      return d;
    };
    const uint64_t* k = w.indices ? entries.keys.data() + w.key_at : nullptr;
    auto col = [&](uint64_t i) { return k != nullptr ? k[i] : w.begin + i; };
    if (w.replica != nullptr) {
      for (uint64_t i = 0; i < w.n; ++i) {
        if (v(i) != 0.0) w.replica->pending[col(i)] += v(i);
      }
    } else if (w.shard->dense()) {
      double* row = w.shard->dense_rows[w.ref.row].data();
      const uint64_t base = w.shard->begin;
      if (k != nullptr) {
        TouchChunksLocked(w.shard, w.ref.row, k, w.n);
        for (uint64_t i = 0; i < w.n; ++i) row[k[i] - base] += v(i);
      } else {
        TouchRowLocked(w.shard, w.ref.row);
        double* dst = row + (w.begin - base);
        for (uint64_t i = 0; i < w.n; ++i) dst[i] += v(i);
      }
    } else {
      TouchRowLocked(w.shard, w.ref.row);
      auto& map = w.shard->sparse_rows[w.ref.row];
      for (uint64_t i = 0; i < w.n; ++i) {
        if (v(i) != 0.0) map[col(i)] += v(i);
      }
    }
    out.server_ops += w.n;
  }
  return out;
}

Result<std::vector<double*>> PsServer::ZipRows(
    BufferReader* in, uint64_t* width, uint64_t* begin,
    std::vector<ShardRow>* touched) {
  // Each operand: (matrix, row) varints.
  PS2_ASSIGN_OR_RETURN(uint64_t k, in->ReadCount(2));
  if (k == 0) return Status::InvalidArgument("zip needs rows");
  std::vector<double*> rows;
  rows.reserve(k);
  for (uint64_t i = 0; i < k; ++i) {
    PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
    PS2_ASSIGN_OR_RETURN(Shard * shard, DenseShard(ref.matrix_id, ref.row));
    if (i > 0 && (shard->width() != *width || shard->begin != *begin)) {
      return Status::FailedPrecondition(
          "zip operands are not co-located on this server");
    }
    *width = shard->width();
    *begin = shard->begin;
    rows.push_back(shard->dense_rows[ref.row].data());
    if (touched != nullptr) touched->push_back({shard, ref.row});
  }
  return rows;
}

Result<PsServer::HandleResult> PsServer::HandleColumnOps(BufferReader* in) {
  // Validate-then-apply: every entry is decoded and every row pointer,
  // replica view and UDF resolved before any kernel runs, so a bad entry
  // fails the request with nothing applied.
  struct Step {
    ColOpKind kind;
    double* dst = nullptr;
    const double* src[2] = {nullptr, nullptr};
    double scalar = 0.0;
    uint64_t width = 0, begin = 0;
    const ZipFn* zip = nullptr;
    std::vector<double*> zip_rows;
  };
  std::vector<Step> steps;
  std::vector<ShardRow> touched;
  do {
    PS2_ASSIGN_OR_RETURN(uint8_t kind_raw, in->ReadU8());
    if (kind_raw > static_cast<uint8_t>(ColOpKind::kZip)) {
      return Status::InvalidArgument("unknown column op kind");
    }
    const ColOpKind kind = static_cast<ColOpKind>(kind_raw);
    const int n_src = NumSources(kind);
    // A built-in tuple is dst plus its sources as (matrix, row) varints and
    // an f64 scalar; a zip tuple is at least its udf and k varints.
    PS2_ASSIGN_OR_RETURN(
        uint64_t n, in->ReadCount(kind == ColOpKind::kZip
                                      ? 2
                                      : 2 * (1 + n_src) + sizeof(double)));
    for (uint64_t e = 0; e < n; ++e) {
      Step& step = steps.emplace_back();
      step.kind = kind;
      if (kind == ColOpKind::kZip) {
        PS2_ASSIGN_OR_RETURN(uint64_t udf_id, in->ReadVarint());
        // Every operand is handed to the UDF as mutable — conservatively
        // treat all of them as written for snapshot copy-on-publish.
        PS2_ASSIGN_OR_RETURN(step.zip_rows,
                             ZipRows(in, &step.width, &step.begin, &touched));
        const ZipUdf* udf = udfs_->GetZip(static_cast<int>(udf_id));
        if (udf == nullptr) {
          return Status::NotFound("zip udf not registered");
        }
        if (udf->arity != 0 && udf->arity != step.zip_rows.size()) {
          return Status::InvalidArgument(
              "zip operand count does not match the udf's arity");
        }
        step.zip = &udf->fn;
        continue;
      }
      RowRef rows[3];  // dst, then the sources
      for (int i = 0; i <= n_src; ++i) {
        PS2_ASSIGN_OR_RETURN(rows[i], ReadRow(in));
      }
      PS2_ASSIGN_OR_RETURN(step.scalar, in->ReadF64());
      PS2_ASSIGN_OR_RETURN(Shard * dst, DenseShard(rows[0].matrix_id,
                                                   rows[0].row));
      step.dst = dst->dense_rows[rows[0].row].data();
      step.width = dst->width();
      step.begin = dst->begin;
      // A source may be a primary slice co-located with dst, or an installed
      // replica of a hot row (which reads as co-located everywhere, §5d).
      for (int i = 0; i < n_src; ++i) {
        PS2_ASSIGN_OR_RETURN(step.src[i],
                             ReadRowView(rows[i + 1].matrix_id,
                                         rows[i + 1].row, step.begin,
                                         step.width));
      }
      touched.push_back({dst, rows[0].row});
    }
  } while (!in->AtEnd());

  for (const ShardRow& t : touched) TouchRowLocked(t.shard, t.row);
  HandleResult out;
  for (const Step& s : steps) {
    out.server_ops +=
        s.zip != nullptr
            ? (*s.zip)(s.zip_rows, s.width, s.begin)
            : ApplyColumnOp(s.kind, s.dst, s.src[0], s.src[1], s.scalar,
                            s.width);
  }
  return out;
}

Result<double> PsServer::RowAggregate(int matrix_id, uint32_t row,
                                      AggKind kind, uint64_t* ops) {
  PS2_ASSIGN_OR_RETURN(Shard * shard, FindShard(matrix_id, row));
  if (shard->dense()) {
    // Dense aggregations go through the dispatched kernels (max has no
    // kernel — it stays a scalar scan, it's not on the hot DCV op set).
    const double* data = shard->dense_rows[row].data();
    const size_t width = shard->width();
    *ops += width;
    switch (kind) {
      case AggKind::kSum: return kernels::Sum(data, width);
      case AggKind::kNnz: return static_cast<double>(kernels::Nnz(data, width));
      case AggKind::kNorm2Squared: return kernels::Norm2Sq(data, width);
      default:
        return std::accumulate(
            data, data + width, -std::numeric_limits<double>::infinity(),
            [](double m, double v) { return std::max(m, v); });
    }
  }
  // Sparse rows: zeros contribute nothing to sum/nnz/norm2; for max they
  // contribute only if the row has implicit zeros.
  const auto& map = shard->sparse_rows[row];
  *ops += map.size();
  const bool implicit_zeros = map.size() < shard->width();
  double result = kind != AggKind::kMax || implicit_zeros
                      ? 0.0
                      : -std::numeric_limits<double>::infinity();
  for (const auto& [col, v] : map) {
    switch (kind) {
      case AggKind::kSum: result += v; break;
      case AggKind::kNnz: result += (v != 0.0) ? 1.0 : 0.0; break;
      case AggKind::kNorm2Squared: result += v * v; break;
      default: result = std::max(result, v); break;
    }
  }
  return result;
}

Result<PsServer::HandleResult> PsServer::HandleAggregate(BufferReader* in) {
  // Read-only: one partial per entry, in request order — an f64 for the
  // scalar kinds, a pod vector for zip-aggregate — with no count prefix.
  HandleResult out;
  BufferWriter writer;
  do {
    PS2_ASSIGN_OR_RETURN(uint8_t kind_raw, in->ReadU8());
    if (kind_raw > static_cast<uint8_t>(AggKind::kZipAggregate)) {
      return Status::InvalidArgument("unknown aggregate kind");
    }
    const AggKind kind = static_cast<AggKind>(kind_raw);
    // A dot tuple is two (matrix, row) pairs; the others start with two
    // varints (a row, or a zip-aggregate's udf and k).
    PS2_ASSIGN_OR_RETURN(uint64_t n,
                         in->ReadCount(kind == AggKind::kDot ? 4 : 2));
    for (uint64_t e = 0; e < n; ++e) {
      if (kind == AggKind::kZipAggregate) {
        PS2_ASSIGN_OR_RETURN(uint64_t udf_id, in->ReadVarint());
        uint64_t width = 0, begin = 0;
        PS2_ASSIGN_OR_RETURN(std::vector<double*> rows,
                             ZipRows(in, &width, &begin, nullptr));
        const ZipAggFn* fn = udfs_->GetZipAggregate(static_cast<int>(udf_id));
        if (fn == nullptr) {
          return Status::NotFound("zip-aggregate udf not registered");
        }
        writer.WritePodVector((*fn)(
            std::vector<const double*>(rows.begin(), rows.end()), width,
            begin));
        out.server_ops += rows.size() * width;  // conservative: every element
        continue;
      }
      PS2_ASSIGN_OR_RETURN(RowRef a, ReadRow(in));
      if (kind != AggKind::kDot) {
        PS2_ASSIGN_OR_RETURN(double value, RowAggregate(a.matrix_id, a.row,
                                                        kind, &out.server_ops));
        writer.WriteF64(value);
        continue;
      }
      PS2_ASSIGN_OR_RETURN(RowRef b, ReadRow(in));
      // Either operand may be a hot-row replica: anchor the window on
      // whichever one is a local primary slice and read both through
      // ReadRowView (which yields the primary when the window matches).
      Result<Shard*> anchor = DenseShard(a.matrix_id, a.row);
      if (!anchor.ok()) anchor = DenseShard(b.matrix_id, b.row);
      PS2_RETURN_NOT_OK(anchor.status());
      const uint64_t width = (*anchor)->width();
      const uint64_t begin = (*anchor)->begin;
      PS2_ASSIGN_OR_RETURN(const double* pa,
                           ReadRowView(a.matrix_id, a.row, begin, width));
      PS2_ASSIGN_OR_RETURN(const double* pb,
                           ReadRowView(b.matrix_id, b.row, begin, width));
      double partial = 0.0;
      out.server_ops += kernels::Dot(pa, pb, width, &partial);
      writer.WriteF64(partial);
    }
  } while (!in->AtEnd());
  out.response = writer.Release();
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleMatrixInit(BufferReader* in) {
  PS2_ASSIGN_OR_RETURN(uint64_t matrix_id, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t row_begin, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t row_end, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(double scale, in->ReadF64());
  PS2_ASSIGN_OR_RETURN(uint64_t seed, in->ReadU64());
  Shard* found = ShardOf(matrix_id);
  if (found == nullptr) return Status::NotFound("matrix not found");
  Shard& shard = *found;
  if (!shard.dense()) {
    return Status::FailedPrecondition("matrix init requires dense storage");
  }
  row_end = std::min<uint64_t>(row_end, shard.meta.num_rows);
  HandleResult out;
  for (uint64_t r = row_begin; r < row_end; ++r) {
    TouchRowLocked(&shard, r);
    double* data = shard.dense_rows[r].data();
    for (uint64_t c = 0; c < shard.width(); ++c) {
      // Value depends only on (seed, row, global column): every server
      // produces the same overall matrix regardless of partitioning.
      uint64_t x = seed ^ (r * 0x9E3779B97F4A7C15ULL) ^
                   ((shard.begin + c) * 0xC2B2AE3D27D4EB4FULL);
      x ^= x >> 33;
      x *= 0xFF51AFD7ED558CCDULL;
      x ^= x >> 33;
      double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0,1)
      data[c] = (2.0 * u - 1.0) * scale;
    }
  }
  out.server_ops = (row_end - row_begin) * shard.width();
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleHotSetUpdate(BufferReader* in) {
  // Each row: (matrix, row, dim) varints.
  PS2_ASSIGN_OR_RETURN(uint64_t count, in->ReadCount(3));
  // Replace the replica set: survivors keep their values and version, rows
  // leaving the hot set are dropped, newcomers start zero-filled at version
  // 0 so pulls fall through to the primary until the first install.
  std::map<std::pair<int, uint32_t>, Replica> next;
  for (uint64_t i = 0; i < count; ++i) {
    PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
    PS2_ASSIGN_OR_RETURN(uint64_t dim, in->ReadVarint());
    const std::pair<int, uint32_t> key{ref.matrix_id, ref.row};
    auto it = replicas_.find(key);
    if (it != replicas_.end() && it->second.dim == dim) {
      next.emplace(key, std::move(it->second));
    } else {
      // No values until the first install brings all `dim` of them over
      // the wire (FindReplica ignores version 0), so a claimed dim alone
      // never sizes an allocation.
      Replica replica;
      replica.dim = dim;
      next.emplace(key, std::move(replica));
    }
  }
  replicas_ = std::move(next);
  return HandleResult{};
}

Result<PsServer::HandleResult> PsServer::HandleReplicaSync(BufferReader* in) {
  PS2_ASSIGN_OR_RETURN(uint8_t phase, in->ReadU8());
  HandleResult out;
  BufferWriter writer;
  if (phase == 0) {
    // Collect: drain pending deltas and report this server's primary slice
    // of each listed row, so the master can rebuild the authoritative value.
    // Each row: (matrix, row) varints.
    PS2_ASSIGN_OR_RETURN(uint64_t n, in->ReadCount(2));
    for (uint64_t i = 0; i < n; ++i) {
      PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
      auto it = replicas_.find({ref.matrix_id, ref.row});
      if (it == replicas_.end()) {
        return Status::FailedPrecondition(
            "replica sync for a row without a replica");
      }
      Replica& replica = it->second;
      writer.WriteVarint(replica.pending.size());
      uint64_t prev = 0;
      for (const auto& [col, v] : replica.pending) {
        writer.WriteVarint(col - prev);
        prev = col;
      }
      for (const auto& [col, v] : replica.pending) writer.WriteF64(v);
      out.server_ops += replica.pending.size();
      replica.pending.clear();
      const Shard* slice = ShardOf(ref.matrix_id);
      const bool has_slice = slice != nullptr && slice->dense() &&
                             ref.row < slice->meta.num_rows &&
                             slice->width() > 0;
      writer.WriteU8(has_slice ? 1 : 0);
      if (has_slice) {
        const Shard& shard = *slice;
        writer.WriteVarint(shard.begin);
        writer.WriteVarint(shard.width());
        writer.WriteF64Span(shard.dense_rows[ref.row].data(), shard.width());
        out.server_ops += shard.width();
      }
    }
  } else if (phase == 1) {
    // Install: overwrite replica values with the reconciled rows and stamp
    // them with the new epoch, making them servable.
    PS2_ASSIGN_OR_RETURN(uint64_t epoch, in->ReadVarint());
    PS2_ASSIGN_OR_RETURN(uint64_t n, in->ReadVarint());
    for (uint64_t i = 0; i < n; ++i) {
      PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
      PS2_ASSIGN_OR_RETURN(uint64_t dim, in->ReadVarint());
      PS2_ASSIGN_OR_RETURN(std::vector<double> values, in->ReadF64Span(dim));
      auto it = replicas_.find({ref.matrix_id, ref.row});
      if (it == replicas_.end() || it->second.dim != dim) {
        return Status::FailedPrecondition(
            "replica install for a row without a matching replica");
      }
      it->second.values = std::move(values);
      it->second.version = epoch;
      out.server_ops += dim;
    }
  } else {
    return Status::InvalidArgument("unknown replica sync phase");
  }
  out.response = writer.Release();
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleServingPull(BufferReader* in) {
  PS2_ASSIGN_OR_RETURN(uint64_t epoch, in->ReadVarint());
  const ModelSnapshot* snap = nullptr;
  for (const ModelSnapshot& s : snapshots_) {
    if (s.epoch == epoch) {
      snap = &s;
      break;
    }
  }
  if (snap == nullptr) {
    // The frontend repins to the current epoch and re-encodes on this — it
    // happens when a publish raced the read past the retention window, or
    // after a recovery republished under a fresh epoch.
    return Status::FailedPrecondition("serving snapshot epoch not available");
  }
  // Each entry: (matrix, row, n_idx) varints, then n_idx index varints.
  PS2_ASSIGN_OR_RETURN(uint64_t n_entries, in->ReadCount(3));
  // Decode and check every entry first, gathering all keys into per-thread
  // scratch, so the response is sized once and no entry allocates.
  thread_local std::vector<RowRead> reads;
  thread_local std::vector<uint64_t> keys;
  reads.clear();
  keys.clear();
  uint64_t n_values = 0;
  for (uint64_t e = 0; e < n_entries; ++e) {
    PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(in));
    // 0 = full slice; otherwise that many index varints follow.
    PS2_ASSIGN_OR_RETURN(uint64_t n_idx, in->ReadCount(1));
    const ShardSnapshot* shard = snap->Find(ref.matrix_id);
    if (shard == nullptr) {
      return Status::NotFound("matrix not in serving snapshot");
    }
    if (ref.row >= shard->rows.size()) {
      return Status::OutOfRange("row out of range");
    }
    // Serving reads feed the same demand sketches as training pulls, so the
    // hotspot plane sees the Zipfian read mix too.
    RecordPull(ref.matrix_id, ref.row);
    RowRead r;
    const SnapshotRow& row = shard->rows[ref.row];
    r.chunks = shard->dense ? row.chunks.get() : nullptr;
    r.sparse = shard->dense ? nullptr : row.sparse.get();
    r.base = r.begin = shard->begin;
    r.n = shard->end - shard->begin;
    if (n_idx != 0) {
      r.indices = true;
      r.key_begin = keys.size();
      r.n = n_idx;
      keys.resize(r.key_begin + n_idx);
      PS2_RETURN_NOT_OK(ReadKeysInRange(in, n_idx, shard->begin, shard->end,
                                        "pull index outside server range",
                                        keys.data() + r.key_begin));
    }
    reads.push_back(r);
    n_values += r.n;
  }
  HandleResult out;
  BufferWriter writer(
      (1 + n_entries) * kMaxVarintBytes + n_values * sizeof(double),
      /*sections=*/n_entries);
  writer.WriteVarint(n_entries);
  WriteRowReads(reads, keys, &writer);
  out.server_ops = n_values;
  out.response_sections = writer.TakeSections();
  out.response = writer.Release();
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleClockAdvance(BufferReader* in) {
  PS2_ASSIGN_OR_RETURN(uint64_t worker, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t clock, in->ReadVarint());
  if (worker >= worker_clocks_.size()) {
    return Status::OutOfRange("worker id outside the clock vector");
  }
  // Max-merge: clocks only move forward. A retry whose first ack was lost —
  // or that slipped past a dedup table dropped in a crash — re-applies as a
  // no-op, so the advance is idempotent at the semantic level too.
  worker_clocks_[worker] = std::max(worker_clocks_[worker], clock);
  HandleResult out;
  out.server_ops += 1;
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleRangeExtract(BufferReader* in) {
  // Non-mutating read of one matrix's column range [begin, end): the source
  // leg of a migration move. Deliberately outside the dedup table — a retry
  // must re-execute and re-produce the payload (a deduped empty ack would
  // lose it). Re-reading is safe: the source is fenced, so the range cannot
  // change between attempts.
  PS2_ASSIGN_OR_RETURN(uint64_t matrix_id, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t begin, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t end, in->ReadVarint());
  const Shard* found = ShardOf(matrix_id);
  if (found == nullptr) {
    return Status::NotFound("matrix not found on server");
  }
  const Shard& shard = *found;
  if (begin >= end || begin < shard.begin || end > shard.end) {
    return Status::FailedPrecondition("extract range not owned by server");
  }
  HandleResult out;
  BufferWriter writer;
  writer.WriteVarint(begin);
  writer.WriteVarint(end);
  writer.WriteVarint(shard.meta.dim);
  writer.WriteVarint(shard.meta.num_rows);
  writer.WriteU8(static_cast<uint8_t>(shard.meta.storage));
  const uint64_t n = end - begin;
  for (uint64_t r = 0; r < shard.meta.num_rows; ++r) {
    if (shard.dense()) {
      writer.BeginSection(SectionKind::kF64Values);
      writer.WriteF64Span(shard.dense_rows[r].data() + (begin - shard.begin),
                          n);
      writer.EndSection();
      out.server_ops += n;
    } else {
      const auto& map = shard.sparse_rows[r];
      const auto lo = map.lower_bound(begin);
      const auto hi = map.lower_bound(end);
      uint64_t nnz = 0;
      for (auto itc = lo; itc != hi; ++itc) ++nnz;
      writer.WriteVarint(nnz);
      uint64_t prev = 0;
      for (auto itc = lo; itc != hi; ++itc) {
        writer.WriteVarint(itc->first - prev);
        prev = itc->first;
      }
      for (auto itc = lo; itc != hi; ++itc) writer.WriteF64(itc->second);
      out.server_ops += nnz;
    }
  }
  // The source's worker-clock view travels with the range: clock tables
  // follow the range owner (DESIGN.md §11/§12), max-merged at commit.
  writer.WriteVarint(worker_clocks_.size());
  for (uint64_t c : worker_clocks_) writer.WriteVarint(c);
  out.response_sections = writer.TakeSections();
  out.response = writer.Release();
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleRangeMigrate(BufferReader* in) {
  // Install leg: stages an extracted range under (epoch, matrix, begin),
  // waiting for the epoch's commit. Mutating and tracked, but a replay is
  // also value-idempotent — it overwrites its own key with identical bytes.
  PS2_ASSIGN_OR_RETURN(uint64_t epoch, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint64_t matrix_id, in->ReadVarint());
  StagedRange staged;
  PS2_ASSIGN_OR_RETURN(staged.begin, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(staged.end, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(staged.dim, in->ReadVarint());
  // Every staged row carries at least one byte (a dense row's first f64, a
  // sparse row's nnz varint).
  PS2_ASSIGN_OR_RETURN(uint64_t num_rows, in->ReadCount(1));
  PS2_ASSIGN_OR_RETURN(uint8_t storage, in->ReadU8());
  if (epoch == 0) return Status::InvalidArgument("migration epoch must be > 0");
  if (matrix_id >= static_cast<uint64_t>(matrix_id_limit_)) {
    return Status::NotFound("unknown matrix id");
  }
  if (staged.begin >= staged.end) {
    return Status::InvalidArgument("empty staged range");
  }
  staged.num_rows = static_cast<uint32_t>(num_rows);
  staged.storage = static_cast<MatrixStorage>(storage);
  const uint64_t n = staged.end - staged.begin;
  HandleResult out;
  if (staged.storage == MatrixStorage::kDense) {
    staged.dense_rows.reserve(num_rows);
    for (uint64_t r = 0; r < num_rows; ++r) {
      PS2_ASSIGN_OR_RETURN(std::vector<double> row, in->ReadF64Span(n));
      staged.dense_rows.push_back(std::move(row));
      out.server_ops += n;
    }
  } else {
    staged.sparse_rows.assign(num_rows, {});
    for (uint64_t r = 0; r < num_rows; ++r) {
      // Each entry: a column varint, then (after all columns) an f64 value.
      PS2_ASSIGN_OR_RETURN(uint64_t nnz, in->ReadCount(1 + sizeof(double)));
      SparseEntries entries;
      PS2_RETURN_NOT_OK(ReadSparseEntries(in, nnz, staged.begin, staged.end,
                                          /*int_values=*/false,
                                          "staged column outside range",
                                          &entries));
      for (uint64_t i = 0; i < nnz; ++i) {
        staged.sparse_rows[r][entries.keys[i]] = entries.values[i];
      }
      out.server_ops += nnz;
    }
  }
  PS2_ASSIGN_OR_RETURN(uint64_t n_clocks, in->ReadCount(1));
  staged.worker_clocks.resize(n_clocks, 0);
  for (uint64_t w = 0; w < n_clocks; ++w) {
    PS2_ASSIGN_OR_RETURN(staged.worker_clocks[w], in->ReadVarint());
  }
  staged_[std::make_tuple(epoch, static_cast<int>(matrix_id), staged.begin)] =
      std::move(staged);
  return out;
}

Result<PsServer::HandleResult> PsServer::HandleRoutingUpdate(BufferReader* in) {
  // Commit leg (kRoutingUpdate): atomically applies this epoch's staged
  // ranges, swaps shard bounds to the new routing table, installs the epoch
  // and lifts the fence. Runs under mu_ like all of HandleLocked, so the
  // data plane observes either the old or the new layout, never a mix.
  PS2_ASSIGN_OR_RETURN(uint64_t epoch, in->ReadVarint());
  if (epoch == 0) return Status::InvalidArgument("migration epoch must be > 0");
  // An entry is five varints and a storage byte.
  PS2_ASSIGN_OR_RETURN(uint64_t n_matrices, in->ReadCount(6));
  struct Entry {
    int matrix_id;
    uint64_t begin, end, dim;
    uint32_t num_rows;
    MatrixStorage storage;
  };
  std::vector<Entry> entries;
  entries.reserve(n_matrices);
  for (uint64_t i = 0; i < n_matrices; ++i) {
    Entry e;
    PS2_ASSIGN_OR_RETURN(uint64_t m, in->ReadVarint());
    PS2_ASSIGN_OR_RETURN(e.begin, in->ReadVarint());
    PS2_ASSIGN_OR_RETURN(e.end, in->ReadVarint());
    PS2_ASSIGN_OR_RETURN(e.dim, in->ReadVarint());
    PS2_ASSIGN_OR_RETURN(uint64_t rows, in->ReadVarint());
    PS2_ASSIGN_OR_RETURN(uint8_t storage, in->ReadU8());
    // Only an admitted id may create a shard here (a joining server's).
    if (m >= static_cast<uint64_t>(matrix_id_limit_)) {
      return Status::NotFound("unknown matrix id");
    }
    e.matrix_id = static_cast<int>(m);
    e.num_rows = static_cast<uint32_t>(rows);
    e.storage = static_cast<MatrixStorage>(storage);
    entries.push_back(e);
  }
  if (routing_epoch_ >= epoch && !fenced_) {
    // Replay of an already-committed epoch that slipped past the dedup
    // table (e.g. it rolled back with a crash). Committing is idempotent at
    // the routing level; the staged state is gone, so just ack.
    return HandleResult{};
  }
  // Validate coverage BEFORE mutating anything: for every matrix, the new
  // range must be covered by the old range's overlap plus staged ranges. A
  // gap means an install was lost mid-crash — the master re-installs and
  // retries the commit.
  for (const Entry& e : entries) {
    if (e.begin >= e.end) continue;  // shard is dropped, nothing to cover
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    if (const Shard* shard = ShardOf(e.matrix_id)) {
      const uint64_t lo = std::max(shard->begin, e.begin);
      const uint64_t hi = std::min(shard->end, e.end);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    for (const auto& [key, staged] : staged_) {
      if (std::get<0>(key) != epoch || std::get<1>(key) != e.matrix_id) {
        continue;
      }
      const uint64_t lo = std::max(staged.begin, e.begin);
      const uint64_t hi = std::min(staged.end, e.end);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    uint64_t reach = e.begin;
    for (const auto& [lo, hi] : covered) {
      if (lo > reach) break;
      reach = std::max(reach, hi);
    }
    if (reach < e.end) {
      return Status::FailedPrecondition(
          "missing staged range for migration commit");
    }
  }
  HandleResult out;
  for (const Entry& e : entries) {
    Shard* shard = ShardOf(e.matrix_id);
    if (e.begin >= e.end) {
      if (shard != nullptr) shards_[e.matrix_id].reset();
      continue;
    }
    if (shard == nullptr) {
      // Joining server: create the shard from the commit's meta core. The
      // partitioner snapshot inside the meta is not used on the server data
      // path (bounds are explicit); the master refreshes it on publish.
      Shard joined;
      joined.meta.id = e.matrix_id;
      joined.meta.dim = e.dim;
      joined.meta.num_rows = e.num_rows;
      joined.meta.storage = e.storage;
      joined.meta.routing_epoch = epoch;
      joined.begin = e.begin;
      joined.end = e.begin;  // empty; ResizeShardLocked fills from staged
      if (e.storage == MatrixStorage::kDense) {
        joined.dense_rows.assign(e.num_rows, {});
      } else {
        joined.sparse_rows.assign(e.num_rows, {});
      }
      shard = PutShardLocked(std::move(joined));
    }
    ResizeShardLocked(shard, e.begin, e.end, epoch);
    out.server_ops += static_cast<uint64_t>(e.num_rows) * (e.end - e.begin);
  }
  // Clock tables follow the range owner: max-merge every staged view.
  for (const auto& [key, staged] : staged_) {
    if (std::get<0>(key) != epoch) continue;
    if (worker_clocks_.size() < staged.worker_clocks.size()) {
      worker_clocks_.resize(staged.worker_clocks.size(), 0);
    }
    for (size_t w = 0; w < staged.worker_clocks.size(); ++w) {
      worker_clocks_[w] = std::max(worker_clocks_[w], staged.worker_clocks[w]);
    }
  }
  // Commit point: epoch forward, staged state consumed, fence lifted.
  for (auto it = staged_.begin(); it != staged_.end();) {
    it = std::get<0>(it->first) <= epoch ? staged_.erase(it) : ++it;
  }
  if (epoch > routing_epoch_) routing_epoch_ = epoch;
  fenced_ = false;
  return out;
}

void PsServer::InitWorkerClocks(int num_workers) {
  std::lock_guard<std::mutex> lock(mu_);
  worker_clocks_.assign(static_cast<size_t>(num_workers), 0);
}

std::vector<uint64_t> PsServer::WorkerClocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return worker_clocks_;
}

uint64_t PsServer::MinWorkerClock() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker_clocks_.empty()) return 0;
  uint64_t min_clock = worker_clocks_[0];
  for (uint64_t c : worker_clocks_) min_clock = std::min(min_clock, c);
  return min_clock;
}

std::shared_ptr<const PsServer::ChunkedRow> PsServer::CopyDenseRowLocked(
    const Shard& shard, size_t row, const SnapshotRow* prev,
    uint64_t* copied) const {
  const uint64_t width = shard.width();
  const uint64_t n_chunks = shard.num_chunks();
  const double* src = shard.dense_rows[row].data();
  // Sparse writes since `prev` stamped only their chunks; a whole-row write
  // (or a layout change) stamped the row and leaves nothing to share.
  std::vector<uint64_t> dirty;
  const bool sparse_writes = prev != nullptr &&
                             !shard.chunk_versions.empty() &&
                             shard.row_clocks[row].rewrite <= prev->version;
  if (sparse_writes) {
    const uint64_t* clocks = shard.chunk_versions.data() + row * n_chunks;
    for (uint64_t c = 0; c < n_chunks; ++c) {
      if (clocks[c] > prev->version) dirty.push_back(c);
    }
    if (dirty.empty()) return prev->chunks;  // the writes touched no column
  }
  if (!sparse_writes || dirty.size() == n_chunks) {
    // Whole row: one buffer, one memcpy.
    auto base = std::make_shared_for_overwrite<double[]>(width);
    if (width != 0) std::memcpy(base.get(), src, width * sizeof(double));
    auto image = std::make_shared<ChunkedRow>();
    image->base = std::move(base);
    *copied += width;
    return image;
  }
  // Patch just the written chunks; every other chunk is shared with `prev`.
  const ChunkedRow& old = *prev->chunks;
  auto image = std::make_shared<ChunkedRow>();
  image->base = old.base;
  image->patches = old.patches;
  image->patches.resize(n_chunks);
  image->num_patched = old.num_patched;
  for (uint64_t c : dirty) {
    const uint64_t lo = c * kSnapshotChunk;
    const uint64_t n = std::min(kSnapshotChunk, width - lo);
    auto patch = std::make_shared_for_overwrite<double[]>(n);
    std::memcpy(patch.get(), src + lo, n * sizeof(double));
    if (image->patches[c] == nullptr) image->num_patched += 1;
    image->patches[c] = std::move(patch);
    *copied += n;
  }
  // No chunk reads the whole-row buffer any more: let it go.
  if (image->num_patched == n_chunks) image->base.reset();
  return image;
}

Result<PsServer::PublishStats> PsServer::PublishSnapshot(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::Unavailable("server is down (injected crash)");
  }
  if (!snapshots_.empty() && epoch <= snapshots_.back().epoch) {
    return Status::InvalidArgument("snapshot epoch must increase");
  }
  const ModelSnapshot* prev = snapshots_.empty() ? nullptr : &snapshots_.back();
  ModelSnapshot snap;
  snap.epoch = epoch;
  snap.shards.resize(shards_.size());
  PublishStats stats;
  uint64_t doubles_copied = 0;
  for (const std::unique_ptr<Shard>& slot : shards_) {
    if (slot == nullptr) continue;
    Shard& shard = *slot;
    ShardSnapshot& ss = snap.shards[static_cast<size_t>(shard.meta.id)];
    ss.present = true;
    ss.begin = shard.begin;
    ss.end = shard.end;
    ss.dense = shard.dense();
    const size_t n_rows = shard.meta.num_rows;
    ss.rows.resize(n_rows);
    const ShardSnapshot* prev_ss =
        prev != nullptr ? prev->Find(shard.meta.id) : nullptr;
    if (prev_ss != nullptr &&
        (prev_ss->begin != shard.begin || prev_ss->end != shard.end ||
         prev_ss->dense != ss.dense || prev_ss->rows.size() != n_rows)) {
      prev_ss = nullptr;
    }
    for (size_t r = 0; r < n_rows; ++r) {
      const uint64_t version = shard.row_clocks[r].version;
      const SnapshotRow* prev_row =
          prev_ss != nullptr ? &prev_ss->rows[r] : nullptr;
      if (prev_row != nullptr && prev_row->version == version) {
        // Untouched since the previous publish: share its immutable image.
        ss.rows[r] = *prev_row;
        stats.rows_reused += 1;
      } else {
        SnapshotRow& dst = ss.rows[r];
        dst.version = version;
        if (ss.dense) {
          dst.chunks = CopyDenseRowLocked(shard, r, prev_row, &doubles_copied);
        } else {
          dst.sparse = std::make_shared<const std::map<uint64_t, double>>(
              shard.sparse_rows[r]);
          stats.bytes_copied += shard.sparse_rows[r].size() *
                                (sizeof(uint64_t) + sizeof(double));
        }
        stats.rows_copied += 1;
      }
      stats.rows_total += 1;
    }
    // Chunk clocks start with the first publish that sees the shard: every
    // row was just copied whole, so zeroed clocks mark nothing written.
    // Shards of a model that is never published never pay for them.
    if (ss.dense && shard.chunk_versions.empty()) {
      shard.chunk_versions.assign(n_rows * shard.num_chunks(), 0);
    }
  }
  stats.bytes_copied += doubles_copied * sizeof(double);
  snapshots_.push_back(std::move(snap));
  if (snapshots_.size() > kRetainedSnapshots) {
    snapshots_.erase(snapshots_.begin());
  }
  return stats;
}

uint64_t PsServer::SnapshotBytesHeld() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<const void*> seen;
  uint64_t bytes = 0;
  for (const ModelSnapshot& snap : snapshots_) {
    for (const ShardSnapshot& ss : snap.shards) {
      if (!ss.present) continue;
      const uint64_t width = ss.end - ss.begin;
      for (const SnapshotRow& row : ss.rows) {
        if (!ss.dense) {
          if (seen.insert(row.sparse.get()).second) {
            bytes += row.sparse->size() * (sizeof(uint64_t) + sizeof(double));
          }
          continue;
        }
        const ChunkedRow& img = *row.chunks;
        if (img.base != nullptr && seen.insert(img.base.get()).second) {
          bytes += width * sizeof(double);
        }
        for (size_t c = 0; c < img.patches.size(); ++c) {
          if (img.patches[c] != nullptr &&
              seen.insert(img.patches[c].get()).second) {
            bytes += std::min(kSnapshotChunk, width - c * kSnapshotChunk) *
                     sizeof(double);
          }
        }
      }
    }
  }
  return bytes;
}

uint64_t PsServer::snapshot_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_.empty() ? 0 : snapshots_.back().epoch;
}

bool PsServer::HasSnapshotEpoch(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ModelSnapshot& s : snapshots_) {
    if (s.epoch == epoch) return true;
  }
  return false;
}

std::vector<uint8_t> PsServer::SerializeState() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferWriter writer;
  writer.WriteVarint(std::count_if(
      shards_.begin(), shards_.end(),
      [](const std::unique_ptr<Shard>& slot) { return slot != nullptr; }));
  for (const std::unique_ptr<Shard>& slot : shards_) {
    if (slot == nullptr) continue;
    const Shard& shard = *slot;
    writer.WriteVarint(static_cast<uint64_t>(shard.meta.id));
    writer.WriteU8(static_cast<uint8_t>(shard.meta.storage));
    // Shard bounds are part of the image (DESIGN.md §12): with elastic
    // membership a server's column span can change between checkpoints, so
    // restore must not assume the current bounds match the checkpoint's.
    writer.WriteVarint(shard.begin);
    writer.WriteVarint(shard.end);
    if (shard.dense()) {
      writer.WriteVarint(shard.dense_rows.size());
      for (const auto& row : shard.dense_rows) writer.WritePodVector(row);
    } else {
      writer.WriteVarint(shard.sparse_rows.size());
      for (const auto& row : shard.sparse_rows) {
        writer.WriteVarint(row.size());
        uint64_t prev = 0;
        for (const auto& [col, v] : row) {
          writer.WriteVarint(col - prev);
          prev = col;
          writer.WriteF64(v);
        }
      }
    }
  }
  // Replica section (appended so pre-§5d checkpoints stay readable).
  writer.WriteVarint(replicas_.size());
  for (const auto& [key, replica] : replicas_) {
    writer.WriteVarint(static_cast<uint64_t>(key.first));
    writer.WriteVarint(key.second);
    writer.WriteVarint(replica.dim);
    writer.WriteVarint(replica.version);
    if (replica.version == 0) {
      // Not yet installed: the image is the zero row the replica stands for.
      writer.WriteVarint(replica.dim);
      for (uint64_t c = 0; c < replica.dim; ++c) writer.WriteF64(0.0);
    } else {
      writer.WritePodVector(replica.values);
    }
    writer.WriteVarint(replica.pending.size());
    uint64_t prev = 0;
    for (const auto& [col, v] : replica.pending) {
      writer.WriteVarint(col - prev);
      prev = col;
      writer.WriteF64(v);
    }
  }
  // Dedup section (appended after replicas so older checkpoints stay
  // readable). Restoring it with the shard values makes recovery
  // crash-consistent: a retry racing a crash can never double-apply.
  writer.WriteVarint(dedup_.size());
  for (const auto& [client_id, d] : dedup_) {
    writer.WriteVarint(static_cast<uint64_t>(client_id));
    writer.WriteVarint(d.floor);
    writer.WriteVarint(d.seen.size());
    uint64_t prev = d.floor;
    for (uint64_t seq : d.seen) {
      writer.WriteVarint(seq - prev);
      prev = seq;
    }
  }
  // Worker-clock section (appended after dedup so §6-era checkpoints stay
  // readable). A recovered server restores the consistency controller's
  // clock vector together with the values it gates (DESIGN.md §11).
  writer.WriteVarint(worker_clocks_.size());
  for (uint64_t c : worker_clocks_) writer.WriteVarint(c);
  return writer.Release();
}

Status PsServer::RestoreState(const std::vector<uint8_t>& buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  BufferReader in(buffer);
  PS2_ASSIGN_OR_RETURN(uint64_t n_shards, in.ReadVarint());
  for (uint64_t s = 0; s < n_shards; ++s) {
    PS2_ASSIGN_OR_RETURN(uint64_t id, in.ReadVarint());
    PS2_ASSIGN_OR_RETURN(uint8_t storage, in.ReadU8());
    PS2_ASSIGN_OR_RETURN(uint64_t img_begin, in.ReadVarint());
    PS2_ASSIGN_OR_RETURN(uint64_t img_end, in.ReadVarint());
    Shard* found = ShardOf(id);
    if (found == nullptr) {
      return Status::NotFound("checkpoint contains unknown matrix shard");
    }
    Shard& shard = *found;
    if (static_cast<MatrixStorage>(storage) != shard.meta.storage) {
      return Status::Internal("checkpoint storage kind mismatch");
    }
    if (img_begin > img_end) {
      return Status::Internal("checkpoint shard bounds invalid");
    }
    PS2_ASSIGN_OR_RETURN(uint64_t n_rows, in.ReadVarint());
    if (n_rows != shard.meta.num_rows) {
      return Status::Internal("checkpoint row count mismatch");
    }
    // The image is authoritative for bounds: a checkpoint written before a
    // migration restores the pre-migration span, and the master reconciles
    // it against the current routing table afterwards
    // (PsServer::ReconcileShardBounds — DESIGN.md §12).
    shard.begin = img_begin;
    shard.end = img_end;
    // Restored values differ from whatever the clocks said (and the bounds
    // may too): the next snapshot publish re-copies every row.
    TouchLayoutLocked(&shard);
    if (shard.dense()) {
      for (uint64_t r = 0; r < n_rows; ++r) {
        PS2_ASSIGN_OR_RETURN(std::vector<double> row,
                             in.ReadPodVector<double>());
        if (row.size() != img_end - img_begin) {
          return Status::Internal("checkpoint row width mismatch");
        }
        shard.dense_rows[r] = std::move(row);
      }
    } else {
      for (uint64_t r = 0; r < n_rows; ++r) {
        PS2_ASSIGN_OR_RETURN(uint64_t nnz, in.ReadVarint());
        shard.sparse_rows[r].clear();
        uint64_t prev = 0;
        for (uint64_t i = 0; i < nnz; ++i) {
          PS2_ASSIGN_OR_RETURN(uint64_t delta, in.ReadVarint());
          prev += delta;
          PS2_ASSIGN_OR_RETURN(double v, in.ReadF64());
          shard.sparse_rows[r][prev] = v;
        }
      }
    }
  }
  replicas_.clear();
  if (in.AtEnd()) return Status::OK();  // checkpoint predates §5d replicas
  PS2_ASSIGN_OR_RETURN(uint64_t n_replicas, in.ReadVarint());
  for (uint64_t i = 0; i < n_replicas; ++i) {
    // A forged 2^32 + k must not truncate onto a live matrix or row.
    PS2_ASSIGN_OR_RETURN(RowRef ref, ReadRow(&in));
    Replica replica;
    PS2_ASSIGN_OR_RETURN(replica.dim, in.ReadVarint());
    PS2_ASSIGN_OR_RETURN(replica.version, in.ReadVarint());
    PS2_ASSIGN_OR_RETURN(replica.values, in.ReadPodVector<double>());
    if (replica.values.size() != replica.dim) {
      return Status::Internal("checkpoint replica width mismatch");
    }
    PS2_ASSIGN_OR_RETURN(uint64_t nnz, in.ReadVarint());
    uint64_t prev = 0;
    for (uint64_t j = 0; j < nnz; ++j) {
      PS2_ASSIGN_OR_RETURN(uint64_t delta, in.ReadVarint());
      prev += delta;
      PS2_ASSIGN_OR_RETURN(double v, in.ReadF64());
      replica.pending[prev] = v;
    }
    replicas_.emplace(std::make_pair(ref.matrix_id, ref.row),
                      std::move(replica));
  }
  dedup_.clear();
  if (in.AtEnd()) return Status::OK();  // checkpoint predates §6 dedup
  PS2_ASSIGN_OR_RETURN(uint64_t n_clients, in.ReadVarint());
  for (uint64_t i = 0; i < n_clients; ++i) {
    PS2_ASSIGN_OR_RETURN(uint64_t client_id, in.ReadVarint());
    if (client_id > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Status::Internal("checkpoint client id out of range");
    }
    ClientDedup d;
    PS2_ASSIGN_OR_RETURN(d.floor, in.ReadVarint());
    PS2_ASSIGN_OR_RETURN(uint64_t n_seen, in.ReadVarint());
    uint64_t prev = d.floor;
    for (uint64_t j = 0; j < n_seen; ++j) {
      PS2_ASSIGN_OR_RETURN(uint64_t delta, in.ReadVarint());
      prev += delta;
      d.seen.insert(prev);
    }
    dedup_[static_cast<int>(client_id)] = std::move(d);
  }
  if (in.AtEnd()) return Status::OK();  // checkpoint predates §11 clocks
  PS2_ASSIGN_OR_RETURN(uint64_t n_clocks, in.ReadCount(1));
  // Max-merge into whatever the vector holds: clock advances applied after
  // the checkpoint (replayed via retries during recovery) must not be
  // rewound by restoring the older image.
  if (worker_clocks_.size() < n_clocks) worker_clocks_.resize(n_clocks, 0);
  for (uint64_t w = 0; w < n_clocks; ++w) {
    PS2_ASSIGN_OR_RETURN(uint64_t c, in.ReadVarint());
    worker_clocks_[w] = std::max(worker_clocks_[w], c);
  }
  return Status::OK();
}

void PsServer::DropAllState() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard == nullptr) continue;
    if (shard->dense()) {
      for (auto& row : shard->dense_rows) {
        std::fill(row.begin(), row.end(), 0.0);
      }
    } else {
      for (auto& row : shard->sparse_rows) row.clear();
    }
  }
  replicas_.clear();
  // Staged migration ranges die with the process: a commit after recovery
  // fails coverage validation and the master re-installs (DESIGN.md §12).
  staged_.clear();
  // Published snapshots die with the process: the master republishes from
  // the restored shards after recovery (ModelSnapshotManager).
  snapshots_.clear();
  TouchAllRowsLocked();
  // The key cache is soft state: clients' refs to forgotten hashes fault a
  // fresh install back in via the miss protocol.
  keycache_.Clear();
  // The dedup table rolls back with the state it guards: seqs applied after
  // the checkpoint are forgotten together with their effects, so their
  // retries re-apply cleanly.
  dedup_.clear();
  // Worker clocks roll back too (the vector keeps its size so advances that
  // race the recovery still land). Zeroed clocks only make the staleness
  // gate more conservative; RestoreState max-merges the checkpoint image
  // back in, and the controller rebroadcasts live clocks after recovery.
  std::fill(worker_clocks_.begin(), worker_clocks_.end(), 0);
  // The frequency sketches are soft state: a crashed server restarts cold.
  if (stats_capacity_ > 0) {
    stats_ = std::make_unique<AccessStats>(stats_capacity_);
  }
}

uint64_t PsServer::StoredValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard == nullptr) continue;
    if (shard->dense()) {
      total += shard->meta.num_rows * shard->width();
    } else {
      for (const auto& row : shard->sparse_rows) total += row.size();
    }
  }
  return total;
}

}  // namespace ps2
