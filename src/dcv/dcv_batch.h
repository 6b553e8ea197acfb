#pragma once

// Dcv::Batch() — the unified coalescing builder over the PS batch protocol.
//
// Workloads that touch many DCVs per step (DeepWalk scores every walk pair,
// LDA pulls its vocabulary slice of every topic row) stage any mix of dots,
// axpys, row pulls/pushes and shared-index sparse pulls/pushes, then
// Submit() once. Staged work coalesces into one wire op per group — all
// dots into one Aggregate request, all axpys into one ColumnOps request —
// and the ops are issued back-to-back through the async client —
// the first is the round leader, the rest ride its latency window
// (TaskTraffic::pipelined_rounds), so a whole batch costs one round of
// latency no matter how many kinds it mixes.
//
//   DcvBatch batch = ctx.Batch();
//   size_t uv = batch.Dot(u, v);
//   batch.Axpy(u, v, -lr);
//   size_t counts = batch.PullSparse(topic_rows, vocab, /*compress=*/true);
//   DcvBatch::Future f = batch.Submit();   // everything in flight, 1 round
//   ...overlap local compute here...
//   DcvBatchResults r = *f.Get();
//   r.dots[uv]; r.sparse_pulled[counts].row(i);
//
// Pulled rows come back as RowBlocks (ps/ps_types.h): all Pull() rows in
// one block, one block per PullSparse() group.
//
// A builder is single-shot: Submit() (or Execute()) may be called once.
// Staging never talks to the servers; all traffic happens at Submit().

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dcv/dcv.h"
#include "linalg/sparse_vector.h"
#include "ps/ps_client.h"
#include "ps/ps_future.h"

namespace ps2 {

class DcvContext;

/// \brief Values produced by a submitted batch, indexed by staging slot.
struct DcvBatchResults {
  /// One scalar per Dot() call, in staging order.
  std::vector<double> dots;
  /// The Pull() rows in one block: row `slot` is the full row of the
  /// slot-th Pull() call.
  RowBlock pulled;
  /// One block per PullSparse() group, in staging order: row r of a group
  /// holds its r-th row's values at the group's indices.
  std::vector<RowBlock> sparse_pulled;
};

/// \brief Staged multi-op builder; see file comment.
class DcvBatch {
 public:
  /// In-flight handle for a submitted batch. Wait/Get drain every underlying
  /// op (even after the first error) so the client window always empties.
  class Future {
   public:
    Future() = default;

    /// Blocks until every staged op completes; first error in issue order
    /// (dots, axpys, reads, writes).
    Status Wait();

    /// Wait() then assemble the results. Call at most once.
    Result<DcvBatchResults> Get();

   private:
    friend class DcvBatch;

    Status error_ = Status::OK();  ///< staging-time error, if any
    PsFuture<std::vector<AggregateValue>> dots_;
    PsFuture<Ack> axpys_;
    /// The full-row read (when any Pull() was staged) first, then one per
    /// PullSparse() group.
    std::vector<PsFuture<RowBlock>> reads_;
    bool full_rows_read_ = false;
    std::vector<PsFuture<Ack>> writes_;
  };

  explicit DcvBatch(DcvContext* context);

  // ---- Staging (no traffic; slot ids index DcvBatchResults) ----

  /// Stages a distributed dot; result lands in DcvBatchResults::dots[slot].
  size_t Dot(const Dcv& a, const Dcv& b);

  /// Stages dst += alpha * src.
  DcvBatch& Axpy(Dcv& dst, const Dcv& src, double alpha);

  /// Stages a full-row pull; lands in DcvBatchResults::pulled.row(slot).
  size_t Pull(const Dcv& v);

  /// Stages a dense-delta push into v.
  DcvBatch& Push(Dcv& v, std::vector<double> delta);

  /// Stages one shared-index sparse pull over `rows` (LDA's vocabulary
  /// slice); lands in DcvBatchResults::sparse_pulled[slot].
  /// `compress_counts` uses varint integer compression (integer matrices).
  size_t PullSparse(const std::vector<Dcv>& rows,
                    std::vector<uint64_t> indices,
                    bool compress_counts = false);

  /// Stages per-row sparse deltas into `rows`.
  DcvBatch& PushSparse(std::vector<Dcv>& rows,
                       std::vector<SparseVector> deltas,
                       bool compress_counts = false);

  /// True if nothing has been staged.
  bool empty() const;

  // ---- Execution ----

  /// Issues every staged group through the async client (one overlapped
  /// round) and returns the in-flight handle. Single-shot.
  Future Submit();

  /// Submit() and block for the results.
  Result<DcvBatchResults> Execute() { return Submit().Get(); }

 private:
  /// One staged group of rows: a shared-index read, or per-row sparse
  /// deltas.
  struct SparseGroup {
    std::vector<RowRef> rows;
    std::vector<uint64_t> indices;
    std::vector<SparseVector> deltas;
    bool compress = false;
  };

  /// `rows` as row refs, noting any handle from another context.
  std::vector<RowRef> Refs(const std::vector<Dcv>& rows);
  void Note(const Status& status);
  Status CheckHandle(const Dcv& dcv) const;

  DcvContext* context_;
  bool submitted_ = false;
  Status error_ = Status::OK();

  std::vector<AggregateEntry> dots_;
  std::vector<ColumnOpEntry> axpys_;
  std::vector<RowRef> pull_rows_;
  std::vector<RowRef> push_rows_;
  std::vector<std::vector<double>> push_deltas_;
  std::vector<SparseGroup> sparse_pulls_;
  std::vector<SparseGroup> sparse_pushes_;
};

}  // namespace ps2
