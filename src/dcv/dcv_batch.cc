#include "dcv/dcv_batch.h"

#include "common/logging.h"
#include "dcv/dcv_context.h"
#include "obs/trace.h"

namespace ps2 {

DcvBatch::DcvBatch(DcvContext* context) : context_(context) {
  PS2_CHECK(context != nullptr);
}

void DcvBatch::Note(const Status& status) {
  if (error_.ok() && !status.ok()) error_ = status;
}

Status DcvBatch::CheckHandle(const Dcv& dcv) const {
  if (!dcv.valid() || dcv.context() != context_) {
    return Status::FailedPrecondition("DCV does not belong to this batch's context");
  }
  return Status::OK();
}

size_t DcvBatch::Dot(const Dcv& a, const Dcv& b) {
  Note(CheckHandle(a));
  Note(CheckHandle(b));
  dots_.push_back({AggKind::kDot, {a.ref(), b.ref()}, -1});
  return dots_.size() - 1;
}

DcvBatch& DcvBatch::Axpy(Dcv& dst, const Dcv& src, double alpha) {
  Note(CheckHandle(dst));
  Note(CheckHandle(src));
  axpys_.push_back({ColOpKind::kAxpy, {dst.ref(), src.ref()}, alpha, -1});
  return *this;
}

size_t DcvBatch::Pull(const Dcv& v) {
  Note(CheckHandle(v));
  pull_rows_.push_back(v.ref());
  return pull_rows_.size() - 1;
}

DcvBatch& DcvBatch::Push(Dcv& v, std::vector<double> delta) {
  Note(CheckHandle(v));
  push_rows_.push_back(v.ref());
  push_deltas_.push_back(std::move(delta));
  return *this;
}

std::vector<RowRef> DcvBatch::Refs(const std::vector<Dcv>& rows) {
  std::vector<RowRef> refs;
  refs.reserve(rows.size());
  for (const Dcv& r : rows) {
    Note(CheckHandle(r));
    refs.push_back(r.ref());
  }
  return refs;
}

size_t DcvBatch::PullSparse(const std::vector<Dcv>& rows,
                            std::vector<uint64_t> indices,
                            bool compress_counts) {
  sparse_pulls_.push_back(
      {Refs(rows), std::move(indices), {}, compress_counts});
  return sparse_pulls_.size() - 1;
}

DcvBatch& DcvBatch::PushSparse(std::vector<Dcv>& rows,
                               std::vector<SparseVector> deltas,
                               bool compress_counts) {
  sparse_pushes_.push_back(
      {Refs(rows), {}, std::move(deltas), compress_counts});
  return *this;
}

bool DcvBatch::empty() const {
  return dots_.empty() && axpys_.empty() && pull_rows_.empty() &&
         push_rows_.empty() && sparse_pulls_.empty() && sparse_pushes_.empty();
}

DcvBatch::Future DcvBatch::Submit() {
  PS2_TRACE_SPAN("dcv", "batch_submit");
  PS2_CHECK(!submitted_) << "DcvBatch::Submit called twice";
  submitted_ = true;
  Future f;
  if (!error_.ok()) {
    f.error_ = error_;
    return f;
  }
  PsClient* client = context_->client();
  // Issue groups back-to-back: the first becomes the round leader, the rest
  // overlap it — the whole batch charges one round of latency.
  if (!dots_.empty()) f.dots_ = client->AggregateAsync(dots_);
  if (!axpys_.empty()) f.axpys_ = client->ColumnOpsAsync(axpys_);
  if (!pull_rows_.empty()) {
    f.reads_.push_back(client->ReadRowsAsync(pull_rows_, RowSelector::All()));
    f.full_rows_read_ = true;
  }
  for (const SparseGroup& g : sparse_pulls_) {
    RowSelector cols = RowSelector::Indices(g.indices);
    cols.int_values = g.compress;
    f.reads_.push_back(client->ReadRowsAsync(g.rows, cols));
  }
  if (!push_rows_.empty()) {
    f.writes_.push_back(
        client->WriteRowsAsync(push_rows_, push_deltas_, RowSelector::All()));
  }
  for (const SparseGroup& g : sparse_pushes_) {
    RowSelector cols;
    cols.int_values = g.compress;
    f.writes_.push_back(client->WriteRowsAsync(g.rows, g.deltas, cols));
  }
  return f;
}

Status DcvBatch::Future::Wait() {
  PS2_TRACE_SPAN("dcv", "batch_wait");
  Status first = error_;
  auto track = [&first](const Status& s) {
    if (first.ok() && !s.ok()) first = s;
  };
  if (dots_.valid()) track(dots_.Wait());
  if (axpys_.valid()) track(axpys_.Wait());
  for (auto& f : reads_) track(f.Wait());
  for (auto& f : writes_) track(f.Wait());
  return first;
}

Result<DcvBatchResults> DcvBatch::Future::Get() {
  DcvBatchResults out;
  Status first = error_;
  auto track = [&first](const Status& s) {
    if (first.ok() && !s.ok()) first = s;
  };
  // Drain everything even after an error so the window always empties and
  // every op's traffic is charged.
  if (dots_.valid()) {
    Result<std::vector<AggregateValue>> r = dots_.Get();
    if (r.ok()) {
      for (const AggregateValue& v : *r) out.dots.push_back(v.value);
    }
    track(r.status());
  }
  if (axpys_.valid()) track(axpys_.Wait());
  for (size_t i = 0; i < reads_.size(); ++i) {
    Result<RowBlock> r = reads_[i].Get();
    if (r.ok() && i == 0 && full_rows_read_) {
      out.pulled = std::move(*r);
    } else if (r.ok()) {
      out.sparse_pulled.push_back(std::move(*r));
    }
    track(r.status());
  }
  for (auto& f : writes_) track(f.Wait());
  if (!first.ok()) return first;
  return out;
}

}  // namespace ps2
