#include "dcv/dcv.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "dcv/dcv_batch.h"
#include "obs/trace.h"
#include "dcv/dcv_context.h"

namespace ps2 {

namespace {
Status CheckValid(const Dcv& dcv) {
  if (!dcv.valid()) return Status::FailedPrecondition("invalid DCV handle");
  return Status::OK();
}

/// [first, rest...] as row refs; fails on an invalid handle.
Result<std::vector<RowRef>> Refs(const Dcv& first,
                                 const std::vector<Dcv>& rest) {
  PS2_RETURN_NOT_OK(CheckValid(first));
  std::vector<RowRef> refs{first.ref()};
  for (const Dcv& d : rest) {
    PS2_RETURN_NOT_OK(CheckValid(d));
    refs.push_back(d.ref());
  }
  return refs;
}

/// Runs one ColumnOps entry over [dst, srcs...] and blocks for its ack.
Status RunColumnOp(const Dcv& dst, ColOpKind kind, const std::vector<Dcv>& srcs,
                   double scalar = 0.0, int udf = -1) {
  PS2_ASSIGN_OR_RETURN(std::vector<RowRef> rows, Refs(dst, srcs));
  return dst.context()
      ->client()
      ->ColumnOpsAsync({{kind, std::move(rows), scalar, udf}})
      .Wait();
}

/// Runs one Aggregate entry over [v, others...] and blocks for its result.
Result<AggregateValue> RunAggregate(const Dcv& v, AggKind kind,
                                    const std::vector<Dcv>& others = {},
                                    int udf = -1) {
  PS2_ASSIGN_OR_RETURN(std::vector<RowRef> rows, Refs(v, others));
  PS2_ASSIGN_OR_RETURN(std::vector<AggregateValue> values,
                       v.context()
                           ->client()
                           ->AggregateAsync({{kind, std::move(rows), udf}})
                           .Get());
  return std::move(values[0]);
}

/// The scalar result of one Aggregate entry.
Result<double> AggregateScalar(const Dcv& v, AggKind kind,
                               const std::vector<Dcv>& others = {}) {
  PS2_ASSIGN_OR_RETURN(AggregateValue value, RunAggregate(v, kind, others));
  return value.value;
}
}  // namespace

bool Dcv::CoLocatedWith(const Dcv& other) const {
  if (!valid() || !other.valid() || context_ != other.context_) return false;
  // The client's planner with both rows read-only: a replicated hot row
  // (DESIGN.md §5d) reads as co-located with everything in the context.
  Result<std::shared_ptr<const MatrixMeta>> place =
      context_->client()->Place({ref_, other.ref_}, {true, true});
  return place.ok() && *place != nullptr;
}

Result<std::vector<double>> Dcv::Pull() const {
  PS2_TRACE_SPAN("dcv", "pull");
  return ReadRow(RowSelector::Range()).Get();
}

Result<std::vector<double>> Dcv::PullSparse(
    const std::vector<uint64_t>& indices) const {
  PS2_TRACE_SPAN("dcv", "pull_sparse");
  return PullSparseAsync(indices).Get();
}

Status Dcv::Push(const std::vector<double>& delta) {
  PS2_TRACE_SPAN("dcv", "push");
  return WriteRow(delta).Wait();
}

Status Dcv::Add(const SparseVector& delta) {
  PS2_TRACE_SPAN("dcv", "add");
  return AddAsync(delta).Wait();
}

Status Dcv::Set(const std::vector<double>& values) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  PS2_RETURN_NOT_OK(Fill(0.0));
  return Push(values);
}

PsFuture<std::vector<double>> Dcv::PullSparseAsync(
    const std::vector<uint64_t>& indices) const {
  return ReadRow(RowSelector::Indices(indices));
}

PsFuture<Ack> Dcv::AddAsync(const SparseVector& delta) {
  return WriteRow(delta);
}

PsFuture<std::vector<double>> Dcv::ReadRow(const RowSelector& cols) const {
  if (Status s = CheckValid(*this); !s.ok()) {
    return PsFuture<std::vector<double>>(std::move(s));
  }
  // A one-row block's values are exactly the row: moved out, not copied.
  auto values = [](RowBlock&& block) { return std::move(block.values); };
  PsClient* client = context_->client();
  return client->ReadRowsAsync({ref_}, cols).Map<std::vector<double>>(values);
}

PsFuture<Ack> Dcv::WriteRow(RowDeltas delta) {
  if (Status s = CheckValid(*this); !s.ok()) {
    return PsFuture<Ack>(std::move(s));
  }
  return context_->client()->WriteRowsAsync({ref_}, delta);
}

DcvBatch Dcv::Batch() const {
  PS2_CHECK(valid()) << "Batch() on an invalid DCV handle";
  return DcvBatch(context_);
}

Result<double> Dcv::Sum() const {
  return AggregateScalar(*this, AggKind::kSum);
}

Result<double> Dcv::Nnz() const {
  return AggregateScalar(*this, AggKind::kNnz);
}

Result<double> Dcv::Norm2() const {
  PS2_ASSIGN_OR_RETURN(double sq,
                       AggregateScalar(*this, AggKind::kNorm2Squared));
  return std::sqrt(sq);
}

Result<double> Dcv::Max() const {
  return AggregateScalar(*this, AggKind::kMax);
}

Result<double> Dcv::Dot(const Dcv& other) const {
  PS2_TRACE_SPAN("dcv", "dot");
  return AggregateScalar(*this, AggKind::kDot, {other});
}

Status Dcv::Axpy(const Dcv& x, double alpha) {
  PS2_TRACE_SPAN("dcv", "axpy");
  return RunColumnOp(*this, ColOpKind::kAxpy, {x}, alpha);
}

Status Dcv::CopyFrom(const Dcv& src) {
  return RunColumnOp(*this, ColOpKind::kCopy, {src});
}

Status Dcv::AddOf(const Dcv& a, const Dcv& b) {
  return RunColumnOp(*this, ColOpKind::kAdd, {a, b});
}

Status Dcv::SubOf(const Dcv& a, const Dcv& b) {
  return RunColumnOp(*this, ColOpKind::kSub, {a, b});
}

Status Dcv::MulOf(const Dcv& a, const Dcv& b) {
  return RunColumnOp(*this, ColOpKind::kMul, {a, b});
}

Status Dcv::DivOf(const Dcv& a, const Dcv& b) {
  return RunColumnOp(*this, ColOpKind::kDiv, {a, b});
}

Status Dcv::Fill(double value) {
  return RunColumnOp(*this, ColOpKind::kFill, {}, value);
}

Status Dcv::Scale(double alpha) {
  return RunColumnOp(*this, ColOpKind::kScale, {}, alpha);
}

Status Dcv::Zip(const std::vector<Dcv>& others, int udf_id) {
  PS2_TRACE_SPAN("dcv", "zip");
  return RunColumnOp(*this, ColOpKind::kZip, others, 0.0, udf_id);
}

Result<std::vector<std::vector<double>>> Dcv::ZipAggregate(
    const std::vector<Dcv>& others, int udf_id) const {
  PS2_TRACE_SPAN("dcv", "zip_aggregate");
  PS2_ASSIGN_OR_RETURN(
      AggregateValue value,
      RunAggregate(*this, AggKind::kZipAggregate, others, udf_id));
  return std::move(value.parts);
}

}  // namespace ps2
