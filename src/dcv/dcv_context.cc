#include "dcv/dcv_context.h"

#include "common/logging.h"
#include "dcv/dcv_batch.h"

namespace ps2 {

DcvContext::DcvContext(Cluster* cluster)
    : cluster_(cluster),
      master_(std::make_unique<PsMaster>(cluster)),
      client_(std::make_unique<PsClient>(master_.get())) {}

Result<Dcv> DcvContext::Dense(uint64_t dim, uint32_t reserve_rows,
                              uint64_t alignment, int num_servers,
                              const std::string& name) {
  MatrixOptions options;
  options.name = name;
  options.dim = dim;
  options.reserve_rows = reserve_rows;
  options.storage = MatrixStorage::kDense;
  options.alignment = alignment;
  options.num_servers = num_servers;
  PS2_ASSIGN_OR_RETURN(int matrix_id, master_->CreateMatrix(options));
  return Dcv(this, RowRef{matrix_id, 0}, dim);
}

Result<Dcv> DcvContext::Sparse(uint64_t dim, uint32_t reserve_rows,
                               const std::string& name) {
  MatrixOptions options;
  options.name = name;
  options.dim = dim;
  options.reserve_rows = reserve_rows;
  options.storage = MatrixStorage::kSparse;
  PS2_ASSIGN_OR_RETURN(int matrix_id, master_->CreateMatrix(options));
  return Dcv(this, RowRef{matrix_id, 0}, dim);
}

Result<Dcv> DcvContext::Derive(const Dcv& base) {
  if (!base.valid()) return Status::InvalidArgument("derive from invalid DCV");
  // Find the matrix currently handing out rows for this group: the base
  // matrix, or its newest extension.
  int target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = extensions_.find(base.ref().matrix_id);
    target = it == extensions_.end() ? base.ref().matrix_id : it->second;
  }
  Result<RowRef> row = master_->AllocateRow(target);
  if (row.ok()) return Dcv(this, *row, base.dim());
  if (!row.status().IsOutOfRange()) return row.status();

  // Reservation exhausted: grow the group with an aligned extension matrix
  // (same partitioner + rotation, hence still co-located).
  PS2_ASSIGN_OR_RETURN(MatrixMeta base_meta,
                       master_->GetMeta(base.ref().matrix_id));
  PS2_ASSIGN_OR_RETURN(
      int ext_id,
      master_->CreateAlignedMatrix(target, base_meta.name + ".ext",
                                   base_meta.num_rows));
  {
    std::lock_guard<std::mutex> lock(mu_);
    extensions_[base.ref().matrix_id] = ext_id;
  }
  // Row 0 of the new matrix is the derived DCV.
  return Dcv(this, RowRef{ext_id, 0}, base.dim());
}

Result<std::vector<Dcv>> DcvContext::DeriveN(const Dcv& base, size_t n) {
  std::vector<Dcv> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PS2_ASSIGN_OR_RETURN(Dcv dcv, Derive(base));
    out.push_back(dcv);
  }
  return out;
}

Result<std::vector<Dcv>> DcvContext::DenseMatrix(uint64_t dim,
                                                 uint32_t num_rows,
                                                 double init_scale,
                                                 uint64_t init_seed,
                                                 const std::string& name,
                                                 int num_servers) {
  MatrixOptions options;
  options.name = name;
  options.dim = dim;
  options.reserve_rows = num_rows;
  options.num_servers = num_servers;
  PS2_ASSIGN_OR_RETURN(int matrix_id, master_->CreateMatrix(options));
  // Claim every reserved row so later Derive calls on these handles extend
  // rather than alias.
  for (uint32_t r = 1; r < num_rows; ++r) {
    PS2_ASSIGN_OR_RETURN(RowRef ref, master_->AllocateRow(matrix_id));
    (void)ref;
  }
  if (init_scale != 0.0) {
    PS2_RETURN_NOT_OK(
        client_->MatrixInit(matrix_id, 0, num_rows, init_scale, init_seed));
  }
  std::vector<Dcv> rows;
  rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    rows.push_back(Dcv(this, RowRef{matrix_id, r}, dim));
  }
  return rows;
}

Result<int> DcvContext::SpanServers(const Dcv& dcv) const {
  PS2_ASSIGN_OR_RETURN(MatrixMeta meta,
                       master_->GetMeta(dcv.ref().matrix_id));
  return meta.partitioner.num_partitions();
}

DcvBatch DcvContext::Batch() { return DcvBatch(this); }

}  // namespace ps2
