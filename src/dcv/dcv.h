#pragma once

// Dcv: Dimension Co-located Vector — the paper's core abstraction (§4).
//
// A Dcv is one row of a column-partitioned distributed matrix on the
// parameter servers. Dcvs created from the same base via `derive` share the
// matrix's partitioning, so the same dimension of every vector lives on the
// same server and element-wise (column access) operations run entirely
// server-side.
//
// Operator set (paper Table 1):
//   row access:    Pull, PullSparse, Push, Add, Sum, Nnz, Norm2 (+ Max)
//   column access: Axpy, Dot, CopyFrom, SubOf, AddOf, MulOf, DivOf
//                  (+ Fill, Zero, Scale, Zip, ZipAggregate)
//   creation:      DcvContext::Dense / Sparse / Derive (alias Duplicate)
//
// Column ops on NON-co-located Dcvs still work, but take the naive
// pull-compute-push path and cost O(dim) network traffic — the trap of
// paper Fig. 4.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "linalg/sparse_vector.h"
#include "ps/ps_future.h"
#include "ps/ps_types.h"

namespace ps2 {

class DcvBatch;
class DcvContext;
struct RowDeltas;
struct RowSelector;

/// \brief Handle to a distributed vector on the parameter servers.
class Dcv {
 public:
  Dcv() = default;

  uint64_t dim() const { return dim_; }
  RowRef ref() const { return ref_; }
  DcvContext* context() const { return context_; }
  bool valid() const { return context_ != nullptr; }

  /// True if element-wise ops with `other` need no cross-server traffic.
  bool CoLocatedWith(const Dcv& other) const;

  // ---- Row access ----
  //
  // Ops that write the distributed vector are non-const: a Dcv handle is
  // trivially copyable, but the state it names is shared and mutable — the
  // const qualifier tracks whether an op can change what other handles see.

  /// Pulls the whole vector (dense). O(dim) traffic — prefer PullSparse.
  Result<std::vector<double>> Pull() const;

  /// Pulls only `indices` (sorted, unique): PS2's sparse communication.
  Result<std::vector<double>> PullSparse(
      const std::vector<uint64_t>& indices) const;

  /// Adds a dense delta (the gradient-push of paper Fig. 3 line 18).
  Status Push(const std::vector<double>& delta);

  /// Adds a sparse delta.
  Status Add(const SparseVector& delta);

  /// Overwrites the vector with `values` (zero + push).
  Status Set(const std::vector<double>& values);

  Result<double> Sum() const;
  Result<double> Nnz() const;
  Result<double> Norm2() const;
  Result<double> Max() const;

  // ---- Asynchronous row access (paper §5.1's asynchronous client) ----
  //
  // The op runs before the call returns; its PsFuture is the receipt.
  // Wait()/Get() on the issuing thread retrieves the value and charges the
  // traffic (so does dropping it). Ops issued while another is unsettled
  // overlap it and share one round of latency.

  PsFuture<std::vector<double>> PullSparseAsync(
      const std::vector<uint64_t>& indices) const;
  PsFuture<Ack> AddAsync(const SparseVector& delta);

  /// Opens a coalescing multi-op builder on this DCV's context (see
  /// dcv/dcv_batch.h). Sugar for DcvContext::Batch().
  DcvBatch Batch() const;

  // ---- Column access (element-wise, server-side when co-located) ----

  Result<double> Dot(const Dcv& other) const;
  /// this += alpha * x  (the paper's axpy / iaxpy).
  Status Axpy(const Dcv& x, double alpha);
  Status CopyFrom(const Dcv& src);
  Status AddOf(const Dcv& a, const Dcv& b);  ///< this = a + b
  Status SubOf(const Dcv& a, const Dcv& b);  ///< this = a - b
  Status MulOf(const Dcv& a, const Dcv& b);  ///< this = a * b
  Status DivOf(const Dcv& a, const Dcv& b);  ///< this = a / b
  Status Fill(double value);
  Status Zero() { return Fill(0.0); }
  Status Scale(double alpha);

  /// Runs registered server-side UDF `udf_id` over [this, others...] — the
  /// paper's `zip(...).mapPartition{...}` (Fig. 3 lines 22-26). The UDF may
  /// mutate every zipped row, hence non-const.
  Status Zip(const std::vector<Dcv>& others, int udf_id);

  /// Read-only server-side aggregation over [this, others...]; returns one
  /// result vector per partition (paper Fig. 8's split finding).
  Result<std::vector<std::vector<double>>> ZipAggregate(
      const std::vector<Dcv>& others, int udf_id) const;

 private:
  friend class DcvContext;
  Dcv(DcvContext* context, RowRef ref, uint64_t dim)
      : context_(context), ref_(ref), dim_(dim) {}

  /// This row through PsClient::ReadRowsAsync / WriteRowsAsync.
  PsFuture<std::vector<double>> ReadRow(const RowSelector& cols) const;
  PsFuture<Ack> WriteRow(RowDeltas delta);

  DcvContext* context_ = nullptr;
  RowRef ref_;
  uint64_t dim_ = 0;
};

}  // namespace ps2
