#pragma once

// DcvContext: creation ops and server-side UDF registration for DCVs.
//
// Owns the parameter-server application (PsMaster + servers) attached to a
// Cluster, mirroring PS2's deployment as a separate application alongside
// Spark. All DCV handles are created here.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "dcv/dcv.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"

namespace ps2 {

class DcvBatch;

/// \brief Factory and runtime context for Dimension Co-located Vectors.
class DcvContext {
 public:
  /// Launches the PS application against `cluster` (spec.num_servers
  /// servers).
  explicit DcvContext(Cluster* cluster);

  Cluster* cluster() const { return cluster_; }
  PsMaster* master() { return master_.get(); }
  PsClient* client() { return client_.get(); }

  /// Creates a dense DCV of `dim` columns, reserving `reserve_rows` rows in
  /// the backing matrix for later `derive` calls (paper §4.3: "(k-1) rows
  /// are pre-allocated for future usage").
  /// `alignment` pins partition boundaries to multiples of a unit (GBDT
  /// histograms); `num_servers` limits the spread (0 = all).
  Result<Dcv> Dense(uint64_t dim, uint32_t reserve_rows = 10,
                    uint64_t alignment = 1, int num_servers = 0,
                    const std::string& name = "dcv");

  /// Creates a sparse-storage DCV (hash-map shards; for very high
  /// dimensional, rarely touched vectors). Row ops only.
  Result<Dcv> Sparse(uint64_t dim, uint32_t reserve_rows = 10,
                     const std::string& name = "dcv_sparse");

  /// Creates a DCV co-located with `base` (the paper's `derive`): hands out
  /// the next pre-allocated row, or transparently allocates an aligned
  /// extension matrix when the reservation is exhausted.
  Result<Dcv> Derive(const Dcv& base);

  /// Paper Fig. 6 alias.
  Result<Dcv> Duplicate(const Dcv& base) { return Derive(base); }

  /// Derives `n` co-located DCVs at once.
  Result<std::vector<Dcv>> DeriveN(const Dcv& base, size_t n);

  /// Creates a matrix of `num_rows` co-located DCVs in one shot and returns
  /// every row handle — the DeepWalk embedding store (paper Fig. 6 allocates
  /// a V*2-row matrix). Rows are initialized server-side to hash-uniform
  /// values in [-init_scale, init_scale] (0 = leave zeroed).
  Result<std::vector<Dcv>> DenseMatrix(uint64_t dim, uint32_t num_rows,
                                       double init_scale = 0.0,
                                       uint64_t init_seed = 0,
                                       const std::string& name = "dcv_matrix",
                                       int num_servers = 0);

  /// Opens a coalescing multi-op builder (dcv/dcv_batch.h): stage dots,
  /// axpys, row pulls/pushes and sparse pulls/pushes, then Submit() once —
  /// the whole batch overlaps into a single round of latency.
  DcvBatch Batch();

  /// Registers a mutating server-side function for use with Dcv::Zip;
  /// `arity` is the operand count it requires (0 = any, see UdfRegistry).
  int RegisterZip(ZipFn fn, size_t arity = 0) {
    return master_->udfs()->RegisterZip(std::move(fn), arity);
  }

  /// Registers an aggregating server-side function for Dcv::ZipAggregate.
  int RegisterZipAggregate(ZipAggFn fn) {
    return master_->udfs()->RegisterZipAggregate(std::move(fn));
  }

  /// Number of servers a DCV's matrix actually spans.
  Result<int> SpanServers(const Dcv& dcv) const;

 private:
  friend class Dcv;

  Cluster* cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;

  std::mutex mu_;
  // base matrix id -> latest extension matrix id for derive overflow.
  std::map<int, int> extensions_;
};

}  // namespace ps2
