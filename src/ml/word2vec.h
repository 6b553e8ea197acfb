#pragma once

// Word2vec skip-gram with negative sampling on per-key parameters
// (DESIGN.md §13) — the workload that exercises NuPS-style tiering.
//
// Unlike DeepWalk (one big column-partitioned matrix, server-side dots),
// every word here is its OWN two-row matrix homed on a single server
// (MatrixOptions::home_server): row 0 is the input embedding, row 1 the
// context embedding. Workers read whole rows grouped by owning server
// (PsClient::ReadRowsAsync, all selector), compute the SGD step locally,
// and write full-width deltas back. That access pattern is what per-key
// management acts on:
//
//   --param-mgmt=off      every key stays sharded where it was created.
//   --param-mgmt=hotspot  sketch-driven hot replication (PR-2 machinery).
//   --param-mgmt=nups     full tiering: replicate hot, relocate warm keys
//                         to their dominant accessor's co-located server,
//                         leave the cold tail sharded.
//
// The trainer reports per-batch access counts to the ParamMgmtManager and
// ticks it once per epoch, at the stage barrier — relocations never overlap
// in-flight batches.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "data/types.h"
#include "dataflow/dataset.h"
#include "dcv/dcv_context.h"
#include "hotspot/param_mgmt.h"
#include "ml/train_report.h"

namespace ps2 {

/// \brief Word2vec hyperparameters.
struct Word2VecOptions {
  uint32_t vocab = 0;           ///< V (required)
  uint32_t embedding_dim = 32;  ///< K
  double learning_rate = 0.025;
  uint32_t batch_size = 256;
  int negative_samples = 5;
  int epochs = 5;
  uint64_t seed = 7;
  /// Per-key management policy (off / hotspot / nups).
  ParamMgmtOptions param_mgmt;

  Status Validate() const;
};

/// \brief Live handles into the trained model.
struct Word2VecModel {
  uint32_t vocab = 0;
  /// matrix_ids[k]: the two-row matrix of key k.
  std::vector<int> matrix_ids;
  /// The tiering driver (inspectable: HomeOf, relocated_keys, ...).
  std::shared_ptr<ParamMgmtManager> mgmt;
};

/// Trains word2vec over `pairs`. Negative sampling is LOCAL, the NuPS
/// sampling-management scheme: each partition draws negatives from the
/// unigram^0.75 counts of its own pairs, smoothed by the global
/// `key_frequencies` (size >= vocab) so unseen keys keep nonzero mass.
/// Local sampling is what keeps a warm key's traffic concentrated on its
/// dominant accessor — the property the relocation tier exploits. If
/// `model_out` is non-null it receives the live handles, including the
/// ParamMgmtManager.
Result<TrainReport> TrainWord2VecPs2(DcvContext* ctx,
                                     const Dataset<VertexPair>& pairs,
                                     const std::vector<double>& key_frequencies,
                                     const Word2VecOptions& options,
                                     Word2VecModel* model_out = nullptr);

}  // namespace ps2
