#pragma once

// Generalized linear model training on PS2 (paper §3.3 / §5.2.1, Fig. 3).
//
// The PS2 execution flow per iteration:
//   1. model pull    — each worker pulls only the weights its mini-batch
//                      touches (sparse communication),
//   2. gradient calc — workers compute batch gradients locally,
//   3. gradient push — workers `add` sparse gradients into the gradient DCV;
//                      the stage barrier plays Spark's foreach() role,
//   4. model update  — one server-side `zip` over the co-located
//                      [w, s, v, g] DCVs applies the optimizer; no model
//                      bytes cross the network.
//
// The same gradient math is exported for the baseline trainers.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "consistency/consistency.h"
#include "data/types.h"
#include "dataflow/dataset.h"
#include "dcv/dcv_context.h"
#include "hotspot/hotspot_manager.h"
#include "ml/optimizer.h"
#include "ml/train_report.h"

namespace ps2 {

/// \brief Loss functions for the GLM trainers.
enum class GlmLossKind { kLogistic, kHinge };

/// \brief Options for (distributed) GLM training.
struct GlmOptions {
  uint64_t dim = 0;              ///< feature dimension (required)
  OptimizerOptions optimizer;    ///< paper Table 4 defaults
  double batch_fraction = 0.01;  ///< paper Table 4: mini_batch_fraction
  int iterations = 100;
  GlmLossKind loss = GlmLossKind::kLogistic;
  uint64_t seed = 1;
  /// Checkpoint all PS state every N iterations (paper §5.3's periodic
  /// checkpointing); 0 disables. Recovery from a server failure then loses
  /// at most N iterations of that server's shard.
  int checkpoint_every = 0;
  /// Hot-parameter management (DESIGN.md §5d): replicate frequently pulled
  /// weight rows and serve them from client caches at bounded staleness.
  HotspotOptions hotspot;
  /// Consistency regime (consistency/, DESIGN.md §11). BSP (the default)
  /// runs the paper's synchronous Fig. 3 flow, bit-identical to before the
  /// knob existed. SSP/ASP route through the ConsistencyController and
  /// require SGD (only additive deltas compose across stale workers).
  ConsistencyPolicy consistency;

  Status Validate() const {
    if (dim == 0) return Status::InvalidArgument("dim must be set");
    if (batch_fraction <= 0 || batch_fraction > 1) {
      return Status::InvalidArgument("batch_fraction must be in (0,1]");
    }
    if (iterations <= 0) {
      return Status::InvalidArgument("iterations must be positive");
    }
    if (hotspot.enabled) PS2_RETURN_NOT_OK(hotspot.Validate());
    PS2_RETURN_NOT_OK(consistency.Validate());
    return Status::OK();
  }
};

/// \brief A mini-batch gradient plus bookkeeping.
struct BatchGradient {
  SparseVector gradient;  ///< sum of per-example gradients (unnormalized)
  double loss_sum = 0;
  uint64_t count = 0;
  uint64_t ops = 0;  ///< scalar ops spent computing it
};

/// \brief A mini-batch's feature support in slot form.
///
/// `keys` are the sorted unique feature ids the batch touches — what a
/// worker pulls. `slots` has one entry per nonzero of the batch, examples in
/// order, each the position of that nonzero's feature id in `keys`. Every
/// per-feature array of the step (pulled weights, gradient) is indexed by
/// slot, so the step needs no key lookups.
struct BatchIndex {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> slots;
};

/// Builds the slot index of `batch`.
BatchIndex CollectBatchIndices(const std::vector<Example>& batch);

/// Computes the unnormalized gradient of `rows`, the examples `batch` was
/// built from; `w_at_slot[s]` is the weight of feature `batch.keys[s]`. The
/// gradient comes out sorted by key and holds every key of an example with a
/// nonzero gradient scale (so a hinge batch omits keys that only
/// zero-scale examples touch).
BatchGradient ComputeBatchGradient(const std::vector<Example>& rows,
                                   const BatchIndex& batch,
                                   const double* w_at_slot, GlmLossKind loss);

/// ComputeBatchGradient for trainers that hold the whole dense model `w`
/// (the MLlib, MLlib*, DistML and Petuum baselines): gathers `w` at the
/// batch keys.
BatchGradient ComputeDenseBatchGradient(const std::vector<Example>& rows,
                                        const std::vector<double>& w,
                                        GlmLossKind loss);

/// \brief Trains a GLM with the full PS2/DCV machinery.
///
/// If `weight_out` is non-null it receives the weight DCV (still live in
/// `ctx`) for later pulls/predictions.
Result<TrainReport> TrainGlmPs2(DcvContext* ctx, const Dataset<Example>& data,
                                const GlmOptions& options,
                                Dcv* weight_out = nullptr);

}  // namespace ps2
