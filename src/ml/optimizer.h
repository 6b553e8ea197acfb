#pragma once

// Optimizers (paper §3.1 / §5.2.4): SGD, Adam, Adagrad, RMSProp.
//
// One per-coordinate kernel — kernels::OptimizerStep, the dispatched
// scalar/AVX2 `optimizer_step` of the kernel layer (DESIGN.md §8) — is the
// single implementation, used three ways, which is what makes the system
// comparison apples-to-apples ("these systems enjoy the same statistical
// efficiency", paper §6.1):
//   * server-side, as a DCV Zip UDF (PS2's element-wise multi-vector update),
//   * worker-side, on pulled slices (the "PS-" pull/push baselines),
//   * driver-side, on the full dense model (the Spark MLlib baseline).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "ps/ps_server.h"

namespace ps2 {

enum class OptimizerKind { kSgd, kAdam, kAdagrad, kRmsProp };

const char* OptimizerKindName(OptimizerKind kind);

/// \brief Hyperparameters (paper Appendix A defaults for LR).
struct OptimizerOptions {
  OptimizerKind kind = OptimizerKind::kSgd;
  double learning_rate = 0.618;  ///< paper Table 4
  double beta1 = 0.9;            ///< Adam: momentum (1st-moment) decay
  double beta2 = 0.999;          ///< Adam: 2nd-moment decay
  double epsilon = 1e-8;
  double rho = 0.9;              ///< RMSProp decay
  double l2 = 0.0;               ///< L2 regularization strength
};

/// Number of auxiliary state vectors (beyond weight + gradient) the
/// optimizer keeps: Adam 2 (s, v), Adagrad/RMSProp 1, SGD 0.
int OptimizerStateVectors(OptimizerKind kind);

/// \brief Applies one optimizer step over `n` coordinates.
///
/// `w` weights, `g` gradient (already averaged over the batch), `s` second
/// moment accumulator, `v` first moment / velocity (may be nullptr when the
/// optimizer does not use them), `t` the 1-based step count (Adam bias
/// correction; Adam fails a check for t < 1). Adam follows Kingma & Ba, not
/// the letter of paper Eq. (1): s is the decaying average of squared
/// gradients with beta2, v of gradients with beta1, and the bias
/// corrections are folded into the step size and eps (see optimizer.cc).
/// w, g, s and v must not alias.
/// Runs kernels::OptimizerStep; returns its op count (SGD 3n, Adagrad 7n,
/// RMSProp 8n, Adam 12n).
uint64_t ApplyOptimizerStep(const OptimizerOptions& options, int64_t t,
                            double* w, const double* g, double* s, double* v,
                            size_t n);

/// Builds a server-side Zip UDF implementing the optimizer step over
/// co-located rows ordered [w, s, v, g] (Adam; Fig. 3's four DCVs),
/// [w, s, g] (Adagrad/RMSProp) or [w, g] (SGD). Register it with arity
/// 2 + OptimizerStateVectors(kind), so the server rejects a zip naming it
/// with another operand count. The shared `step` counter is read at
/// execution time; the trainer increments it once per iteration.
ZipFn MakeOptimizerZip(const OptimizerOptions& options,
                       std::shared_ptr<std::atomic<int64_t>> step);

}  // namespace ps2
