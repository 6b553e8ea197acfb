#include "ml/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "linalg/kernels/kernels.h"

namespace ps2 {

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return "SGD";
    case OptimizerKind::kAdam:
      return "Adam";
    case OptimizerKind::kAdagrad:
      return "Adagrad";
    case OptimizerKind::kRmsProp:
      return "RMSProp";
  }
  return "?";
}

int OptimizerStateVectors(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return 0;
    case OptimizerKind::kAdagrad:
    case OptimizerKind::kRmsProp:
      return 1;
    case OptimizerKind::kAdam:
      return 2;
  }
  return 0;
}

uint64_t ApplyOptimizerStep(const OptimizerOptions& options, int64_t t,
                            double* w, const double* g, double* s, double* v,
                            size_t n) {
  kernels::OptimizerParams p;
  p.lr = options.learning_rate;
  p.l2 = options.l2;
  p.epsilon = options.epsilon;
  switch (options.kind) {
    case OptimizerKind::kSgd:
      p.rule = kernels::OptimizerRule::kSgd;
      break;
    case OptimizerKind::kAdagrad:
      PS2_CHECK(s != nullptr);
      p.rule = kernels::OptimizerRule::kAdagrad;
      break;
    case OptimizerKind::kRmsProp:
      PS2_CHECK(s != nullptr);
      p.rule = kernels::OptimizerRule::kRmsProp;
      p.s_decay = options.rho;
      break;
    case OptimizerKind::kAdam:
      PS2_CHECK(s != nullptr);
      PS2_CHECK(v != nullptr);
      // Paper Eq. (1) writes s_t = b1*s + (1-b1)*g^2, v_t = b2*v + (1-b2)*g
      // with b1=0.9, b2=0.999 — i.e. a *fast*-decaying second moment and a
      // *slow*-decaying momentum, the reverse of Kingma & Ba. That variant
      // genuinely diverges on sparse data (once a coordinate stops being
      // touched its second moment vanishes long before its momentum does,
      // so steps blow up to lr*v/eps). We follow standard Adam: second
      // moment decays with beta2 (slow), momentum with beta1 (fast).
      p.rule = kernels::OptimizerRule::kAdam;
      p.s_decay = options.beta2;
      p.v_decay = options.beta1;
      p.s_corr = 1.0 - std::pow(options.beta2, static_cast<double>(t));
      p.v_corr = 1.0 - std::pow(options.beta1, static_cast<double>(t));
      break;
  }
  return kernels::OptimizerStep(p, w, g, s, v, n);
}

ZipFn MakeOptimizerZip(const OptimizerOptions& options,
                       std::shared_ptr<std::atomic<int64_t>> step) {
  PS2_CHECK(step != nullptr);
  OptimizerOptions opts = options;
  return [opts, step](const std::vector<double*>& rows, size_t n,
                      uint64_t /*col_offset*/) -> uint64_t {
    // The server checks the operand count against the arity the UDF was
    // registered with before any zip runs; this guards direct callers.
    PS2_CHECK_EQ(rows.size(),
                 static_cast<size_t>(2 + OptimizerStateVectors(opts.kind)));
    const int64_t t = step->load();
    // Rows are [w, state..., g]: s = rows[1] and v = rows[2] when present.
    return ApplyOptimizerStep(opts, t, rows.front(), rows.back(),
                              rows.size() > 2 ? rows[1] : nullptr,
                              rows.size() > 3 ? rows[2] : nullptr, n);
  };
}

}  // namespace ps2
