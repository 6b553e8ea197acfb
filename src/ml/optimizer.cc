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
      //
      // The bias corrections c2 = 1 - beta2^t and c1 = 1 - beta1^t are
      // folded into the per-call constants (Kingma & Ba §2, last
      // paragraph): lr*(v/c1) / (sqrt(s/c2) + eps) equals
      // lr_t*v / (sqrt(s) + eps_t) with lr_t = lr*sqrt(c2)/c1 and
      // eps_t = eps*sqrt(c2), so the kernel divides once per coordinate
      // instead of three times. The two forms round differently, so this
      // one matches the three-divide form only where c1 = c2 = 1.
      PS2_CHECK_GE(t, 1) << "Adam's step count is 1-based";
      p.rule = kernels::OptimizerRule::kAdam;
      p.s_decay = options.beta2;
      p.v_decay = options.beta1;
      {
        const double t_d = static_cast<double>(t);
        const double root_c2 = std::sqrt(1.0 - std::pow(options.beta2, t_d));
        const double c1 = 1.0 - std::pow(options.beta1, t_d);
        p.lr = options.learning_rate * root_c2 / c1;
        p.epsilon = options.epsilon * root_c2;
      }
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
