// Portable scalar reference backend. This translation unit is compiled with
// -ffp-contract=off and auto-vectorization disabled (see src/CMakeLists.txt)
// so its numerics are a fixed point of reference: no FMA contraction, no
// compiler-chosen reassociation, the exact lane structure written below.
// The AVX2 backend must match it bit-for-bit (kernel_dispatch_test).

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/kernels/kernels.h"

namespace ps2 {
namespace kernels {
namespace {

void AddScalar(double* dst, const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

void SubScalar(double* dst, const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
}

void MulScalar(double* dst, const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

void DivScalar(double* dst, const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = b[i] == 0.0 ? 0.0 : a[i] / b[i];
}

void AxpyScalar(double* y, const double* x, double alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = y[i] + alpha * x[i];
}

void ScaleScalar(double* dst, double alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = dst[i] * alpha;
}

// Reductions follow the canonical lane structure (kernels.h): kReduceLanes
// (16) stride-interleaved accumulators over the body — 4 groups of
// kLaneWidth — combined groups-first, m[j] = (c0[j]+c2[j]) + (c1[j]+c3[j]),
// then lanes, (m0+m2)+(m1+m3) — exactly the vector-add tree and horizontal
// add the AVX2 backend performs — then a sequential scalar tail.

/// Combines acc[group][lane] in the canonical order and reduces the tail.
double CombineLanes(const double acc[4][kLaneWidth]) {
  double m[kLaneWidth];
  for (size_t j = 0; j < kLaneWidth; ++j) {
    m[j] = (acc[0][j] + acc[2][j]) + (acc[1][j] + acc[3][j]);
  }
  return (m[0] + m[2]) + (m[1] + m[3]);
}

double DotChunkScalar(const double* a, const double* b, size_t n) {
  double acc[4][kLaneWidth] = {};
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    for (size_t g = 0; g < 4; ++g) {
      for (size_t j = 0; j < kLaneWidth; ++j) {
        const size_t k = i + g * kLaneWidth + j;
        acc[g][j] += a[k] * b[k];
      }
    }
  }
  double s = CombineLanes(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double SumChunkScalar(const double* a, size_t n) {
  double acc[4][kLaneWidth] = {};
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    for (size_t g = 0; g < 4; ++g) {
      for (size_t j = 0; j < kLaneWidth; ++j) {
        acc[g][j] += a[i + g * kLaneWidth + j];
      }
    }
  }
  double s = CombineLanes(acc);
  for (; i < n; ++i) s += a[i];
  return s;
}

double Norm2SqChunkScalar(const double* a, size_t n) {
  double acc[4][kLaneWidth] = {};
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    for (size_t g = 0; g < 4; ++g) {
      for (size_t j = 0; j < kLaneWidth; ++j) {
        const size_t k = i + g * kLaneWidth + j;
        acc[g][j] += a[k] * a[k];
      }
    }
  }
  double s = CombineLanes(acc);
  for (; i < n; ++i) s += a[i] * a[i];
  return s;
}

size_t NnzChunkScalar(const double* a, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += (a[i] != 0.0) ? 1 : 0;
  return count;
}

void HistAccumScalar(const uint16_t* bins, const double* grad,
                     const double* hess, const uint32_t* rows, size_t num_rows,
                     uint32_t num_features, uint32_t num_bins,
                     double* grad_hist, double* hess_hist) {
  for (size_t r = 0; r < num_rows; ++r) {
    const uint32_t i = rows[r];
    const uint16_t* row_bins =
        bins + static_cast<size_t>(i) * num_features;
    const double g = grad[i];
    const double h = hess[i];
    for (uint32_t f = 0; f < num_features; ++f) {
      const size_t slot = static_cast<size_t>(f) * num_bins + row_bins[f];
      grad_hist[slot] += g;
      hess_hist[slot] += h;
    }
  }
}

void OptimizerStepScalar(const OptimizerParams& p, double* w, const double* g,
                         double* s, double* v, size_t n) {
  const double lr = p.lr, l2 = p.l2, eps = p.epsilon;
  const double sd = p.s_decay, s_in = 1.0 - p.s_decay;
  const double vd = p.v_decay, v_in = 1.0 - p.v_decay;
  switch (p.rule) {
    case OptimizerRule::kSgd:
      for (size_t i = 0; i < n; ++i) {
        const double gi = g[i] + l2 * w[i];
        w[i] = w[i] - lr * gi;
      }
      return;
    case OptimizerRule::kAdagrad:
      for (size_t i = 0; i < n; ++i) {
        const double gi = g[i] + l2 * w[i];
        s[i] = s[i] + gi * gi;
        w[i] = w[i] - lr * gi / (std::sqrt(s[i]) + eps);
      }
      return;
    case OptimizerRule::kRmsProp:
      for (size_t i = 0; i < n; ++i) {
        const double gi = g[i] + l2 * w[i];
        s[i] = sd * s[i] + s_in * gi * gi;
        w[i] = w[i] - lr * gi / (std::sqrt(s[i]) + eps);
      }
      return;
    case OptimizerRule::kAdam:
      for (size_t i = 0; i < n; ++i) {
        const double gi = g[i] + l2 * w[i];
        s[i] = sd * s[i] + s_in * gi * gi;
        v[i] = vd * v[i] + v_in * gi;
        w[i] = w[i] - lr * v[i] / (std::sqrt(s[i]) + eps);
      }
      return;
  }
}

// ---- Wire delta filter -----------------------------------------------------

double LoadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool AbsMaxScalar(const uint8_t* src, size_t n, double* max_abs) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = LoadF64(src + i * sizeof(double));
    if (!std::isfinite(v)) return false;
    m = std::max(m, std::fabs(v));
  }
  *max_abs = m;
  return true;
}

size_t QuantizeScalar(const uint8_t* src, size_t n, double step, int64_t* q) {
  if (step == 0.0) {
    std::fill(q, q + n, int64_t{0});
    return n;
  }
  size_t len = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    q[i] = RoundHalfAway(LoadF64(src + i * sizeof(double)) / step);
    len += VarintBytes(ZigZag(static_cast<uint64_t>(q[i]) - prev));
    prev = static_cast<uint64_t>(q[i]);
  }
  return len;
}

void PackFixed16Scalar(const int64_t* q, size_t n, uint8_t* dst) {
  for (size_t i = 0; i < n; ++i) {
    const auto z = static_cast<uint16_t>(ZigZag(static_cast<uint64_t>(q[i])));
    dst[2 * i] = static_cast<uint8_t>(z);
    dst[2 * i + 1] = static_cast<uint8_t>(z >> 8);
  }
}

void DequantFixed16Scalar(const uint8_t* src, size_t n, double scale,
                          uint8_t* dst) {
  for (size_t i = 0; i < n; ++i) {
    const auto z = static_cast<uint16_t>(src[2 * i] | (src[2 * i + 1] << 8));
    const int64_t q =
        static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
    const double v = static_cast<double>(q) * scale;
    std::memcpy(dst + i * sizeof(double), &v, sizeof(v));
  }
}

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      "scalar",         AddScalar,          SubScalar,
      MulScalar,        DivScalar,          AxpyScalar,
      ScaleScalar,      DotChunkScalar,     SumChunkScalar,
      Norm2SqChunkScalar, NnzChunkScalar,   HistAccumScalar,
      OptimizerStepScalar, AbsMaxScalar,    QuantizeScalar,
      PackFixed16Scalar, DequantFixed16Scalar,
  };
  return table;
}

}  // namespace kernels
}  // namespace ps2
