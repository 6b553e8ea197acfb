// AVX2 backend. Compiled with -mavx2 -mfma -ffp-contract=off on x86-64 only
// (src/CMakeLists.txt adds this TU when the PS2_SIMD option is ON); callers
// reach it through the dispatch table, never directly, so the rest of the
// binary stays runnable on baseline x86-64.
//
// Numeric contract (kernels.h): identical per-element IEEE operations to the
// scalar backend, and the canonical lane structure for reductions. Products
// and additions stay separate vmulpd/vaddpd — no vfmadd — because the scalar
// reference cannot contract, and contraction would change the rounding.
// -ffp-contract=off keeps the compiler from fusing the scalar tail loops.

#include "linalg/kernels/kernels.h"

#ifdef PS2_HAVE_AVX2

#include <immintrin.h>

namespace ps2 {
namespace kernels {
namespace {

void AddAvx2(double* dst, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void SubAvx2(double* dst, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

void MulAvx2(double* dst, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}

void DivAvx2(double* dst, const double* a, const double* b, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vb = _mm256_loadu_pd(b + i);
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(a + i), vb);
    // b==0 (either sign) lanes read as 0, matching the scalar ternary. The
    // masked-away inf/NaN quotients never reach memory.
    const __m256d b_zero = _mm256_cmp_pd(vb, zero, _CMP_EQ_OQ);
    _mm256_storeu_pd(dst + i, _mm256_andnot_pd(b_zero, q));
  }
  for (; i < n; ++i) dst[i] = b[i] == 0.0 ? 0.0 : a[i] / b[i];
}

void AxpyAvx2(double* y, const double* x, double alpha, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] = y[i] + alpha * x[i];
}

void ScaleAvx2(double* dst, double alpha, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(dst + i), va));
  }
  for (; i < n; ++i) dst[i] = dst[i] * alpha;
}

/// Combines the 4 group accumulators and their lanes in the canonical order
/// (kernels.h): m = (c0+c2)+(c1+c3) vector adds, then lanes
/// (m0+m2)+(m1+m3). The scalar backend writes the same tree out explicitly.
inline double ReduceGroups(__m256d c0, __m256d c1, __m256d c2, __m256d c3) {
  const __m256d m =
      _mm256_add_pd(_mm256_add_pd(c0, c2), _mm256_add_pd(c1, c3));
  const __m128d lo = _mm256_castpd256_pd128(m);
  const __m128d hi = _mm256_extractf128_pd(m, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {m0+m2, m1+m3}
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

// Reduction bodies consume kReduceLanes (16) doubles per step into 4
// independent vector accumulators: a single __m256d chain is bound by the
// 4-cycle vaddpd latency (1 elem/cycle — no faster than 4 interleaved
// scalar chains), while 4 chains keep the add pipes full.

double DotChunkAvx2(const double* a, const double* b, size_t n) {
  __m256d c0 = _mm256_setzero_pd(), c1 = c0, c2 = c0, c3 = c0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    c0 = _mm256_add_pd(
        c0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    c1 = _mm256_add_pd(c1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
    c2 = _mm256_add_pd(c2, _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8)));
    c3 = _mm256_add_pd(c3, _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12)));
  }
  double s = ReduceGroups(c0, c1, c2, c3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double SumChunkAvx2(const double* a, size_t n) {
  __m256d c0 = _mm256_setzero_pd(), c1 = c0, c2 = c0, c3 = c0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    c0 = _mm256_add_pd(c0, _mm256_loadu_pd(a + i));
    c1 = _mm256_add_pd(c1, _mm256_loadu_pd(a + i + 4));
    c2 = _mm256_add_pd(c2, _mm256_loadu_pd(a + i + 8));
    c3 = _mm256_add_pd(c3, _mm256_loadu_pd(a + i + 12));
  }
  double s = ReduceGroups(c0, c1, c2, c3);
  for (; i < n; ++i) s += a[i];
  return s;
}

double Norm2SqChunkAvx2(const double* a, size_t n) {
  __m256d c0 = _mm256_setzero_pd(), c1 = c0, c2 = c0, c3 = c0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d v0 = _mm256_loadu_pd(a + i);
    const __m256d v1 = _mm256_loadu_pd(a + i + 4);
    const __m256d v2 = _mm256_loadu_pd(a + i + 8);
    const __m256d v3 = _mm256_loadu_pd(a + i + 12);
    c0 = _mm256_add_pd(c0, _mm256_mul_pd(v0, v0));
    c1 = _mm256_add_pd(c1, _mm256_mul_pd(v1, v1));
    c2 = _mm256_add_pd(c2, _mm256_mul_pd(v2, v2));
    c3 = _mm256_add_pd(c3, _mm256_mul_pd(v3, v3));
  }
  double s = ReduceGroups(c0, c1, c2, c3);
  for (; i < n; ++i) s += a[i] * a[i];
  return s;
}

size_t NnzChunkAvx2(const double* a, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // NEQ_UQ: unordered (NaN) compares true, matching scalar `a[i] != 0.0`.
    const __m256d ne =
        _mm256_cmp_pd(_mm256_loadu_pd(a + i), zero, _CMP_NEQ_UQ);
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(ne))));
  }
  for (; i < n; ++i) count += (a[i] != 0.0) ? 1 : 0;
  return count;
}

void HistAccumAvx2(const uint16_t* bins, const double* grad,
                   const double* hess, const uint32_t* rows, size_t num_rows,
                   uint32_t num_features, uint32_t num_bins,
                   double* grad_hist, double* hess_hist) {
  // Scatter-add into potentially shared slots: the additions themselves must
  // stay sequential (order is part of the numeric contract), so SIMD only
  // computes the slot indices — four features per step: widen 4 u16 bins to
  // u32, slot = f*num_bins + bin — while the adds stay scalar.
  const __m128i feat_step = _mm_set1_epi32(4 * static_cast<int>(num_bins));
  const __m128i feat_base0 =
      _mm_setr_epi32(0, static_cast<int>(num_bins),
                     2 * static_cast<int>(num_bins),
                     3 * static_cast<int>(num_bins));
  alignas(16) int slots[4];
  for (size_t r = 0; r < num_rows; ++r) {
    const uint32_t i = rows[r];
    const uint16_t* row_bins =
        bins + static_cast<size_t>(i) * num_features;
    const double g = grad[i];
    const double h = hess[i];
    __m128i feat_base = feat_base0;
    uint32_t f = 0;
    for (; f + 4 <= num_features; f += 4) {
      const __m128i b16 = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(row_bins + f));
      const __m128i b32 = _mm_cvtepu16_epi32(b16);
      _mm_store_si128(reinterpret_cast<__m128i*>(slots),
                      _mm_add_epi32(feat_base, b32));
      feat_base = _mm_add_epi32(feat_base, feat_step);
      grad_hist[slots[0]] += g;
      hess_hist[slots[0]] += h;
      grad_hist[slots[1]] += g;
      hess_hist[slots[1]] += h;
      grad_hist[slots[2]] += g;
      hess_hist[slots[2]] += h;
      grad_hist[slots[3]] += g;
      hess_hist[slots[3]] += h;
    }
    for (; f < num_features; ++f) {
      const size_t slot = static_cast<size_t>(f) * num_bins + row_bins[f];
      grad_hist[slot] += g;
      hess_hist[slot] += h;
    }
  }
}

// Four coordinates per step, with the scalar reference's operations in its
// order: separate vmulpd/vaddpd/vdivpd/vsqrtpd (all correctly rounded), so
// each lane rounds exactly like OptimizerStepScalar. The n mod 4 tail runs
// the scalar reference itself.
void OptimizerStepAvx2(const OptimizerParams& p, double* w, const double* g,
                       double* s, double* v, size_t n) {
  const __m256d lr = _mm256_set1_pd(p.lr);
  const __m256d l2 = _mm256_set1_pd(p.l2);
  const __m256d eps = _mm256_set1_pd(p.epsilon);
  const __m256d sd = _mm256_set1_pd(p.s_decay);
  const __m256d s_in = _mm256_set1_pd(1.0 - p.s_decay);
  const __m256d vd = _mm256_set1_pd(p.v_decay);
  const __m256d v_in = _mm256_set1_pd(1.0 - p.v_decay);
  const __m256d s_corr = _mm256_set1_pd(p.s_corr);
  const __m256d v_corr = _mm256_set1_pd(p.v_corr);
  // gi = g + l2*w and the step w - lr*num / (sqrt(den) + eps).
  auto grad = [&](__m256d wi, size_t i) {
    return _mm256_add_pd(_mm256_loadu_pd(g + i), _mm256_mul_pd(l2, wi));
  };
  auto scaled_step = [&](__m256d wi, __m256d num, __m256d den) {
    return _mm256_sub_pd(
        wi, _mm256_div_pd(_mm256_mul_pd(lr, num),
                          _mm256_add_pd(_mm256_sqrt_pd(den), eps)));
  };
  size_t i = 0;
  switch (p.rule) {
    case OptimizerRule::kSgd:
      for (; i + 4 <= n; i += 4) {
        const __m256d wi = _mm256_loadu_pd(w + i);
        const __m256d gi = grad(wi, i);
        _mm256_storeu_pd(w + i, _mm256_sub_pd(wi, _mm256_mul_pd(lr, gi)));
      }
      break;
    case OptimizerRule::kAdagrad:
      for (; i + 4 <= n; i += 4) {
        const __m256d wi = _mm256_loadu_pd(w + i);
        const __m256d gi = grad(wi, i);
        const __m256d si =
            _mm256_add_pd(_mm256_loadu_pd(s + i), _mm256_mul_pd(gi, gi));
        _mm256_storeu_pd(s + i, si);
        _mm256_storeu_pd(w + i, scaled_step(wi, gi, si));
      }
      break;
    case OptimizerRule::kRmsProp:
      for (; i + 4 <= n; i += 4) {
        const __m256d wi = _mm256_loadu_pd(w + i);
        const __m256d gi = grad(wi, i);
        const __m256d si =
            _mm256_add_pd(_mm256_mul_pd(sd, _mm256_loadu_pd(s + i)),
                          _mm256_mul_pd(_mm256_mul_pd(s_in, gi), gi));
        _mm256_storeu_pd(s + i, si);
        _mm256_storeu_pd(w + i, scaled_step(wi, gi, si));
      }
      break;
    case OptimizerRule::kAdam:
      for (; i + 4 <= n; i += 4) {
        const __m256d wi = _mm256_loadu_pd(w + i);
        const __m256d gi = grad(wi, i);
        const __m256d si =
            _mm256_add_pd(_mm256_mul_pd(sd, _mm256_loadu_pd(s + i)),
                          _mm256_mul_pd(_mm256_mul_pd(s_in, gi), gi));
        const __m256d vi =
            _mm256_add_pd(_mm256_mul_pd(vd, _mm256_loadu_pd(v + i)),
                          _mm256_mul_pd(v_in, gi));
        _mm256_storeu_pd(s + i, si);
        _mm256_storeu_pd(v + i, vi);
        _mm256_storeu_pd(w + i, scaled_step(wi, _mm256_div_pd(vi, v_corr),
                                            _mm256_div_pd(si, s_corr)));
      }
      break;
  }
  if (i < n) {
    ScalarTable().optimizer_step(p, w + i, g + i, s != nullptr ? s + i : s,
                                 v != nullptr ? v + i : v, n - i);
  }
}

}  // namespace

const KernelTable* Avx2TableImpl() {
  static const KernelTable table = {
      "avx2",         AddAvx2,          SubAvx2,        MulAvx2,
      DivAvx2,        AxpyAvx2,         ScaleAvx2,      DotChunkAvx2,
      SumChunkAvx2,   Norm2SqChunkAvx2, NnzChunkAvx2,   HistAccumAvx2,
      OptimizerStepAvx2,
  };
  return &table;
}

}  // namespace kernels
}  // namespace ps2

#endif  // PS2_HAVE_AVX2
