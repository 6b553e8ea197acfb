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

#include <algorithm>
#include <cstring>
#include <limits>

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
        _mm256_storeu_pd(w + i, scaled_step(wi, vi, si));
      }
      break;
  }
  if (i < n) {
    ScalarTable().optimizer_step(p, w + i, g + i, s != nullptr ? s + i : s,
                                 v != nullptr ? v + i : v, n - i);
  }
}

// ---- Wire delta filter -----------------------------------------------------
//
// Spans sit at any byte offset inside a payload, so every access is an
// unaligned load/store intrinsic. All results are exact (a max, integers,
// single correctly rounded divides and multiplies), so they match the scalar
// reference bit for bit by construction.

inline __m256d LoadF64x4(const uint8_t* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline double LoadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool AbsMaxAvx2(const uint8_t* src, size_t n, double* max_abs) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  // Two max chains and one all-lanes-finite mask (|v| < inf is false for
  // both inf and NaN); no early exit — non-finite spans are rare.
  __m256d m0 = _mm256_setzero_pd(), m1 = m0;
  __m256d finite = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_andnot_pd(sign, LoadF64x4(src + 8 * i));
    const __m256d a1 = _mm256_andnot_pd(sign, LoadF64x4(src + 8 * i + 32));
    finite = _mm256_and_pd(
        finite, _mm256_and_pd(_mm256_cmp_pd(a0, inf, _CMP_LT_OQ),
                              _mm256_cmp_pd(a1, inf, _CMP_LT_OQ)));
    m0 = _mm256_max_pd(m0, a0);
    m1 = _mm256_max_pd(m1, a1);
  }
  double tail = 0.0;
  if (_mm256_movemask_pd(finite) != 0xF ||
      !ScalarTable().absmax(src + 8 * i, n - i, &tail)) {
    return false;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_max_pd(m0, m1));
  *max_abs = std::max(std::max(std::max(lanes[0], lanes[1]),
                               std::max(lanes[2], lanes[3])),
                      tail);
  return true;
}

// Four quotients per step. While |v/step| < 2^31 — always, for the delta
// filter's step = max|v|/32767 — the truncation is vcvttpd2dq and the
// remainder x - trunc(x) is exact, so the half-away adjustment matches
// RoundHalfAway lane by lane. The varint length of each delta then needs
// only the 2^7/2^14/2^21/2^28 thresholds (|delta| <= 2^32). A block with a
// larger quotient hands the rest of the span to the scalar rounding.
size_t QuantizeAvx2(const uint8_t* src, size_t n, double step, int64_t* q) {
  if (step == 0.0) return ScalarTable().quantize(src, n, step, q);
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d limit = _mm256_set1_pd(2147483648.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i t7 = _mm256_set1_epi64x((int64_t{1} << 7) - 1);
  const __m256i t14 = _mm256_set1_epi64x((int64_t{1} << 14) - 1);
  const __m256i t21 = _mm256_set1_epi64x((int64_t{1} << 21) - 1);
  const __m256i t28 = _mm256_set1_epi64x((int64_t{1} << 28) - 1);
  __m256i extra = zero;  // per lane: varint bytes beyond the first
  __m256i last = zero;   // lane 0: the previous block's last q
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_div_pd(LoadF64x4(src + 8 * i), vstep);
    const __m256d in_range =
        _mm256_cmp_pd(_mm256_andnot_pd(sign, x), limit, _CMP_LT_OQ);
    if (_mm256_movemask_pd(in_range) != 0xF) break;
    const __m128i t32 = _mm256_cvttpd_epi32(x);
    const __m256d r = _mm256_sub_pd(x, _mm256_cvtepi32_pd(t32));
    const __m256i up = _mm256_castpd_si256(_mm256_cmp_pd(r, half, _CMP_GE_OQ));
    const __m256i down =
        _mm256_castpd_si256(_mm256_cmp_pd(r, neg_half, _CMP_LE_OQ));
    // The compare masks are -1 per true lane: t - up + down.
    const __m256i qv = _mm256_add_epi64(
        _mm256_sub_epi64(_mm256_cvtepi32_epi64(t32), up), down);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), qv);
    // Previous q per lane: [last q of the previous block, q0, q1, q2].
    const __m256i rot = _mm256_permute4x64_epi64(qv, _MM_SHUFFLE(2, 1, 0, 3));
    const __m256i d = _mm256_sub_epi64(qv, _mm256_blend_epi32(rot, last, 0x03));
    last = rot;
    const __m256i zz =
        _mm256_xor_si256(_mm256_slli_epi64(d, 1), _mm256_cmpgt_epi64(zero, d));
    extra = _mm256_sub_epi64(extra, _mm256_cmpgt_epi64(zz, t7));
    extra = _mm256_sub_epi64(extra, _mm256_cmpgt_epi64(zz, t14));
    extra = _mm256_sub_epi64(extra, _mm256_cmpgt_epi64(zz, t21));
    extra = _mm256_sub_epi64(extra, _mm256_cmpgt_epi64(zz, t28));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), extra);
  size_t len = i + static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  uint64_t prev = static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm256_castsi256_si128(last)));
  for (; i < n; ++i) {
    q[i] = RoundHalfAway(LoadF64(src + 8 * i) / step);
    len += VarintBytes(ZigZag(static_cast<uint64_t>(q[i]) - prev));
    prev = static_cast<uint64_t>(q[i]);
  }
  return len;
}

void PackFixed16Avx2(const int64_t* q, size_t n, uint8_t* dst) {
  // Bytes 0-1 of each 64-bit zigzag lane, gathered per 128-bit half and
  // then across halves into the low 8 bytes.
  const __m256i gather = _mm256_setr_epi8(
      0, 1, 8, 9, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 1, 8, 9, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i halves = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i zz = _mm256_xor_si256(_mm256_slli_epi64(qv, 1),
                                        _mm256_cmpgt_epi64(zero, qv));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_shuffle_epi8(zz, gather), halves);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 2 * i),
                     _mm256_castsi256_si128(packed));
  }
  if (i < n) ScalarTable().pack_fixed16(q + i, n - i, dst + 2 * i);
}

void DequantFixed16Avx2(const uint8_t* src, size_t n, double scale,
                        uint8_t* dst) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m128i one = _mm_set1_epi32(1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Four u16 -> i32 (exact in a double), unzigzag, one multiply each.
    const __m128i z = _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + 2 * i)));
    const __m128i qi = _mm_xor_si128(
        _mm_srli_epi32(z, 1), _mm_sub_epi32(_mm_setzero_si128(),
                                            _mm_and_si128(z, one)));
    _mm256_storeu_pd(reinterpret_cast<double*>(dst + 8 * i),
                     _mm256_mul_pd(_mm256_cvtepi32_pd(qi), vscale));
  }
  if (i < n) {
    ScalarTable().dequant_fixed16(src + 2 * i, n - i, scale, dst + 8 * i);
  }
}

}  // namespace

const KernelTable* Avx2TableImpl() {
  static const KernelTable table = {
      "avx2",         AddAvx2,          SubAvx2,        MulAvx2,
      DivAvx2,        AxpyAvx2,         ScaleAvx2,      DotChunkAvx2,
      SumChunkAvx2,   Norm2SqChunkAvx2, NnzChunkAvx2,   HistAccumAvx2,
      OptimizerStepAvx2, AbsMaxAvx2,    QuantizeAvx2,   PackFixed16Avx2,
      DequantFixed16Avx2,
  };
  return &table;
}

}  // namespace kernels
}  // namespace ps2

#endif  // PS2_HAVE_AVX2
