// Equivalence tests for the runtime-dispatched kernel backends (DESIGN.md
// §8). The contract under test: for every kernel, the AVX2 backend produces
// the SAME BITS as the scalar reference — not merely close values — across
// awkward lengths (0..4 lane groups plus tails), unaligned base pointers,
// and non-finite inputs. When the AVX2 backend is compiled out or the CPU
// lacks it, the backend-pair tests degenerate to scalar-vs-scalar and still
// exercise the dispatch wrappers' chunking logic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "linalg/kernels/kernels.h"

namespace ps2 {
namespace kernels {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise equality with one carve-out: two NaNs are equivalent whatever
/// their payload/sign. x86 NaN selection depends on operand order and the
/// compiler may commute scalar `x + y` freely, so NaN payloads cannot be
/// pinned at the C++ level (e.g. (0 * -inf) + (x * NaN) yields 0xfff8... or
/// 0x7ff8... depending on which operand the add keeps). Every non-NaN
/// result — including signed zeros and infinities — must match exactly;
/// EXPECT_EQ on doubles would miss -0.0 vs 0.0, hence the bit compare.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what, size_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameBits(a[i], b[i]))
        << what << " n=" << n << " differs at [" << i << "]: " << a[i]
        << " vs " << b[i];
  }
}

/// Fills with a mix of regular values, exact zeros, denormals, NaN and inf,
/// so div-by-zero masking, nnz counting and NaN propagation are all hit.
std::vector<double> RandomInput(std::mt19937_64* rng, size_t n) {
  std::uniform_real_distribution<double> val(-8.0, 8.0);
  std::uniform_int_distribution<int> kind(0, 19);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind(*rng)) {
      case 0:
        out[i] = 0.0;
        break;
      case 1:
        out[i] = -0.0;
        break;
      case 2:
        out[i] = kNan;
        break;
      case 3:
        out[i] = (i % 2 == 0) ? kInf : -kInf;
        break;
      case 4:
        out[i] = std::numeric_limits<double>::denorm_min() * (1.0 + i);
        break;
      default:
        out[i] = val(*rng);
        break;
    }
  }
  return out;
}

/// Lengths 0..3 full reduction bodies (every tail remainder 0..15 after one
/// and two 16-element groups) plus chunk-grid edges.
std::vector<size_t> InterestingLengths() {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 3 * kReduceLanes; ++n) lens.push_back(n);
  lens.push_back(kReduceChunk - 1);
  lens.push_back(kReduceChunk);
  lens.push_back(kReduceChunk + 3);
  lens.push_back(2 * kReduceChunk + kLaneWidth + 1);
  return lens;
}

struct BackendPair {
  const KernelTable* scalar;
  const KernelTable* simd;  ///< scalar again when AVX2 is unavailable
};

BackendPair Backends() {
  BackendPair p;
  p.scalar = &ScalarTable();
  p.simd = Avx2Table() != nullptr ? Avx2Table() : &ScalarTable();
  return p;
}

constexpr OptimizerRule kAllRules[] = {
    OptimizerRule::kSgd, OptimizerRule::kAdagrad, OptimizerRule::kRmsProp,
    OptimizerRule::kAdam};

/// The constants ml/optimizer.cc passes for `rule` at step `t` (paper
/// Appendix A defaults: lr 0.618, beta1 0.9, beta2 0.999, rho 0.9), with
/// Adam's bias corrections folded into lr and eps.
OptimizerParams MakeOptimizerParams(OptimizerRule rule, double l2, int64_t t,
                                    double eps = 1e-8) {
  OptimizerParams p;
  p.rule = rule;
  p.lr = 0.618;
  p.l2 = l2;
  p.epsilon = eps;
  if (rule == OptimizerRule::kRmsProp) p.s_decay = 0.9;
  if (rule == OptimizerRule::kAdam) {
    p.s_decay = 0.999;
    p.v_decay = 0.9;
    const double root_c2 =
        std::sqrt(1.0 - std::pow(0.999, static_cast<double>(t)));
    p.lr = p.lr * root_c2 / (1.0 - std::pow(0.9, static_cast<double>(t)));
    p.epsilon = eps * root_c2;
  }
  return p;
}

/// Optimizer operands: regular values with zeros, -0.0, denormals, tiny and
/// huge magnitudes mixed in (plus the odd inf/NaN). `nonneg` folds the sign
/// away, as for a second-moment accumulator.
std::vector<double> OptimizerInput(std::mt19937_64* rng, size_t n,
                                   bool nonneg) {
  std::uniform_real_distribution<double> val(-8.0, 8.0);
  std::uniform_int_distribution<int> kind(0, 15);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    double x;
    switch (kind(*rng)) {
      case 0: x = 0.0; break;
      case 1: x = -0.0; break;
      case 2: x = std::numeric_limits<double>::denorm_min() * (1.0 + i); break;
      case 3: x = 1e-300 * val(*rng); break;
      case 4: x = 1e300 * val(*rng); break;
      case 5: x = (i % 3 == 0) ? kNan : kInf; break;
      default: x = val(*rng); break;
    }
    out[i] = nonneg ? std::fabs(x) : x;
  }
  return out;
}

/// Operands for one optimizer step starting at `offset` into each buffer,
/// so the vector body starts unaligned.
struct OptimizerOperands {
  std::vector<double> w, g, s, v;

  OptimizerOperands(std::mt19937_64* rng, size_t n, size_t offset)
      : w(OptimizerInput(rng, n + offset, false)),
        g(OptimizerInput(rng, n + offset, false)),
        s(OptimizerInput(rng, n + offset, true)),
        v(OptimizerInput(rng, n + offset, false)) {}
};

TEST(KernelDispatch, ActiveBackendIsValid) {
  const KernelTable& t = Active();
  EXPECT_NE(t.name, nullptr);
  EXPECT_STREQ(SimdModeName(ActiveMode()),
               ActiveMode() == SimdMode::kAvx2 ? "avx2" : "scalar");
  // Scalar must always be forceable; restore afterwards.
  const SimdMode before = ActiveMode();
  EXPECT_TRUE(SetSimdMode(SimdMode::kScalar));
  EXPECT_EQ(ActiveMode(), SimdMode::kScalar);
  SetSimdMode(before);
}

TEST(KernelDispatch, ElementwiseBitExactAcrossLengthsAndOffsets) {
  BackendPair p = Backends();
  std::mt19937_64 rng(20260806);
  for (size_t n : InterestingLengths()) {
    if (n > 3 * kReduceLanes) continue;  // offsets matter for small n only
    for (size_t offset = 0; offset < kLaneWidth; ++offset) {
      std::vector<double> a = RandomInput(&rng, n + offset);
      std::vector<double> b = RandomInput(&rng, n + offset);
      const double* pa = a.data() + offset;
      const double* pb = b.data() + offset;
      std::vector<double> out_s(n, 0.0), out_v(n, 0.0);
      struct Op {
        const char* name;
        void (*fn)(double*, const double*, const double*, size_t);
      };
      const Op ops_s[] = {{"add", p.scalar->add},
                          {"sub", p.scalar->sub},
                          {"mul", p.scalar->mul},
                          {"div", p.scalar->div}};
      const Op ops_v[] = {{"add", p.simd->add},
                          {"sub", p.simd->sub},
                          {"mul", p.simd->mul},
                          {"div", p.simd->div}};
      for (int k = 0; k < 4; ++k) {
        ops_s[k].fn(out_s.data(), pa, pb, n);
        ops_v[k].fn(out_v.data(), pa, pb, n);
        ExpectSameBits(out_s, out_v, ops_s[k].name, n);
      }
      // axpy/scale mutate in place: start both from the same bits.
      std::vector<double> ys(pb, pb + n), yv(pb, pb + n);
      p.scalar->axpy(ys.data(), pa, 1.75, n);
      p.simd->axpy(yv.data(), pa, 1.75, n);
      ExpectSameBits(ys, yv, "axpy", n);
      std::vector<double> ss(pa, pa + n), sv(pa, pa + n);
      p.scalar->scale(ss.data(), -0.3, n);
      p.simd->scale(sv.data(), -0.3, n);
      ExpectSameBits(ss, sv, "scale", n);
    }
  }
}

TEST(KernelDispatch, DivMapsZeroDenominatorToZero) {
  BackendPair p = Backends();
  const std::vector<double> a = {1.0, -2.0, kNan, kInf, 5.0, 0.0, -0.0, 9.0};
  const std::vector<double> b = {0.0, -0.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0};
  std::vector<double> out_s(a.size()), out_v(a.size());
  p.scalar->div(out_s.data(), a.data(), b.data(), a.size());
  p.simd->div(out_v.data(), a.data(), b.data(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (b[i] == 0.0) {
      EXPECT_TRUE(SameBits(out_s[i], 0.0)) << i;
    }
  }
  ExpectSameBits(out_s, out_v, "div-zero", a.size());
}

TEST(KernelDispatch, ReductionChunksBitExact) {
  BackendPair p = Backends();
  std::mt19937_64 rng(7);
  for (size_t n = 0; n <= 3 * kReduceLanes; ++n) {
    for (size_t offset = 0; offset < kLaneWidth; ++offset) {
      std::vector<double> a = RandomInput(&rng, n + offset);
      std::vector<double> b = RandomInput(&rng, n + offset);
      const double* pa = a.data() + offset;
      const double* pb = b.data() + offset;
      EXPECT_TRUE(SameBits(p.scalar->dot_chunk(pa, pb, n),
                           p.simd->dot_chunk(pa, pb, n)))
          << "dot n=" << n << " off=" << offset;
      EXPECT_TRUE(
          SameBits(p.scalar->sum_chunk(pa, n), p.simd->sum_chunk(pa, n)))
          << "sum n=" << n << " off=" << offset;
      EXPECT_TRUE(SameBits(p.scalar->norm2sq_chunk(pa, n),
                           p.simd->norm2sq_chunk(pa, n)))
          << "norm2sq n=" << n << " off=" << offset;
      EXPECT_EQ(p.scalar->nnz_chunk(pa, n), p.simd->nnz_chunk(pa, n))
          << "nnz n=" << n << " off=" << offset;
    }
  }
}

TEST(KernelDispatch, NnzCountsNanAndInfAsNonzero) {
  BackendPair p = Backends();
  const std::vector<double> a = {0.0, -0.0, kNan, kInf, -kInf,
                                 1.0, 0.0,  -3.0, 0.0};
  EXPECT_EQ(p.scalar->nnz_chunk(a.data(), a.size()), 5u);
  EXPECT_EQ(p.simd->nnz_chunk(a.data(), a.size()), 5u);
}

/// The dispatched wrappers must give the same bits regardless of the active
/// backend AND regardless of whether the size crosses the parallel cutoff —
/// chunk grid and combine order depend only on n.
TEST(KernelDispatch, DispatchedReductionsBackendInvariant) {
  std::mt19937_64 rng(99);
  const SimdMode before = ActiveMode();
  for (size_t n : InterestingLengths()) {
    std::vector<double> a = RandomInput(&rng, n);
    std::vector<double> b = RandomInput(&rng, n);
    SetSimdMode(SimdMode::kScalar);
    double dot_s = 0.0;
    Dot(a.data(), b.data(), n, &dot_s);
    const double sum_s = Sum(a.data(), n);
    const double nrm_s = Norm2Sq(a.data(), n);
    const size_t nnz_s = Nnz(a.data(), n);
    if (!SetSimdMode(SimdMode::kAvx2)) SetSimdMode(SimdMode::kScalar);
    double dot_v = 0.0;
    Dot(a.data(), b.data(), n, &dot_v);
    EXPECT_TRUE(SameBits(dot_s, dot_v)) << "dot n=" << n;
    EXPECT_TRUE(SameBits(sum_s, Sum(a.data(), n))) << "sum n=" << n;
    EXPECT_TRUE(SameBits(nrm_s, Norm2Sq(a.data(), n))) << "norm2sq n=" << n;
    EXPECT_EQ(nnz_s, Nnz(a.data(), n)) << "nnz n=" << n;
  }
  SetSimdMode(before);
}

TEST(KernelDispatch, OpCountsMatchPreDispatchContract) {
  const size_t n = 1000;
  std::vector<double> a(n, 1.0), b(n, 2.0), dst(n);
  double out = 0.0;
  EXPECT_EQ(Add(dst.data(), a.data(), b.data(), n), n);
  EXPECT_EQ(Sub(dst.data(), a.data(), b.data(), n), n);
  EXPECT_EQ(Mul(dst.data(), a.data(), b.data(), n), n);
  EXPECT_EQ(Div(dst.data(), a.data(), b.data(), n), n);
  EXPECT_EQ(Scale(dst.data(), 2.0, n), n);
  EXPECT_EQ(Copy(dst.data(), a.data(), n), n);
  EXPECT_EQ(Fill(dst.data(), 0.0, n), n);
  EXPECT_EQ(Axpy(dst.data(), a.data(), 1.0, n), 2 * n);
  EXPECT_EQ(Dot(a.data(), b.data(), n, &out), 2 * n);
  std::vector<double> w(n, 1.0), s(n, 0.0), v(n, 0.0);
  const struct {
    OptimizerRule rule;
    uint64_t per_element;
  } steps[] = {{OptimizerRule::kSgd, 3},
               {OptimizerRule::kAdagrad, 7},
               {OptimizerRule::kRmsProp, 8},
               {OptimizerRule::kAdam, 12}};
  for (const auto& step : steps) {
    OptimizerParams p = MakeOptimizerParams(step.rule, 0.0, 1);
    EXPECT_EQ(OptimizerStep(p, w.data(), a.data(), s.data(), v.data(), n),
              step.per_element * n)
        << static_cast<int>(step.rule);
  }
}

TEST(KernelDispatch, HistAccumulateMatchesScalarReference) {
  BackendPair p = Backends();
  std::mt19937_64 rng(13);
  const uint32_t num_features = 7;
  const uint32_t num_bins = 16;
  const size_t num_rows = 523;
  std::vector<uint16_t> bins(num_rows * num_features);
  std::uniform_int_distribution<int> bin(0, num_bins - 1);
  for (auto& v : bins) v = static_cast<uint16_t>(bin(rng));
  std::vector<double> grad = RandomInput(&rng, num_rows);
  std::vector<double> hess = RandomInput(&rng, num_rows);
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < num_rows; i += 2) rows.push_back(i);
  const size_t hist = static_cast<size_t>(num_features) * num_bins;
  std::vector<double> gs(hist, 0.0), hs(hist, 0.0);
  std::vector<double> gv(hist, 0.0), hv(hist, 0.0);
  p.scalar->hist_accum(bins.data(), grad.data(), hess.data(), rows.data(),
                       rows.size(), num_features, num_bins, gs.data(),
                       hs.data());
  p.simd->hist_accum(bins.data(), grad.data(), hess.data(), rows.data(),
                     rows.size(), num_features, num_bins, gv.data(),
                     hv.data());
  ExpectSameBits(gs, gv, "grad_hist", num_rows);
  ExpectSameBits(hs, hv, "hess_hist", num_rows);
}

/// Threaded column-block path (n past kParallelCutoff fans chunks across the
/// kernel pool) hammered from concurrent callers — the tsan label checks the
/// pool handoffs; the assertions check determinism under contention.
TEST(KernelDispatch, ThreadedLargeBlocksDeterministicUnderContention) {
  const size_t n = kParallelCutoff + kReduceChunk + 17;
  std::mt19937_64 rng(4242);
  std::vector<double> a = RandomInput(&rng, n);
  std::vector<double> b = RandomInput(&rng, n);
  double expected_dot = 0.0;
  Dot(a.data(), b.data(), n, &expected_dot);
  const double expected_sum = Sum(a.data(), n);
  std::vector<double> expected_add(n);
  Add(expected_add.data(), a.data(), b.data(), n);

  constexpr int kCallers = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kCallers, 0);
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> out(n);
      for (int iter = 0; iter < 8; ++iter) {
        double d = 0.0;
        Dot(a.data(), b.data(), n, &d);
        if (!SameBits(d, expected_dot)) failures[t]++;
        if (!SameBits(Sum(a.data(), n), expected_sum)) failures[t]++;
        Add(out.data(), a.data(), b.data(), n);
        if (std::memcmp(out.data(), expected_add.data(),
                        n * sizeof(double)) != 0) {
          failures[t]++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(failures[t], 0) << t;
}

/// The optimizer step is element-wise, so every backend must give the same
/// bits for every rule, at every length (the 4-wide body plus each tail
/// length) and misalignment, with and without L2 and eps, at the first step
/// and long after Adam's bias corrections have reached 1.
TEST(KernelDispatch, OptimizerStepBitExactAcrossRulesLengthsAndOffsets) {
  BackendPair p = Backends();
  std::mt19937_64 rng(20261017);
  for (OptimizerRule rule : kAllRules) {
    for (double l2 : {0.0, 0.01}) {
      for (int64_t t : {int64_t{1}, int64_t{2}, int64_t{1} << 40}) {
        for (double eps : {1e-8, 0.0}) {
          const OptimizerParams params =
              MakeOptimizerParams(rule, l2, t, eps);
          for (size_t n = 0; n <= 67; ++n) {
            for (size_t offset = 0; offset < kLaneWidth; ++offset) {
              OptimizerOperands sc(&rng, n, offset);
              OptimizerOperands vec = sc;
              p.scalar->optimizer_step(params, sc.w.data() + offset,
                                       sc.g.data() + offset,
                                       sc.s.data() + offset,
                                       sc.v.data() + offset, n);
              p.simd->optimizer_step(params, vec.w.data() + offset,
                                     vec.g.data() + offset,
                                     vec.s.data() + offset,
                                     vec.v.data() + offset, n);
              SCOPED_TRACE(::testing::Message()
                           << "rule " << static_cast<int>(rule) << " l2 "
                           << l2 << " t " << t << " eps " << eps
                           << " offset " << offset);
              ExpectSameBits(sc.w, vec.w, "optimizer w", n);
              ExpectSameBits(sc.s, vec.s, "optimizer s", n);
              ExpectSameBits(sc.v, vec.v, "optimizer v", n);
            }
          }
        }
      }
    }
  }
}

/// Dispatched optimizer steps on a block past kParallelCutoff (chunks fan
/// out on the kernel pool), from concurrent callers: every caller's result
/// matches the sequential scalar reference bit for bit.
TEST(KernelDispatch, ThreadedOptimizerStepDeterministicUnderContention) {
  const size_t n = kParallelCutoff + kReduceChunk + 17;
  std::mt19937_64 rng(1717);
  const OptimizerOperands start(&rng, n, 0);
  const OptimizerParams params =
      MakeOptimizerParams(OptimizerRule::kAdam, 0.01, 3);
  OptimizerOperands expected = start;
  for (int step = 0; step < 2; ++step) {
    ScalarTable().optimizer_step(params, expected.w.data(),
                                 expected.g.data(), expected.s.data(),
                                 expected.v.data(), n);
  }

  constexpr int kCallers = 4;
  std::vector<std::thread> threads;
  std::vector<OptimizerOperands> results(kCallers, start);
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      OptimizerOperands& r = results[t];
      for (int step = 0; step < 2; ++step) {
        OptimizerStep(params, r.w.data(), r.g.data(), r.s.data(), r.v.data(),
                      n);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kCallers; ++t) {
    SCOPED_TRACE(t);
    ExpectSameBits(results[t].w, expected.w, "threaded w", n);
    ExpectSameBits(results[t].s, expected.s, "threaded s", n);
    ExpectSameBits(results[t].v, expected.v, "threaded v", n);
  }
}

// ---- Wire delta filter codecs ----------------------------------------------

/// Little-endian byte image of `values`, starting `offset` bytes into the
/// buffer, so spans start at every alignment a payload can put them at.
std::vector<uint8_t> SpanBytes(const std::vector<double>& values,
                               size_t offset) {
  std::vector<uint8_t> out(offset + values.size() * sizeof(double), 0xA5);
  if (!values.empty()) {
    std::memcpy(out.data() + offset, values.data(),
                values.size() * sizeof(double));
  }
  return out;
}

/// Reference varint length of the delta-zigzag stream of q.
size_t ReferenceVarintLen(const std::vector<int64_t>& q) {
  size_t len = 0;
  uint64_t prev = 0;
  for (int64_t qi : q) {
    const uint64_t d = static_cast<uint64_t>(qi) - prev;
    uint64_t z = (d << 1) ^ (0 - (d >> 63));
    prev = static_cast<uint64_t>(qi);
    for (++len; z >= 0x80; z >>= 7) ++len;
  }
  return len;
}

/// Quantizer inputs for `step`: exact ties (k + 0.5) * step and their
/// neighbours, +-0.0, denormals, ordinary values up to 32767 steps, and a
/// few quotients beyond 2^31 (all quotients stay below 2^62).
std::vector<double> QuantInput(std::mt19937_64* rng, size_t n, double step) {
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int64_t> k(-40000, 40000);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    double x;
    switch (kind(*rng)) {
      case 0: x = 0.0; break;
      case 1: x = -0.0; break;
      case 2:
        x = std::numeric_limits<double>::denorm_min() * static_cast<double>(i);
        break;
      case 3: x = (static_cast<double>(k(*rng)) + 0.5) * step; break;
      case 4: x = (static_cast<double>(k(*rng)) - 0.5) * step; break;
      case 5:
        x = std::nextafter((static_cast<double>(k(*rng)) + 0.5) * step,
                           i % 2 == 0 ? kInf : -kInf);
        break;
      case 6: x = unit(*rng) * std::ldexp(step, 40); break;
      default: x = unit(*rng) * 32767.0 * step; break;
    }
    out[i] = std::isfinite(x) ? x : 0.0;
  }
  return out;
}

TEST(KernelDispatch, AbsMaxMatchesReferenceAndFiniteFlagAgrees) {
  BackendPair p = Backends();
  std::mt19937_64 rng(1701);
  for (size_t n = 0; n <= 67; ++n) {
    for (size_t offset = 0; offset < kLaneWidth; ++offset) {
      for (bool with_non_finite : {false, true}) {
        std::vector<double> v = RandomInput(&rng, n);
        if (!with_non_finite) {
          for (double& x : v) x = std::isfinite(x) ? x : -0.0;
        }
        bool finite = true;
        double expected = 0.0;
        for (double x : v) {
          finite = finite && std::isfinite(x);
          expected = std::max(expected, std::fabs(x));
        }
        const std::vector<uint8_t> bytes = SpanBytes(v, offset);
        double got_s = -1.0, got_v = -1.0;
        const bool ok_s = p.scalar->absmax(bytes.data() + offset, n, &got_s);
        const bool ok_v = p.simd->absmax(bytes.data() + offset, n, &got_v);
        SCOPED_TRACE(::testing::Message() << "n " << n << " offset " << offset);
        EXPECT_EQ(ok_s, finite);
        EXPECT_EQ(ok_v, finite);
        if (finite) {
          EXPECT_TRUE(SameBits(got_s, expected)) << got_s << " " << expected;
          EXPECT_TRUE(SameBits(got_v, expected)) << got_v << " " << expected;
        }
      }
    }
  }
}

/// Both backends quantize exactly like std::llround of the IEEE quotient —
/// ties away from zero included — and report the same varint length.
TEST(KernelDispatch, QuantizeMatchesLlroundBitExact) {
  BackendPair p = Backends();
  std::mt19937_64 rng(1702);
  const double steps[] = {std::numeric_limits<double>::denorm_min(),
                          1e-310,
                          std::ldexp(1.0, -30),
                          1.5 / 32767.0,
                          0.75,
                          1.0,
                          3.0,
                          1e300,
                          std::ldexp(1.0, 1000)};
  for (double step : steps) {
    for (size_t n = 0; n <= 67; ++n) {
      for (size_t offset = 0; offset < kLaneWidth; ++offset) {
        const std::vector<double> v = QuantInput(&rng, n, step);
        std::vector<int64_t> expected(n);
        for (size_t i = 0; i < n; ++i) expected[i] = std::llround(v[i] / step);
        const std::vector<uint8_t> bytes = SpanBytes(v, offset);
        std::vector<int64_t> q_s(n, 7), q_v(n, 7);
        const size_t len_s =
            p.scalar->quantize(bytes.data() + offset, n, step, q_s.data());
        const size_t len_v =
            p.simd->quantize(bytes.data() + offset, n, step, q_v.data());
        SCOPED_TRACE(::testing::Message()
                     << "step " << step << " n " << n << " offset " << offset);
        EXPECT_EQ(q_s, expected);
        EXPECT_EQ(q_v, expected);
        EXPECT_EQ(len_s, ReferenceVarintLen(expected));
        EXPECT_EQ(len_v, ReferenceVarintLen(expected));
      }
    }
  }
}

TEST(KernelDispatch, QuantizeWithZeroStepGivesZeros) {
  BackendPair p = Backends();
  const std::vector<double> v = {0.0, -0.0, 0.0, -0.0, 0.0, 0.0};
  const std::vector<uint8_t> bytes = SpanBytes(v, 0);
  for (const KernelTable* t : {p.scalar, p.simd}) {
    std::vector<int64_t> q(v.size(), 9);
    EXPECT_EQ(t->quantize(bytes.data(), v.size(), 0.0, q.data()), v.size());
    EXPECT_EQ(q, std::vector<int64_t>(v.size(), 0));
  }
}

TEST(KernelDispatch, Fixed16PackAndDequantizeBitExact) {
  BackendPair p = Backends();
  std::mt19937_64 rng(1703);
  // Wider than 16 bits on purpose: the coding keeps the low 16 bits.
  std::uniform_int_distribution<int64_t> qdist(-70000, 70000);
  const double scales[] = {0.0,     -0.0,  std::numeric_limits<double>::denorm_min(),
                           1e-300,  1.5 / 32767.0, 1.0,
                           1e300,   kInf,  kNan};
  for (size_t n = 0; n <= 67; ++n) {
    for (size_t offset = 0; offset < kLaneWidth; ++offset) {
      std::vector<int64_t> q(n);
      for (int64_t& x : q) x = qdist(rng);
      std::vector<uint8_t> packed_s(offset + 2 * n, 0x5A);
      std::vector<uint8_t> packed_v = packed_s;
      p.scalar->pack_fixed16(q.data(), n, packed_s.data() + offset);
      p.simd->pack_fixed16(q.data(), n, packed_v.data() + offset);
      SCOPED_TRACE(::testing::Message() << "n " << n << " offset " << offset);
      ASSERT_EQ(packed_s, packed_v);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t z = (static_cast<uint64_t>(q[i]) << 1) ^
                           static_cast<uint64_t>(q[i] >> 63);
        ASSERT_EQ(packed_s[offset + 2 * i] | (packed_s[offset + 2 * i + 1] << 8),
                  static_cast<int>(z & 0xFFFF));
      }
      for (double scale : scales) {
        std::vector<uint8_t> out_s(offset + 8 * n, 0), out_v(offset + 8 * n, 0);
        p.scalar->dequant_fixed16(packed_s.data() + offset, n, scale,
                                  out_s.data() + offset);
        p.simd->dequant_fixed16(packed_s.data() + offset, n, scale,
                                out_v.data() + offset);
        for (size_t i = 0; i < n; ++i) {
          double a, b;
          std::memcpy(&a, out_s.data() + offset + 8 * i, 8);
          std::memcpy(&b, out_v.data() + offset + 8 * i, 8);
          const uint16_t z = static_cast<uint16_t>(
              packed_s[offset + 2 * i] | (packed_s[offset + 2 * i + 1] << 8));
          const int64_t back =
              static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
          ASSERT_TRUE(SameBits(a, static_cast<double>(back) * scale))
              << "scale " << scale << " [" << i << "]";
          ASSERT_TRUE(SameBits(a, b)) << "scale " << scale << " [" << i << "]";
        }
      }
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace ps2
