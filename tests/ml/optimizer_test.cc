#include "ml/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace ps2 {
namespace {

TEST(OptimizerTest, StateVectorCounts) {
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kSgd), 0);
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kAdagrad), 1);
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kRmsProp), 1);
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kAdam), 2);
}

TEST(OptimizerTest, KindNames) {
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kSgd), "SGD");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kAdam), "Adam");
}

TEST(OptimizerTest, SgdStep) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kSgd;
  opt.learning_rate = 0.1;
  double w[2] = {1.0, -1.0};
  double g[2] = {2.0, -4.0};
  ApplyOptimizerStep(opt, 1, w, g, nullptr, nullptr, 2);
  EXPECT_DOUBLE_EQ(w[0], 0.8);
  EXPECT_DOUBLE_EQ(w[1], -0.6);
}

TEST(OptimizerTest, SgdWithL2ShrinksWeights) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kSgd;
  opt.learning_rate = 0.1;
  opt.l2 = 1.0;
  double w[1] = {1.0};
  double g[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g, nullptr, nullptr, 1);
  EXPECT_DOUBLE_EQ(w[0], 0.9);
}

TEST(OptimizerTest, AdagradAccumulatesSquares) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdagrad;
  opt.learning_rate = 1.0;
  opt.epsilon = 0.0;
  double w[1] = {0.0};
  double g[1] = {2.0};
  double s[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g, s, nullptr, 1);
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(w[0], -1.0);  // -lr * g / sqrt(s)
  ApplyOptimizerStep(opt, 2, w, g, s, nullptr, 1);
  EXPECT_DOUBLE_EQ(s[0], 8.0);
  EXPECT_NEAR(w[0], -1.0 - 2.0 / std::sqrt(8.0), 1e-12);
}

TEST(OptimizerTest, RmsPropDecaysSecondMoment) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kRmsProp;
  opt.learning_rate = 1.0;
  opt.rho = 0.5;
  opt.epsilon = 0.0;
  double w[1] = {0.0};
  double g[1] = {2.0};
  double s[1] = {8.0};
  ApplyOptimizerStep(opt, 1, w, g, s, nullptr, 1);
  EXPECT_DOUBLE_EQ(s[0], 0.5 * 8.0 + 0.5 * 4.0);
  EXPECT_NEAR(w[0], -2.0 / std::sqrt(6.0), 1e-12);
}

TEST(OptimizerTest, AdamFirstStepIsBiasCorrected) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.1;
  double w[1] = {0.0};
  double g[1] = {3.0};
  double s[1] = {0.0};
  double v[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g, s, v, 1);
  // After bias correction the first step is ~-lr * sign(g) regardless of g.
  EXPECT_NEAR(w[0], -0.1, 1e-6);
}

TEST(OptimizerTest, AdamStationaryCoordinateStaysPut) {
  // Once a coordinate's gradient goes (and stays) zero, its weight must not
  // drift — the failure mode of the paper's as-written Eq. (1).
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.1;
  double w[1] = {0.0};
  double s[1] = {0.0};
  double v[1] = {0.0};
  double g_hot[1] = {1.0};
  double g_zero[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g_hot, s, v, 1);
  double after_hot = w[0];
  for (int t = 2; t <= 500; ++t) {
    ApplyOptimizerStep(opt, t, w, g_zero, s, v, 1);
  }
  // Standard Adam's momentum tail moves the coordinate a bounded amount
  // (here well under 1.0); the paper-as-written variant explodes to ~lr*t.
  EXPECT_LT(std::abs(w[0] - after_hot), 1.0);
  EXPECT_TRUE(std::isfinite(w[0]));
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize f(w) = 0.5*(w-3)^2; gradient = w-3.
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.1;
  double w[1] = {0.0};
  double s[1] = {0.0};
  double v[1] = {0.0};
  for (int t = 1; t <= 500; ++t) {
    double g[1] = {w[0] - 3.0};
    ApplyOptimizerStep(opt, t, w, g, s, v, 1);
  }
  EXPECT_NEAR(w[0], 3.0, 0.05);
}

TEST(OptimizerTest, ZipUdfMatchesDirectApplication) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.05;
  auto step = std::make_shared<std::atomic<int64_t>>(0);
  ZipFn zip = MakeOptimizerZip(opt, step);

  const size_t n = 16;
  std::vector<double> w_zip(n, 0.1), s_zip(n, 0.0), v_zip(n, 0.0),
      g(n, 0.5);
  std::vector<double> w_ref = w_zip, s_ref = s_zip, v_ref = v_zip;
  for (int t = 1; t <= 3; ++t) {
    step->fetch_add(1);
    std::vector<double*> rows{w_zip.data(), s_zip.data(), v_zip.data(),
                              g.data()};
    zip(rows, n, 0);
    ApplyOptimizerStep(opt, t, w_ref.data(), g.data(), s_ref.data(),
                       v_ref.data(), n);
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(w_zip[i], w_ref[i]);
    EXPECT_DOUBLE_EQ(s_zip[i], s_ref[i]);
    EXPECT_DOUBLE_EQ(v_zip[i], v_ref[i]);
  }
}

TEST(OptimizerTest, SgdZipUsesTwoRows) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kSgd;
  opt.learning_rate = 1.0;
  auto step = std::make_shared<std::atomic<int64_t>>(1);
  ZipFn zip = MakeOptimizerZip(opt, step);
  std::vector<double> w{1.0}, g{0.25};
  std::vector<double*> rows{w.data(), g.data()};
  zip(rows, 1, 0);
  EXPECT_DOUBLE_EQ(w[0], 0.75);
}

/// Adam as it was before its bias corrections were folded into lr and eps:
/// three divides per coordinate, each op one rounded IEEE op, left to right.
const auto kThreeDivideAdam = [](const OptimizerOptions& o, int64_t t,
                                 double* w, const double* g, double* s,
                                 double* v, size_t n) {
  const double s_corr = 1.0 - std::pow(o.beta2, static_cast<double>(t));
  const double v_corr = 1.0 - std::pow(o.beta1, static_cast<double>(t));
  for (size_t i = 0; i < n; ++i) {
    const double gi = g[i] + o.l2 * w[i];
    s[i] = o.beta2 * s[i] + (1.0 - o.beta2) * gi * gi;
    v[i] = o.beta1 * v[i] + (1.0 - o.beta1) * gi;
    w[i] = w[i] - o.learning_rate * (v[i] / v_corr) /
                      (std::sqrt(s[i] / s_corr) + o.epsilon);
  }
};

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Bit equality with DESIGN.md §8's one carve-out: any NaN matches any NaN
/// (which NaN an op returns depends on operand order, which the compiler
/// may commute).
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return Bits(a) == Bits(b);
}

/// Distance in representable doubles between two finite values (so
/// +0.0 and -0.0 are 0 apart).
uint64_t UlpDistance(double a, double b) {
  auto ordered = [](double x) {
    const auto b = static_cast<int64_t>(Bits(x));
    return b < 0 ? std::numeric_limits<int64_t>::min() - b : b;
  };
  const int64_t oa = ordered(a), ob = ordered(b);
  return oa > ob ? static_cast<uint64_t>(oa) - static_cast<uint64_t>(ob)
                 : static_cast<uint64_t>(ob) - static_cast<uint64_t>(oa);
}

/// Operands with zeros, -0.0, denormals, huge magnitudes and inf/NaN mixed
/// into regular values; `nonneg` folds the sign away, as for s.
std::vector<double> SpecialOperands(std::mt19937_64* rng, size_t n,
                                    bool nonneg) {
  std::uniform_real_distribution<double> val(-8.0, 8.0);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    double x;
    switch (i % 8) {
      case 0: x = 0.0; break;
      case 1: x = -0.0; break;
      case 2: x = std::numeric_limits<double>::denorm_min() * (1.0 + i); break;
      case 3: x = 1e300 * val(*rng); break;
      case 4:
        x = i % 16 == 4 ? std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::quiet_NaN();
        break;
      default: x = val(*rng); break;
    }
    out[i] = nonneg ? std::fabs(x) : x;
  }
  std::shuffle(out.begin(), out.end(), *rng);
  return out;
}

TEST(OptimizerTest, AdamMatchesThreeDivideFormOnceCorrectionsAreOne) {
  // At t = 2^40 both beta^t underflow to 0, so both corrections are exactly
  // 1 and the folded lr and eps are the configured ones: the two forms run
  // the same rounded ops on every operand, special values included.
  const int64_t t = int64_t{1} << 40;
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  ASSERT_EQ(1.0 - std::pow(opt.beta1, static_cast<double>(t)), 1.0);
  ASSERT_EQ(1.0 - std::pow(opt.beta2, static_cast<double>(t)), 1.0);
  std::mt19937_64 rng(2026);
  const size_t n = 259;
  for (double eps : {1e-8, 0.0}) {
    for (double l2 : {0.0, 0.01}) {
      opt.epsilon = eps;
      opt.l2 = l2;
      std::vector<double> w = SpecialOperands(&rng, n, false);
      const std::vector<double> g = SpecialOperands(&rng, n, false);
      std::vector<double> s = SpecialOperands(&rng, n, true);
      std::vector<double> v = SpecialOperands(&rng, n, false);
      std::vector<double> w_old = w, s_old = s, v_old = v;
      ApplyOptimizerStep(opt, t, w.data(), g.data(), s.data(), v.data(), n);
      kThreeDivideAdam(opt, t, w_old.data(), g.data(), s_old.data(),
                       v_old.data(), n);
      for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(::testing::Message() << "eps " << eps << " l2 " << l2
                                          << " i " << i);
        EXPECT_TRUE(SameBits(w[i], w_old[i])) << w[i] << " vs " << w_old[i];
        EXPECT_TRUE(SameBits(s[i], s_old[i])) << s[i] << " vs " << s_old[i];
        EXPECT_TRUE(SameBits(v[i], v_old[i])) << v[i] << " vs " << v_old[i];
      }
    }
  }
}

TEST(OptimizerTest, AdamStepStaysWithinUlpBoundOfThreeDivideForm) {
  // With w = 0 and no L2 the new weight is exactly minus the step, so this
  // compares the steps themselves. Relative to the exact step, the
  // three-divide form rounds to within 5.5u (u = 2^-53) and the folded form
  // within 8u (3u in lr_t, 2u in eps_t), so the two are at most 13.5u|q|,
  // i.e. under 14 ulps, apart for normal, finite results.
  constexpr uint64_t kMaxUlps = 14;
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.618;
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> signed_val(-8.0, 8.0);
  std::uniform_real_distribution<double> second_moment(1e-6, 64.0);
  const size_t n = 64;
  uint64_t worst = 0;
  for (double eps : {1e-8, 0.0}) {
    opt.epsilon = eps;
    for (int64_t t = 1; t <= 200; ++t) {
      std::vector<double> w(n, 0.0), g(n), s(n), v(n);
      for (size_t i = 0; i < n; ++i) {
        g[i] = signed_val(rng);
        s[i] = second_moment(rng);
        v[i] = signed_val(rng);
      }
      std::vector<double> w_old = w, s_old = s, v_old = v;
      EXPECT_EQ(ApplyOptimizerStep(opt, t, w.data(), g.data(), s.data(),
                                   v.data(), n),
                12 * n);
      kThreeDivideAdam(opt, t, w_old.data(), g.data(), s_old.data(),
                       v_old.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(std::isnormal(w_old[i])) << "t " << t << " i " << i;
        EXPECT_EQ(Bits(s[i]), Bits(s_old[i]));
        EXPECT_EQ(Bits(v[i]), Bits(v_old[i]));
        const uint64_t d = UlpDistance(w[i], w_old[i]);
        EXPECT_LE(d, kMaxUlps) << "eps " << eps << " t " << t << " i " << i
                               << ": " << w[i] << " vs " << w_old[i];
        worst = std::max(worst, d);
      }
    }
  }
  RecordProperty("worst_ulps", static_cast<int>(worst));
}

TEST(OptimizerTest, AdamRejectsAStepCountBelowOne) {
  // t = 0 would make both bias corrections 0.
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  double w[1] = {1.0}, g[1] = {1.0}, s[1] = {0.0}, v[1] = {0.0};
  EXPECT_DEATH(ApplyOptimizerStep(opt, 0, w, g, s, v, 1), "1-based");
  EXPECT_DEATH(ApplyOptimizerStep(opt, -1, w, g, s, v, 1), "1-based");
}

class OptimizerConvergenceSweep
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceSweep, ReducesQuadraticLoss) {
  OptimizerOptions opt;
  opt.kind = GetParam();
  switch (opt.kind) {
    case OptimizerKind::kSgd:
      opt.learning_rate = 0.3;
      break;
    case OptimizerKind::kAdagrad:
      opt.learning_rate = 1.0;  // Adagrad's shrinking steps need a big base
      break;
    default:
      opt.learning_rate = 0.1;
      break;
  }
  const size_t n = 8;
  std::vector<double> w(n, 5.0), s(n, 0.0), v(n, 0.0), g(n);
  auto loss = [&] {
    double total = 0;
    for (double x : w) total += 0.5 * x * x;
    return total;
  };
  double initial = loss();
  for (int t = 1; t <= 200; ++t) {
    for (size_t i = 0; i < n; ++i) g[i] = w[i];
    ApplyOptimizerStep(opt, t, w.data(), g.data(),
                       OptimizerStateVectors(opt.kind) >= 1 ? s.data()
                                                            : nullptr,
                       OptimizerStateVectors(opt.kind) >= 2 ? v.data()
                                                            : nullptr,
                       n);
  }
  EXPECT_LT(loss(), initial * 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerConvergenceSweep,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kAdagrad,
                                           OptimizerKind::kRmsProp,
                                           OptimizerKind::kAdam),
                         [](const auto& info) {
                           return OptimizerKindName(info.param);
                         });

}  // namespace
}  // namespace ps2
