#include "ml/logreg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <functional>
#include <unordered_map>

#include "common/rng.h"

#include "data/classification_gen.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"

namespace ps2 {
namespace {

ClassificationSpec SmallData() {
  ClassificationSpec spec;
  spec.rows = 5000;
  spec.dim = 20000;
  spec.avg_nnz = 20;
  return spec;
}

class LogregTest : public ::testing::Test {
 protected:
  LogregTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    data_ = MakeClassificationDataset(cluster_.get(), SmallData()).Cache();
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  GlmOptions Options(OptimizerKind kind, double lr, int iterations) {
    GlmOptions options;
    options.dim = SmallData().dim;
    options.optimizer.kind = kind;
    options.optimizer.learning_rate = lr;
    options.batch_fraction = 0.05;
    options.iterations = iterations;
    return options;
  }

  std::unique_ptr<Cluster> cluster_;
  Dataset<Example> data_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(LogregTest, ValidationCatchesBadOptions) {
  GlmOptions options;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // dim unset
  options.dim = 10;
  options.batch_fraction = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.batch_fraction = 0.5;
  options.iterations = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST_F(LogregTest, AdamConverges) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 80));
  EXPECT_EQ(report.system, "PS2-Adam");
  ASSERT_EQ(report.curve.size(), 80u);
  EXPECT_NEAR(report.curve.front().loss, 0.693, 0.01);
  EXPECT_LT(report.final_loss, 0.35);
}

TEST_F(LogregTest, SgdMakesProgress) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kSgd, 2.0, 80));
  EXPECT_LT(report.final_loss, report.curve.front().loss);
}

TEST_F(LogregTest, AdagradAndRmsPropConverge) {
  TrainReport adagrad = *TrainGlmPs2(
      ctx_.get(), data_, Options(OptimizerKind::kAdagrad, 0.3, 60));
  EXPECT_LT(adagrad.final_loss, 0.5);
  TrainReport rmsprop = *TrainGlmPs2(
      ctx_.get(), data_, Options(OptimizerKind::kRmsProp, 0.02, 60));
  EXPECT_LT(rmsprop.final_loss, 0.5);
}

TEST_F(LogregTest, CurveTimesIncrease) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 10));
  for (size_t i = 1; i < report.curve.size(); ++i) {
    EXPECT_GT(report.curve[i].time, report.curve[i - 1].time);
  }
  EXPECT_GE(report.total_time, report.curve.back().time);
}

TEST_F(LogregTest, WeightsPredictTrainingData) {
  Dcv weight;
  TrainReport report = *TrainGlmPs2(
      ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 100), &weight);
  (void)report;
  ASSERT_TRUE(weight.valid());
  std::vector<double> w = *weight.Pull();
  std::vector<Example> examples = data_.Collect();
  EXPECT_GT(Accuracy(examples, w), 0.8);
}

TEST_F(LogregTest, SparseTrafficOnly) {
  // The gradient stage must move O(batch nnz), never O(dim): with dim 20K
  // and tiny batches, per-iteration traffic stays far below dim*8 bytes.
  cluster_->metrics().Reset();
  GlmOptions options = Options(OptimizerKind::kSgd, 1.0, 5);
  options.batch_fraction = 0.002;  // ~10 examples, ~200 distinct features
  ASSERT_TRUE(TrainGlmPs2(ctx_.get(), data_, options).ok());
  uint64_t bytes = cluster_->metrics().Get("net.bytes_worker_to_server") +
                   cluster_->metrics().Get("net.bytes_server_to_worker");
  EXPECT_LT(bytes / 5, SmallData().dim * 8 / 2);
}

TEST_F(LogregTest, TimeToLossHelper) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 60));
  SimTime t = report.TimeToLoss(0.6);
  EXPECT_LT(t, report.total_time);
  EXPECT_TRUE(std::isinf(report.TimeToLoss(-1.0)));
}

TEST_F(LogregTest, SvmWrapperUsesHinge) {
  TrainReport report = *TrainSvmPs2(ctx_.get(), data_,
                                    Options(OptimizerKind::kSgd, 0.5, 60));
  EXPECT_EQ(report.system, "PS2-SVM-SGD");
  EXPECT_LT(report.final_loss, report.curve.front().loss);
}

TEST_F(LogregTest, BatchGradientMatchesManualComputation) {
  std::vector<Example> batch(2);
  batch[0].features = SparseVector({0, 1}, {1.0, 2.0});
  batch[0].label = 1.0;
  batch[1].features = SparseVector({1}, {1.0});
  batch[1].label = 0.0;
  std::vector<double> w{0.5, -0.5};
  BatchGradient bg =
      ComputeDenseBatchGradient(batch, w, GlmLossKind::kLogistic);
  EXPECT_EQ(bg.count, 2u);
  // margin0 = 0.5 - 1.0 = -0.5, scale0 = sigmoid(-0.5) - 1
  // margin1 = -0.5,        scale1 = sigmoid(-0.5) - 0
  double s0 = Sigmoid(-0.5) - 1.0;
  double s1 = Sigmoid(-0.5);
  EXPECT_NEAR(bg.gradient.Get(0), s0 * 1.0, 1e-12);
  EXPECT_NEAR(bg.gradient.Get(1), s0 * 2.0 + s1 * 1.0, 1e-12);
  EXPECT_NEAR(bg.loss_sum,
              LogisticLoss(-0.5, 1.0) + LogisticLoss(-0.5, 0.0), 1e-12);
}

TEST_F(LogregTest, CollectBatchIndicesSortedUnique) {
  std::vector<Example> batch(2);
  batch[0].features = SparseVector({5, 1}, {1, 1});
  batch[1].features = SparseVector({5, 9}, {1, 1});
  BatchIndex index = CollectBatchIndices(batch);
  EXPECT_EQ(index.keys, (std::vector<uint64_t>{1, 5, 9}));
  // One slot per nonzero, examples in order: {1, 5} then {5, 9}.
  EXPECT_EQ(index.slots, (std::vector<uint32_t>{0, 1, 1, 2}));
}

// A hash-map accumulator over a per-key weight lookup: the reference the
// slot-indexed ComputeBatchGradient must match bit for bit.
BatchGradient ReferenceBatchGradient(
    const std::vector<Example>& batch,
    const std::function<double(uint64_t)>& weight_at, GlmLossKind loss) {
  BatchGradient out;
  std::unordered_map<uint64_t, double> grad;
  for (const Example& ex : batch) {
    double margin = 0.0;
    const auto& idx = ex.features.indices();
    const auto& val = ex.features.values();
    for (size_t k = 0; k < idx.size(); ++k) {
      margin += val[k] * weight_at(idx[k]);
    }
    double scale = 0.0;
    if (loss == GlmLossKind::kLogistic) {
      out.loss_sum += LogisticLoss(margin, ex.label);
      scale = LogisticGradientScale(margin, ex.label);
    } else {
      out.loss_sum += HingeLoss(margin, ex.label);
      double y = ex.label > 0.5 ? 1.0 : -1.0;
      scale = (y * margin < 1.0) ? -y : 0.0;
    }
    if (scale != 0.0) {
      for (size_t k = 0; k < idx.size(); ++k) {
        grad[idx[k]] += scale * val[k];
      }
    }
    out.ops += 4 * idx.size() + 8;
    ++out.count;
  }
  std::vector<uint64_t> gi;
  std::vector<double> gv;
  for (const auto& [j, g] : grad) {
    gi.push_back(j);
    gv.push_back(g);
  }
  out.gradient = SparseVector(std::move(gi), std::move(gv));
  return out;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double x : v) out.push_back(Bits(x));
  return out;
}

TEST(LogisticLossAndScaleTest, BitIdenticalToTheSeparateCalls) {
  const double sub = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  // ±0, subnormals, ±1, ±20, ±709, ±746 (exp underflows) and ±inf.
  std::vector<double> grid;
  for (double m : {0.0, sub, 1e-310, 1.0, 20.0, 709.0, 746.0, inf}) {
    grid.push_back(m);
    grid.push_back(-m);
  }
  for (double label : {0.0, 1.0}) {
    for (double margin : grid) {
      double scale = 0.0;
      const double loss = LogisticLossAndScale(margin, label, &scale);
      EXPECT_EQ(Bits(loss), Bits(LogisticLoss(margin, label)))
          << "margin " << margin << " label " << label;
      EXPECT_EQ(Bits(scale), Bits(LogisticGradientScale(margin, label)))
          << "margin " << margin << " label " << label;
      EXPECT_EQ(Bits(scale), Bits(Sigmoid(margin) - label))
          << "margin " << margin << " label " << label;
    }
    // NaN: only NaN-ness is pinned (payloads are unspecified).
    double scale = 0.0;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(LogisticLossAndScale(nan, label, &scale)));
    EXPECT_TRUE(std::isnan(scale));
    EXPECT_TRUE(std::isnan(LogisticLoss(nan, label)));
    EXPECT_TRUE(std::isnan(LogisticGradientScale(nan, label)));
  }
}

TEST(BatchGradientTest, SlotIndexedMatchesHashMapReferenceBitForBit) {
  Rng rng(0x51075);
  // A 40-feature space, so examples share most of their features.
  constexpr uint64_t kDim = 40;
  int zero_scale_batches = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Trial 0 is the empty batch; every batch may hold empty rows.
    const size_t rows = trial == 0 ? 0 : 1 + rng.NextUint64(24);
    std::vector<Example> batch(rows);
    for (Example& ex : batch) {
      std::vector<uint64_t> idx;
      std::vector<double> val;
      const size_t nnz = rng.NextUint64(12);  // 0: an empty row
      for (size_t k = 0; k < nnz; ++k) {
        idx.push_back(rng.NextUint64(kDim));
        val.push_back(rng.NextDouble(-2.0, 2.0));
      }
      ex.features = SparseVector(std::move(idx), std::move(val));
      ex.label = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
    }
    // Large weights push many hinge margins past 1: zero-scale examples.
    std::vector<double> w(kDim);
    for (double& x : w) x = rng.NextDouble(-3.0, 3.0);

    BatchIndex index = CollectBatchIndices(batch);
    std::vector<double> w_at_slot;
    for (uint64_t j : index.keys) w_at_slot.push_back(w[j]);
    for (GlmLossKind loss : {GlmLossKind::kLogistic, GlmLossKind::kHinge}) {
      BatchGradient want = ReferenceBatchGradient(
          batch, [&w](uint64_t j) { return w[j]; }, loss);
      BatchGradient got =
          ComputeBatchGradient(batch, index, w_at_slot.data(), loss);
      EXPECT_EQ(got.gradient.indices(), want.gradient.indices())
          << "trial " << trial;
      EXPECT_EQ(Bits(got.gradient.values()), Bits(want.gradient.values()))
          << "trial " << trial;
      EXPECT_EQ(Bits(got.loss_sum), Bits(want.loss_sum)) << "trial " << trial;
      EXPECT_EQ(got.count, want.count);
      EXPECT_EQ(got.ops, want.ops);
      // The dense-model entry point takes the same path.
      BatchGradient dense = ComputeDenseBatchGradient(batch, w, loss);
      EXPECT_EQ(dense.gradient.indices(), want.gradient.indices());
      EXPECT_EQ(Bits(dense.gradient.values()), Bits(want.gradient.values()));
      if (loss == GlmLossKind::kHinge &&
          got.gradient.nnz() < index.keys.size()) {
        ++zero_scale_batches;
      }
    }
  }
  // The hinge "touched" rule was exercised: some batches had keys only
  // zero-scale examples hit, and they stayed out of the gradient.
  EXPECT_GT(zero_scale_batches, 10);
}

TEST(BatchGradientTest, EmptyBatchGivesEmptyGradient) {
  BatchIndex index = CollectBatchIndices({});
  EXPECT_TRUE(index.keys.empty());
  EXPECT_TRUE(index.slots.empty());
  BatchGradient bg =
      ComputeBatchGradient({}, index, nullptr, GlmLossKind::kLogistic);
  EXPECT_EQ(bg.gradient.nnz(), 0u);
  EXPECT_EQ(bg.count, 0u);
  EXPECT_EQ(bg.loss_sum, 0.0);
}

}  // namespace
}  // namespace ps2
