// Relaxed-consistency GLM training through TrainGlmPs2: `ssp:<k-1>` runs k
// local SGD steps per stage between barriers; bsp is the one-step baseline.

#include "ml/logreg.h"

#include <gtest/gtest.h>

#include <string>

#include "data/classification_gen.h"

namespace ps2 {
namespace {

class AsyncGlmTest : public ::testing::Test {
 protected:
  AsyncGlmTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    ClassificationSpec ds;
    ds.rows = 4000;
    ds.dim = 20000;
    ds.avg_nnz = 20;
    data_ = MakeClassificationDataset(cluster_.get(), ds).Cache();
    data_.Count();
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  /// SGD with `steps_per_stage` local steps per stage: SSP with slack
  /// steps_per_stage - 1, or BSP for one step.
  GlmOptions Options(int steps_per_stage) {
    GlmOptions options;
    options.dim = 20000;
    options.optimizer.kind = OptimizerKind::kSgd;
    options.optimizer.learning_rate = 10.0;
    options.batch_fraction = 0.05;
    options.iterations = 48;
    if (steps_per_stage > 1) {
      options.consistency = *ConsistencyPolicy::Parse(
          "ssp:" + std::to_string(steps_per_stage - 1));
    }
    return options;
  }

  std::unique_ptr<Cluster> cluster_;
  Dataset<Example> data_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(AsyncGlmTest, Converges) {
  TrainReport report = *TrainGlmPs2(ctx_.get(), data_, Options(4));
  EXPECT_EQ(report.system, "PS2-AsyncSGD");
  EXPECT_LT(report.final_loss, 0.6);
}

TEST_F(AsyncGlmTest, MoreLocalStepsFewerBarriers) {
  TrainReport sync = *TrainGlmPs2(ctx_.get(), data_, Options(1));
  DcvContext fresh(cluster_.get());
  TrainReport async = *TrainGlmPs2(&fresh, data_, Options(8));
  // Same number of SGD steps, an eighth of the stages.
  EXPECT_EQ(sync.curve.size(), 48u);
  EXPECT_EQ(async.curve.size(), 6u);
  EXPECT_LT(async.total_time, sync.total_time);
}

TEST_F(AsyncGlmTest, StalenessDegradesGracefullyNotCatastrophically) {
  TrainReport sync = *TrainGlmPs2(ctx_.get(), data_, Options(1));
  DcvContext fresh(cluster_.get());
  TrainReport stale = *TrainGlmPs2(&fresh, data_, Options(16));
  EXPECT_LT(stale.final_loss, 0.68);                 // still learns
  EXPECT_LT(sync.final_loss, stale.final_loss + 0.15);  // sync not worse
}

TEST_F(AsyncGlmTest, RejectsBadArguments) {
  GlmOptions adam = Options(2);
  adam.optimizer.kind = OptimizerKind::kAdam;
  EXPECT_TRUE(TrainGlmPs2(ctx_.get(), data_, adam).status().IsNotImplemented());
}

}  // namespace
}  // namespace ps2
