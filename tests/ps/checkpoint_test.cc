#include "ps/checkpoint.h"

#include <gtest/gtest.h>

#include "dataflow/cluster.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

TEST(CheckpointStoreTest, PutGetRoundTrip) {
  CheckpointStore store;
  store.Put(2, {1, 2, 3});
  EXPECT_TRUE(store.Has(2));
  EXPECT_FALSE(store.Has(1));
  EXPECT_EQ(store.Get(2), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(store.Get(1).empty());
}

TEST(CheckpointStoreTest, PutOverwritesAndCounts) {
  CheckpointStore store;
  store.Put(0, {1});
  store.Put(0, {2, 3});
  EXPECT_EQ(store.Get(0), (std::vector<uint8_t>{2, 3}));
  EXPECT_EQ(store.checkpoints_taken(), 2u);
  EXPECT_EQ(store.TotalBytes(), 2u);
}

TEST(CheckpointStoreTest, TryGetDistinguishesMissingFromEmpty) {
  CheckpointStore store;
  store.Put(4, {9, 8});
  store.Put(5, {});  // a legitimately empty image
  ASSERT_TRUE(store.TryGet(4).has_value());
  EXPECT_EQ(*store.TryGet(4), (std::vector<uint8_t>{9, 8}));
  ASSERT_TRUE(store.TryGet(5).has_value());
  EXPECT_TRUE(store.TryGet(5)->empty());
  // Has()+Get() could not tell this apart from the empty image above —
  // TryGet answers check-and-fetch in one lock acquisition.
  EXPECT_FALSE(store.TryGet(6).has_value());
}

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get());
    MatrixOptions options;
    options.dim = 90;
    options.reserve_rows = 2;
    weight_ = RowRef{*master_->CreateMatrix(options), 0};
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
  RowRef weight_;
};

TEST_F(ServerRecoveryTest, RecoverRestoresCheckpointedState) {
  ASSERT_TRUE(WriteRow(*client_, weight_, std::vector<double>(90, 5.0)).ok());
  ASSERT_TRUE(master_->CheckpointAll().ok());
  // Updates after the checkpoint are lost on the failed server only.
  ASSERT_TRUE(WriteRow(*client_, weight_, std::vector<double>(90, 1.0)).ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(1).ok());

  std::vector<double> pulled = *ReadRow(*client_, weight_);
  int restored = 0, fresh = 0;
  for (double v : pulled) {
    if (v == 5.0) ++restored;   // server 1's range: post-checkpoint push lost
    if (v == 6.0) ++fresh;      // surviving servers kept both pushes
  }
  EXPECT_EQ(restored, 30);
  EXPECT_EQ(fresh, 60);
}

TEST_F(ServerRecoveryTest, RecoverWithoutCheckpointZeroes) {
  ASSERT_TRUE(WriteRow(*client_, weight_, std::vector<double>(90, 5.0)).ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(0).ok());
  std::vector<double> pulled = *ReadRow(*client_, weight_);
  int zeros = 0;
  for (double v : pulled) zeros += v == 0.0;
  EXPECT_EQ(zeros, 30);
}

TEST_F(ServerRecoveryTest, CheckpointAndRecoveryChargeTime) {
  ASSERT_TRUE(WriteRow(*client_, weight_, std::vector<double>(90, 5.0)).ok());
  SimTime before = cluster_->clock().Now();
  ASSERT_TRUE(master_->CheckpointAll().ok());
  SimTime after_ckpt = cluster_->clock().Now();
  EXPECT_GT(after_ckpt, before);
  ASSERT_TRUE(master_->KillAndRecoverServer(0).ok());
  EXPECT_GT(cluster_->clock().Now(), after_ckpt);
}

TEST_F(ServerRecoveryTest, MetricsCountEvents) {
  ASSERT_TRUE(master_->CheckpointAll().ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(2).ok());
  EXPECT_EQ(cluster_->metrics().Get("ps.checkpoints"), 1u);
  EXPECT_EQ(cluster_->metrics().Get("ps.server_failures"), 1u);
}

TEST_F(ServerRecoveryTest, BadServerIdRejected) {
  EXPECT_TRUE(master_->KillAndRecoverServer(99).IsInvalidArgument());
  EXPECT_TRUE(master_->KillAndRecoverServer(-1).IsInvalidArgument());
}

TEST_F(ServerRecoveryTest, TrainingContinuesAfterRecovery) {
  // Convergence-style invariant: pushes after recovery accumulate normally.
  ASSERT_TRUE(master_->CheckpointAll().ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(1).ok());
  ASSERT_TRUE(WriteRow(*client_, weight_, std::vector<double>(90, 2.0)).ok());
  std::vector<double> pulled = *ReadRow(*client_, weight_);
  for (double v : pulled) EXPECT_EQ(v, 2.0);
}

}  // namespace
}  // namespace ps2
