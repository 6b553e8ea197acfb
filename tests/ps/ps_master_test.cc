#include "ps/ps_master.h"

#include <gtest/gtest.h>

#include "dataflow/cluster.h"

namespace ps2 {
namespace {

class PsMasterTest : public ::testing::Test {
 protected:
  PsMasterTest() {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
};

TEST_F(PsMasterTest, CreateMatrixPlacesShardsOnEveryServer) {
  MatrixOptions options;
  options.dim = 100;
  options.reserve_rows = 3;
  int id = *master_->CreateMatrix(options);
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(master_->server(s)->HasMatrix(id));
  }
  MatrixMeta meta = *master_->GetMeta(id);
  EXPECT_EQ(meta.dim, 100u);
  EXPECT_EQ(meta.num_rows, 3u);
}

TEST_F(PsMasterTest, NumServersCapRespected) {
  MatrixOptions options;
  options.dim = 100;
  options.num_servers = 2;
  int id = *master_->CreateMatrix(options);
  MatrixMeta meta = *master_->GetMeta(id);
  EXPECT_EQ(meta.partitioner.num_partitions(), 2);
  EXPECT_TRUE(master_->server(0)->HasMatrix(id));
  EXPECT_FALSE(master_->server(3)->HasMatrix(id));
}

TEST_F(PsMasterTest, TinyDimNeverSplitsBelowOneUnitPerServer) {
  MatrixOptions options;
  options.dim = 2;
  int id = *master_->CreateMatrix(options);
  EXPECT_LE((*master_->GetMeta(id)).partitioner.num_partitions(), 2);
}

TEST_F(PsMasterTest, AlignmentNeverSplitsUnits) {
  MatrixOptions options;
  options.dim = 64;
  options.alignment = 16;  // 4 units over 4 servers
  int id = *master_->CreateMatrix(options);
  MatrixMeta meta = *master_->GetMeta(id);
  const ColumnPartitioner& part = meta.partitioner;
  for (int p = 0; p < part.num_partitions(); ++p) {
    EXPECT_EQ(part.RangeBegin(p) % 16, 0u);
  }
}

TEST_F(PsMasterTest, RowAllocationExhausts) {
  MatrixOptions options;
  options.dim = 10;
  options.reserve_rows = 3;
  int id = *master_->CreateMatrix(options);
  EXPECT_EQ((*master_->AllocateRow(id)).row, 1u);
  EXPECT_EQ((*master_->AllocateRow(id)).row, 2u);
  EXPECT_TRUE(master_->AllocateRow(id).status().IsOutOfRange());
}

TEST_F(PsMasterTest, AllocateRowUnknownMatrix) {
  EXPECT_TRUE(master_->AllocateRow(999).status().IsNotFound());
}

TEST_F(PsMasterTest, SequentialCreationsRotateDifferently) {
  MatrixOptions options;
  options.dim = 100;
  int a = *master_->CreateMatrix(options);
  int b = *master_->CreateMatrix(options);
  EXPECT_FALSE((*master_->GetMeta(a))
                   .partitioner.CoLocatedWith(
                       (*master_->GetMeta(b)).partitioner));
}

TEST_F(PsMasterTest, AlignedMatrixSharesRotation) {
  MatrixOptions options;
  options.dim = 100;
  int base = *master_->CreateMatrix(options);
  int ext = *master_->CreateAlignedMatrix(base, "ext", 4);
  EXPECT_TRUE((*master_->GetMeta(base))
                  .partitioner.CoLocatedWith(
                      (*master_->GetMeta(ext)).partitioner));
}

TEST_F(PsMasterTest, FreeMatrixRemovesShards) {
  MatrixOptions options;
  options.dim = 100;
  int id = *master_->CreateMatrix(options);
  EXPECT_TRUE(master_->FreeMatrix(id).ok());
  EXPECT_FALSE(master_->server(0)->HasMatrix(id));
  EXPECT_TRUE(master_->GetMeta(id).status().IsNotFound());
  EXPECT_TRUE(master_->FreeMatrix(id).IsNotFound());
}

TEST_F(PsMasterTest, GetMetasResolvesEveryRowOrNone) {
  MatrixOptions options;
  options.dim = 100;
  int a = *master_->CreateMatrix(options);
  options.dim = 40;
  int b = *master_->CreateMatrix(options);
  Result<MetaBatch> metas =
      master_->GetMetas({RowRef{a, 0}, RowRef{b, 0}, RowRef{a, 1}});
  ASSERT_TRUE(metas.ok()) << metas.status();
  ASSERT_EQ(metas->metas.size(), 3u);
  EXPECT_EQ((*metas)[0].id, a);
  EXPECT_EQ((*metas)[1].dim, 40u);
  // One published meta per matrix: rows of the same matrix share it.
  EXPECT_EQ(&(*metas)[0], &(*metas)[2]);
  EXPECT_EQ((*master_->GetMeta(a)).dim, (*metas)[0].dim);

  EXPECT_TRUE(master_->GetMetas({RowRef{a, 0}, RowRef{999, 0}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(master_->GetMetas({}).ok());
}

TEST_F(PsMasterTest, RejectsInvalidOptions) {
  MatrixOptions options;
  options.dim = 0;
  EXPECT_TRUE(master_->CreateMatrix(options).status().IsInvalidArgument());
  options.dim = 10;
  options.reserve_rows = 0;
  EXPECT_TRUE(master_->CreateMatrix(options).status().IsInvalidArgument());
}

TEST_F(PsMasterTest, CheckpointCountsAndStoresAllServers) {
  MatrixOptions options;
  options.dim = 100;
  (void)*master_->CreateMatrix(options);
  EXPECT_TRUE(master_->CheckpointAll().ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(master_->checkpoints().Has(s));
  }
  EXPECT_EQ(master_->checkpoints().checkpoints_taken(), 4u);
}

}  // namespace
}  // namespace ps2
