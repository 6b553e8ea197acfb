// Concurrency: DCV operations issued from many task threads must compose
// correctly — additive pushes commute, and the final state is exact.

#include <gtest/gtest.h>

#include <cmath>

#include "dcv/dcv_batch.h"
#include "dcv/dcv_context.h"

namespace ps2 {
namespace {

class DcvConcurrencyTest : public ::testing::Test {
 protected:
  DcvConcurrencyTest() {
    ClusterSpec spec;
    spec.num_workers = 8;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(DcvConcurrencyTest, ConcurrentDensePushesSumExactly) {
  const uint64_t dim = 1000;
  Dcv v = *ctx_->Dense(dim);
  const size_t tasks = 64;
  cluster_->RunStage("push", tasks, [&](TaskContext& ctx) {
    std::vector<double> delta(dim, static_cast<double>(ctx.task_id + 1));
    PS2_CHECK_OK(v.Push(delta));
  });
  std::vector<double> pulled = *v.Pull();
  const double expected = tasks * (tasks + 1) / 2.0;
  for (double x : pulled) EXPECT_DOUBLE_EQ(x, expected);
}

TEST_F(DcvConcurrencyTest, ConcurrentSparsePushesWithOverlap) {
  const uint64_t dim = 10000;
  Dcv v = *ctx_->Dense(dim);
  const size_t tasks = 32;
  cluster_->RunStage("push", tasks, [&](TaskContext& ctx) {
    // Every task touches index 7 plus a private index.
    SparseVector delta({7, 100 + ctx.task_id}, {1.0, 2.0});
    PS2_CHECK_OK(v.Add(delta));
  });
  EXPECT_DOUBLE_EQ((*v.PullSparse({7}))[0], static_cast<double>(tasks));
  EXPECT_DOUBLE_EQ((*v.PullSparse({105}))[0], 2.0);
}

TEST_F(DcvConcurrencyTest, ConcurrentPullsSeeConsistentSnapshotsPerServer) {
  const uint64_t dim = 4000;
  Dcv v = *ctx_->Dense(dim);
  ASSERT_TRUE(v.Fill(3.0).ok());
  cluster_->RunStage("pull", 64, [&](TaskContext&) {
    std::vector<double> pulled = *v.Pull();
    for (double x : pulled) PS2_CHECK(x == 3.0);
  });
}

TEST_F(DcvConcurrencyTest, ConcurrentDotsAgainstStableVectors) {
  const uint64_t dim = 2048;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Derive(a);
  ASSERT_TRUE(a.Fill(2.0).ok());
  ASSERT_TRUE(b.Fill(0.5).ok());
  cluster_->RunStage("dot", 64, [&](TaskContext&) {
    double dot = *a.Dot(b);
    PS2_CHECK(std::abs(dot - dim) < 1e-9);
  });
}

TEST_F(DcvConcurrencyTest, MixedReadersAndWritersStayWithinBounds) {
  const uint64_t dim = 500;
  Dcv v = *ctx_->Dense(dim);
  cluster_->RunStage("mixed", 48, [&](TaskContext& ctx) {
    if (ctx.task_id % 2 == 0) {
      PS2_CHECK_OK(v.Push(std::vector<double>(dim, 1.0)));
    } else {
      std::vector<double> pulled = *v.Pull();
      // Any prefix of the 24 unit-pushes may have landed at this server.
      for (double x : pulled) {
        PS2_CHECK(x >= 0.0 && x <= 24.0);
      }
    }
  });
  EXPECT_DOUBLE_EQ((*v.Pull())[0], 24.0);
}

TEST_F(DcvConcurrencyTest, BatchedMixedOpsFromManyTasks) {
  const uint64_t dim = 1024;
  Dcv a = *ctx_->Dense(dim, 4);
  Dcv b = *ctx_->Derive(a);
  ASSERT_TRUE(a.Fill(2.0).ok());
  ASSERT_TRUE(b.Fill(3.0).ok());
  const size_t tasks = 32;
  cluster_->RunStage("batch", tasks, [&](TaskContext&) {
    // One coalesced round: a dot, a full pull, and an additive push.
    DcvBatch batch = ctx_->Batch();
    size_t dot_slot = batch.Dot(a, b);
    size_t pull_slot = batch.Pull(b);
    batch.Push(a, std::vector<double>(dim, 1.0));
    Result<DcvBatchResults> r = batch.Execute();
    PS2_CHECK(r.ok()) << r.status();
    // a grows concurrently, so the dot lies between the initial value and
    // the value after every push has landed; b never changes.
    const double lo = 2.0 * 3.0 * dim;
    const double hi = (2.0 + tasks) * 3.0 * dim;
    PS2_CHECK(r->dots[dot_slot] >= lo && r->dots[dot_slot] <= hi);
    PS2_CHECK(r->pulled.width(pull_slot) == dim);
    for (size_t c = 0; c < dim; ++c) {
      PS2_CHECK(r->pulled.row(pull_slot)[c] == 3.0);
    }
  });
  // All 32 unit pushes must have accumulated exactly.
  std::vector<double> final_a = *a.Pull();
  for (double x : final_a) EXPECT_DOUBLE_EQ(x, 2.0 + tasks);
}

TEST_F(DcvConcurrencyTest, BatchedSparsePushesCommute) {
  const uint64_t dim = 5000;
  Dcv base = *ctx_->Dense(dim, 8);
  std::vector<Dcv> rows{base, *ctx_->Derive(base), *ctx_->Derive(base)};
  const size_t tasks = 24;
  cluster_->RunStage("sparse_batch", tasks, [&](TaskContext& task) {
    std::vector<SparseVector> deltas;
    for (size_t r = 0; r < rows.size(); ++r) {
      deltas.push_back(SparseVector({11, 400 + task.task_id}, {1.0, 2.0}));
    }
    DcvBatch batch = ctx_->Batch();
    batch.PushSparse(rows, std::move(deltas), /*compress_counts=*/false);
    PS2_CHECK_OK(batch.Submit().Wait());
  });
  for (const Dcv& row : rows) {
    EXPECT_DOUBLE_EQ((*row.PullSparse({11}))[0], static_cast<double>(tasks));
    EXPECT_DOUBLE_EQ((*row.PullSparse({410}))[0], 2.0);
  }
}

TEST_F(DcvConcurrencyTest, BatchOverlapsIntoOneRoundPerTask) {
  const uint64_t dim = 256;
  Dcv a = *ctx_->Dense(dim, 4);
  Dcv b = *ctx_->Derive(a);
  ASSERT_TRUE(a.Fill(1.0).ok());
  ASSERT_TRUE(b.Fill(1.0).ok());
  TaskTraffic traffic;
  {
    TrafficScope scope(&traffic);
    DcvBatch batch = ctx_->Batch();
    batch.Dot(a, b);
    batch.Pull(a);
    batch.PullSparse({a, b}, {0, 7, 100});
    ASSERT_TRUE(batch.Submit().Wait().ok());
  }
  // The first staged group leads; the other two ride its latency window.
  EXPECT_EQ(traffic.rounds, 1u);
  EXPECT_EQ(traffic.pipelined_rounds, 2u);
}

TEST_F(DcvConcurrencyTest, ConcurrentDerivesGetDistinctRows) {
  Dcv base = *ctx_->Dense(64, 64);
  std::vector<Dcv> derived(48);
  cluster_->RunStage("derive", 48, [&](TaskContext& ctx) {
    Result<Dcv> d = ctx_->Derive(base);
    PS2_CHECK(d.ok());
    derived[ctx.task_id] = *d;
  });
  for (size_t i = 0; i < derived.size(); ++i) {
    for (size_t j = i + 1; j < derived.size(); ++j) {
      EXPECT_FALSE(derived[i].ref() == derived[j].ref());
    }
    EXPECT_TRUE(base.CoLocatedWith(derived[i]));
  }
}

}  // namespace
}  // namespace ps2
