// Snapshot isolation under concurrency (DESIGN.md §10): readers pinned to a
// published epoch must observe ONE consistent model cut — never a mix of
// epochs — while a trainer concurrently pushes the next epoch's updates and
// publishes. Built to run under TSan (`ctest -L tsan` in a
// -DPS2_SANITIZE=thread build): every thread wraps its PS traffic in its own
// TrafficScope, so nothing touches the non-thread-safe cluster clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "dataflow/cluster.h"
#include "linalg/sparse_vector.h"
#include "membership/membership_manager.h"
#include "ps/partitioner.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "serving/snapshot.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

class SnapshotIsolationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDim = 96;
  static constexpr uint32_t kRows = 4;

  SnapshotIsolationTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    MatrixOptions options;
    options.dim = kDim;
    options.reserve_rows = kRows;
    matrix_ = *master_->CreateMatrix(options);
  }

  /// Adds +1.0 to every element of every row (moving the whole model from
  /// value v to v+1), charging the ambient scope.
  void PushOneEverywhere(PsClient* client) {
    std::vector<double> ones(kDim, 1.0);
    for (uint32_t r = 0; r < kRows; ++r) {
      ASSERT_TRUE(WriteRow(*client, RowRef{matrix_, r}, ones).ok());
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  int matrix_ = -1;
};

TEST_F(SnapshotIsolationTest, ConcurrentReadsNeverMixEpochs) {
  constexpr uint64_t kEpochs = 12;
  PsClient trainer_client(master_.get());
  {
    // Epoch 1: the whole model holds exactly 1.0.
    TaskTraffic t;
    TrafficScope scope(&t);
    PushOneEverywhere(&trainer_client);
    ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  }

  std::atomic<bool> training_done{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> reads_checked{0};

  // The invariant: a read pinned to epoch e sees the value e at EVERY
  // element it touches — the trainer raises the whole model to e before
  // publishing e, so any other value (or any mix) means the snapshot leaked
  // concurrent writes.
  auto reader = [&](uint64_t seed) {
    PsClient client(master_.get());
    TaskTraffic t;
    TrafficScope scope(&t);
    while (true) {
      // Read the flag BEFORE the attempt: once training is done, epochs are
      // stable, so the attempt below must succeed and every reader checks
      // at least one read.
      const bool done = training_done.load(std::memory_order_acquire);
      const uint64_t epoch = master_->serving_snapshots()->epoch();
      if (epoch == 0) continue;
      std::vector<PsClient::ServingRead> reads;
      for (uint32_t r = 0; r < kRows; ++r) {
        reads.push_back({RowRef{matrix_, r}, {}});  // full row
        reads.push_back({RowRef{matrix_, r},
                         {seed % kDim, (seed + 31) % kDim, kDim - 1}});
      }
      auto values = client.ServingPullAsync(epoch, reads).Get();
      if (!values.ok()) {
        // The pinned epoch can fall out of retention between the epoch()
        // read and the pull; that is the frontend's repin case, not an
        // isolation violation.
        ASSERT_TRUE(values.status().IsFailedPrecondition())
            << values.status().ToString();
        continue;
      }
      const double expected = static_cast<double>(epoch);
      for (const auto& vec : *values) {
        for (double v : vec) {
          if (v != expected) violations.fetch_add(1);
        }
      }
      reads_checked.fetch_add(1);
      if (done) break;
    }
  };

  std::vector<std::thread> readers;
  readers.emplace_back(reader, 3);
  readers.emplace_back(reader, 57);

  // Trainer: interleave pushes (epoch e's updates) with publishes, with
  // readers hammering pinned pulls the whole time.
  {
    TaskTraffic t;
    TrafficScope scope(&t);
    for (uint64_t e = 2; e <= kEpochs; ++e) {
      PushOneEverywhere(&trainer_client);
      ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
    }
  }
  training_done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads_checked.load(), 0u);
  EXPECT_EQ(master_->serving_snapshots()->epoch(), kEpochs);
}

TEST_F(SnapshotIsolationTest, RetentionEvictsOldEpochs) {
  PsClient client(master_.get());
  PushOneEverywhere(&client);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());  // 1
  PushOneEverywhere(&client);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());  // 2
  PushOneEverywhere(&client);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());  // 3

  for (int s = 0; s < master_->num_servers(); ++s) {
    EXPECT_FALSE(master_->server(s)->HasSnapshotEpoch(1));
    EXPECT_TRUE(master_->server(s)->HasSnapshotEpoch(2));
    EXPECT_TRUE(master_->server(s)->HasSnapshotEpoch(3));
  }
  auto stale = client.ServingPullAsync(1, {{RowRef{matrix_, 0}, {}}}).Get();
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsFailedPrecondition());
}

TEST_F(SnapshotIsolationTest, CopyOnPublishReusesUntouchedRows) {
  PsClient client(master_.get());
  PushOneEverywhere(&client);
  SnapshotPublishStats first = *master_->serving_snapshots()->Publish();
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.rows_copied, first.rows_total);  // everything is new
  EXPECT_GT(first.bytes_copied, 0u);

  // Nothing changed: the next publish shares every row with epoch 1.
  SnapshotPublishStats quiet = *master_->serving_snapshots()->Publish();
  EXPECT_EQ(quiet.rows_copied, 0u);
  EXPECT_EQ(quiet.rows_reused, quiet.rows_total);
  EXPECT_EQ(quiet.bytes_copied, 0u);

  // Touch one row: only its shards re-copy.
  ASSERT_TRUE(
      WriteRow(client, RowRef{matrix_, 2}, std::vector<double>(kDim, 1.0))
          .ok());
  SnapshotPublishStats touched = *master_->serving_snapshots()->Publish();
  EXPECT_GT(touched.rows_copied, 0u);
  EXPECT_LT(touched.rows_copied, touched.rows_total);
  EXPECT_EQ(touched.rows_copied + touched.rows_reused, touched.rows_total);
}

TEST_F(SnapshotIsolationTest, PublishEpochsMustIncrease) {
  PsClient client(master_.get());
  PushOneEverywhere(&client);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  // Direct server-level publish with a stale epoch is rejected.
  auto stale = master_->server(0)->PublishSnapshot(1);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsInvalidArgument());
}

// ---- Chunk-granular copy-on-publish (DESIGN.md §10) -----------------------

constexpr uint64_t kChunk = PsServer::kSnapshotChunk;

/// The full local slice of (matrix, row) that `server` serves at `epoch`,
/// read straight off the server (no routing), or empty on failure.
std::vector<double> ServerSlice(PsServer* server, uint64_t epoch, int matrix,
                                uint32_t row) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kServingPull));
  w.WriteVarint(epoch);
  w.WriteVarint(1);
  w.WriteVarint(static_cast<uint64_t>(matrix));
  w.WriteVarint(row);
  w.WriteVarint(0);  // full slice
  Result<PsServer::HandleResult> r = HandleBytes(*server, w.buffer());
  if (!r.ok()) return {};
  BufferReader in(r->response);
  if (!in.ReadVarint().ok()) return {};
  Result<uint64_t> n = in.ReadVarint();
  if (!n.ok()) return {};
  Result<std::vector<double>> values = in.ReadF64Span(*n);
  return values.ok() ? *values : std::vector<double>{};
}

/// A served matrix plus a mirror of what every published epoch must show.
class ChunkedSnapshotTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDim = 1800;  // 3 shards of 600: chunks 256+256+88
  static constexpr uint32_t kRows = 3;

  ChunkedSnapshotTest() {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get());
    MatrixOptions options;
    options.dim = kDim;
    options.reserve_rows = kRows;
    matrix_ = *master_->CreateMatrix(options);
    meta_ = *master_->GetMeta(matrix_);
    model_.assign(kRows, std::vector<double>(kDim));
    for (uint32_t r = 0; r < kRows; ++r) {
      for (uint64_t c = 0; c < kDim; ++c) {
        model_[r][c] = r * 1e4 + static_cast<double>(c) + 0.5;
      }
      EXPECT_TRUE(WriteRow(*client_, RowRef{matrix_, r}, model_[r]).ok());
    }
  }

  uint64_t Begin(int p) const { return meta_.partitioner.RangeBegin(p); }
  uint64_t End(int p) const { return meta_.partitioner.RangeEnd(p); }
  int Partitions() const { return meta_.partitioner.num_partitions(); }

  void PushSparse(uint32_t row, std::vector<uint64_t> keys, double delta) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (uint64_t k : keys) model_[row][k] += delta;
    std::vector<double> values(keys.size(), delta);
    ASSERT_TRUE(client_
                    ->PushSparse(RowRef{matrix_, row},
                                 SparseVector(std::move(keys),
                                              std::move(values)))
                    .ok());
  }

  void PushDense(uint32_t row, double delta) {
    for (double& v : model_[row]) v += delta;
    ASSERT_TRUE(WriteRow(*client_, RowRef{matrix_, row},
                         std::vector<double>(kDim, delta))
                    .ok());
  }

  /// Publishes, records the mirror as the new epoch's image, and checks that
  /// every retained epoch still serves exactly its image.
  SnapshotPublishStats PublishAndCheck() {
    Result<SnapshotPublishStats> stats =
        master_->serving_snapshots()->Publish();
    EXPECT_TRUE(stats.ok()) << stats.status();
    images_[stats->epoch] = model_;
    CheckRetainedEpochs();
    return *stats;
  }

  void CheckRetainedEpochs() {
    const uint64_t latest = master_->serving_snapshots()->epoch();
    for (uint64_t epoch = latest > 1 ? latest - 1 : 1; epoch <= latest;
         ++epoch) {
      const auto& image = images_.at(epoch);
      for (uint32_t r = 0; r < kRows; ++r) {
        std::vector<PsClient::ServingRead> reads = {
            {RowRef{matrix_, r}, {}},
            {RowRef{matrix_, r}, {0, 255, 256, 599, 600, 1111, kDim - 1}}};
        auto got = client_->ServingPullAsync(epoch, reads).Get();
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ((*got)[0], image[r]) << "epoch " << epoch << " row " << r;
        for (size_t i = 0; i < reads[1].indices.size(); ++i) {
          EXPECT_EQ((*got)[1][i], image[r][reads[1].indices[i]]);
        }
      }
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
  int matrix_ = -1;
  MatrixMeta meta_;
  std::vector<std::vector<double>> model_;
  std::map<uint64_t, std::vector<std::vector<double>>> images_;
};

TEST_F(ChunkedSnapshotTest, PublishCopiesOnlyTheWrittenChunks) {
  ASSERT_EQ(Partitions(), 3);
  for (int p = 0; p < Partitions(); ++p) ASSERT_EQ(End(p) - Begin(p), 600u);
  const uint64_t row_bytes = kDim * sizeof(double);

  SnapshotPublishStats first = PublishAndCheck();
  EXPECT_EQ(first.bytes_copied, kRows * row_bytes);  // everything is new

  SnapshotPublishStats quiet = PublishAndCheck();
  EXPECT_EQ(quiet.bytes_copied, 0u);
  EXPECT_EQ(quiet.rows_copied, 0u);

  // First and last element of chunk 0, and the last element of the shard's
  // partial chunk 2 (88 doubles), on every shard: two chunks per shard.
  std::vector<uint64_t> edges;
  for (int p = 0; p < Partitions(); ++p) {
    edges.push_back(Begin(p));
    edges.push_back(Begin(p) + kChunk - 1);
    edges.push_back(End(p) - 1);
  }
  PushSparse(0, edges, 0.25);
  SnapshotPublishStats sparse = PublishAndCheck();
  EXPECT_EQ(sparse.bytes_copied, 3 * (kChunk + 88) * sizeof(double));
  EXPECT_EQ(sparse.rows_copied, 3u);  // row 0 on each shard
  EXPECT_EQ(sparse.rows_reused, sparse.rows_total - 3);

  // First element of chunk 1 twice over: still one chunk.
  PushSparse(0, {Begin(1) + kChunk}, 1.0);
  PushSparse(0, {Begin(1) + kChunk}, 2.0);
  SnapshotPublishStats again = PublishAndCheck();
  EXPECT_EQ(again.bytes_copied, kChunk * sizeof(double));
  EXPECT_EQ(again.rows_copied, 1u);

  // k keys copy at most k chunks.
  const std::vector<uint64_t> spread = {3, 700, 701, 1250, 1799};
  PushSparse(1, spread, -0.5);
  SnapshotPublishStats k_keys = PublishAndCheck();
  EXPECT_GT(k_keys.bytes_copied, 0u);
  EXPECT_LE(k_keys.bytes_copied, spread.size() * kChunk * sizeof(double));

  // A whole-row write after sparse ones copies the row whole, once.
  PushSparse(0, {5, 900}, 1.0);
  PushDense(0, 3.0);
  SnapshotPublishStats whole = PublishAndCheck();
  EXPECT_EQ(whole.bytes_copied, row_bytes);

  EXPECT_EQ(PublishAndCheck().bytes_copied, 0u);
}

TEST_F(ChunkedSnapshotTest, RestoreRecopiesEveryRowOfTheServer) {
  PublishAndCheck();
  const int s0 = meta_.partitioner.ServerOfPartition(0);
  const std::vector<uint8_t> image = master_->server(s0)->SerializeState();
  const auto checkpointed = model_;

  PushSparse(2, {Begin(0) + 10, Begin(0) + 300}, 4.0);
  EXPECT_EQ(PublishAndCheck().bytes_copied, 2 * kChunk * sizeof(double));

  // The server rolls back to the image: its columns hold the checkpointed
  // values again, and the next publish re-copies each of its rows whole.
  ASSERT_TRUE(master_->server(s0)->RestoreState(image).ok());
  for (uint32_t r = 0; r < kRows; ++r) {
    std::copy(checkpointed[r].begin() + Begin(0),
              checkpointed[r].begin() + End(0), model_[r].begin() + Begin(0));
  }
  SnapshotPublishStats restored = PublishAndCheck();
  EXPECT_EQ(restored.bytes_copied,
            kRows * (End(0) - Begin(0)) * sizeof(double));
  EXPECT_EQ(restored.rows_copied, kRows);
}

TEST_F(ChunkedSnapshotTest, RelocationRecopiesTheMovedRows) {
  MatrixOptions options;
  options.dim = 600;
  options.reserve_rows = 2;
  options.home_server = 0;
  const int owned = *master_->CreateMatrix(options);
  std::vector<double> values(600);
  for (uint64_t c = 0; c < 600; ++c) values[c] = 0.125 * c;
  for (uint32_t r = 0; r < 2; ++r) {
    ASSERT_TRUE(WriteRow(*client_, RowRef{owned, r}, values).ok());
  }
  PublishAndCheck();
  ASSERT_TRUE(client_
                  ->PushSparse(RowRef{owned, 1},
                               SparseVector({7, 599}, {1.0, 1.0}))
                  .ok());
  const SnapshotPublishStats before = PublishAndCheck();
  EXPECT_EQ(before.bytes_copied, (kChunk + 88) * sizeof(double));
  const uint64_t pinned = before.epoch;
  const std::vector<double> row1_at_pinned =
      ServerSlice(master_->server(0), pinned, owned, 1);
  ASSERT_EQ(row1_at_pinned.size(), 600u);
  EXPECT_EQ(row1_at_pinned[7], values[7] + 1.0);

  // Relocation publishes a fresh epoch; the new home copies its rows whole.
  const uint64_t copied_before =
      cluster_->metrics().Get("serving.snapshot_bytes_copied");
  ASSERT_TRUE(master_->membership()->RelocateMatrices({{owned, 1}}).ok());
  EXPECT_EQ(cluster_->metrics().Get("serving.snapshot_bytes_copied") -
                copied_before,
            2 * 600 * sizeof(double));
  const uint64_t moved = master_->serving_snapshots()->epoch();
  ASSERT_EQ(moved, pinned + 1);
  images_[moved] = model_;  // the spread matrix did not change
  auto got = client_->ServingPullAsync(moved, {{RowRef{owned, 1}, {}}}).Get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ((*got)[0], row1_at_pinned);
  // The old home still serves the pinned epoch, bit for bit.
  EXPECT_EQ(ServerSlice(master_->server(0), pinned, owned, 1),
            row1_at_pinned);

  // On the new home, sparse writes are chunk-granular again.
  ASSERT_TRUE(client_
                  ->PushSparse(RowRef{owned, 0}, SparseVector({300}, {2.0}))
                  .ok());
  const SnapshotPublishStats after = PublishAndCheck();
  EXPECT_EQ(after.bytes_copied, kChunk * sizeof(double));
  EXPECT_EQ(ServerSlice(master_->server(1), after.epoch, owned, 0)[300],
            values[300] + 2.0);
}

TEST(ChunkedSnapshotServerTest, ReconcileShardBoundsRecopiesEveryRow) {
  UdfRegistry udfs;
  PsServer server(0, &udfs);
  MatrixMeta meta;
  meta.id = 0;
  meta.dim = 600;
  meta.num_rows = 2;
  meta.partitioner = *ColumnPartitioner::Make(600, 1);
  ASSERT_TRUE(server.CreateMatrixShard(meta).ok());
  std::vector<double> row(600);
  for (uint64_t c = 0; c < 600; ++c) row[c] = 1.0 + c;
  for (uint32_t r = 0; r < 2; ++r) {
    BufferWriter push;
    push.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
    push.WriteU8(static_cast<uint8_t>(RowSelectorKind::kRange));
    push.WriteVarint(1);
    push.WriteVarint(0);
    push.WriteVarint(r);
    push.WriteVarint(0);
    push.WriteVarint(row.size());
    push.WriteF64Span(row.data(), row.size());
    ASSERT_TRUE(HandleBytes(server, push.buffer()).ok());
  }
  ASSERT_EQ(server.PublishSnapshot(1)->bytes_copied, 2 * 600 * sizeof(double));
  ASSERT_EQ(server.PublishSnapshot(2)->bytes_copied, 0u);

  // The partitioner now gives this server only [0, 300).
  meta.partitioner = *ColumnPartitioner::Make(600, 2);
  ASSERT_TRUE(*server.ReconcileShardBounds(meta));
  Result<PsServer::PublishStats> after = server.PublishSnapshot(3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->bytes_copied, 2 * 300 * sizeof(double));
  EXPECT_EQ(after->rows_copied, 2u);
  // Epoch 2 keeps its 600-wide rows; epoch 3 serves the new bounds.
  EXPECT_EQ(ServerSlice(&server, 2, 0, 1), row);
  EXPECT_EQ(ServerSlice(&server, 3, 0, 1),
            std::vector<double>(row.begin(), row.begin() + 300));
}

TEST_F(ChunkedSnapshotTest, SnapshotMemoryStaysWithinTheStatedBound) {
  PublishAndCheck();
  // The stated bound per server: 3x its dense shard bytes.
  auto bound = [&](int s) {
    uint64_t begin = 0, end = 0;
    EXPECT_TRUE(meta_.partitioner.ServerSpan(s, &begin, &end));
    return 3 * kRows * (end - begin) * sizeof(double);
  };
  Rng rng(0xC4u);
  uint64_t copied = 0;
  for (int publish = 0; publish < 200; ++publish) {
    for (uint32_t r = 0; r < kRows; ++r) {
      std::vector<uint64_t> keys;
      for (int i = 0; i < 3; ++i) keys.push_back(rng.NextUint64(kDim));
      PushSparse(r, keys, 0.001 * (publish + 1));
    }
    Result<SnapshotPublishStats> stats =
        master_->serving_snapshots()->Publish();
    ASSERT_TRUE(stats.ok());
    images_[stats->epoch] = model_;
    EXPECT_LE(stats->bytes_copied, kRows * 3 * kChunk * sizeof(double));
    copied += stats->bytes_copied;
    for (int s = 0; s < master_->num_servers(); ++s) {
      ASSERT_LE(master_->server(s)->SnapshotBytesHeld(), bound(s))
          << "publish " << publish << " server " << s;
    }
  }
  CheckRetainedEpochs();
  // Row-granular publishing would have copied every touched row whole.
  EXPECT_LT(copied, 200 * kRows * kDim * sizeof(double) / 2);
}

}  // namespace
}  // namespace ps2
