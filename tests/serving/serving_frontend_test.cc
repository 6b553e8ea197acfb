#include "serving/frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dataflow/cluster.h"
#include "linalg/sparse_vector.h"
#include "membership/membership_manager.h"
#include "ps/ps_master.h"
#include "serving/admission.h"
#include "serving/serving_loop.h"
#include "serving/traffic_gen.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  explicit ServingTest(ClusterSpec spec = MakeSpec()) {
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get());
  }

  static ClusterSpec MakeSpec() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 3;
    return spec;
  }

  /// A dense matrix whose row r holds value base + r at every column.
  RowRef NewServedMatrix(uint64_t dim, uint32_t rows, double base = 10.0) {
    MatrixOptions options;
    options.dim = dim;
    options.reserve_rows = rows;
    int id = *master_->CreateMatrix(options);
    for (uint32_t r = 0; r < rows; ++r) {
      std::vector<double> values(dim, base + r);
      EXPECT_TRUE(WriteRow(*client_, RowRef{id, r}, values).ok());
    }
    return RowRef{id, 0};
  }

  ServingRequest Req(RowRef row, std::vector<uint64_t> indices = {}) {
    ServingRequest req;
    req.row = row;
    req.indices = std::move(indices);
    return req;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
};

TEST_F(ServingTest, ServeFailsBeforeFirstPublish) {
  RowRef w = NewServedMatrix(30, 2);
  ServingFrontend frontend(master_.get(), client_.get());
  EXPECT_TRUE(frontend.PinCurrentEpoch().IsFailedPrecondition());
  auto result = frontend.ServeBatch({Req(w)});
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST_F(ServingTest, PinnedReadsFollowTheirEpochsPlacementAcrossARelocation) {
  // A read pinned before a relocation is routed by the placement its epoch
  // was published under: the old home still holds that epoch, the new home
  // does not.
  MatrixOptions options;
  options.name = "homed";
  options.dim = 8;
  options.reserve_rows = 1;
  options.home_server = 0;
  const int id = *master_->CreateMatrix(options);
  const RowRef row{id, 0};
  const std::vector<double> pinned{1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(WriteRow(*client_, row, pinned).ok());
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  const uint64_t epoch = frontend.pinned_epoch();

  ASSERT_TRUE(master_->membership()->RelocateMatrices({{id, 1}}).ok());
  ASSERT_EQ(master_->GetMeta(id)->partitioner.ServerOfPartition(0), 1);
  // The live model moves on; the pinned epoch does not.
  ASSERT_TRUE(WriteRow(*client_, row, std::vector<double>(8, 100.0)).ok());

  const std::vector<PsClient::ServingRead> reads{{row, {}}, {row, {2, 7}}};
  Result<std::vector<std::vector<double>>> direct =
      client_->ServingPullAsync(epoch, reads).Get();
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ((*direct)[0], pinned);
  EXPECT_EQ((*direct)[1], (std::vector<double>{3, 8}));
  auto served = frontend.ServeBatch({Req(row), Req(row, {2, 7})});
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ((*served)[0], pinned);
  EXPECT_EQ((*served)[1], (std::vector<double>{3, 8}));
  EXPECT_EQ(frontend.stats().epoch_repins, 0u);

  // The next epoch is published under the new placement and serves there.
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  served = frontend.ServeBatch({Req(row)});
  ASSERT_TRUE(served.ok()) << served.status();
  std::vector<double> live = pinned;
  for (double& v : live) v += 100.0;  // writes are additive
  EXPECT_EQ((*served)[0], live);
}

TEST_F(ServingTest, ReadsArePinnedToThePublishedEpoch) {
  RowRef w = NewServedMatrix(30, 2, /*base=*/1.0);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());

  // Mutate the live model AFTER the publish: pinned reads must not see it.
  ASSERT_TRUE(WriteRow(*client_, w, std::vector<double>(30, 100.0)).ok());

  auto values = frontend.ServeBatch({Req(w), Req(w, {0, 29})});
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 2u);
  EXPECT_EQ((*values)[0], std::vector<double>(30, 1.0));
  EXPECT_EQ((*values)[1], (std::vector<double>{1.0, 1.0}));

  // A fresh publish exposes the mutation to newly pinned readers.
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  auto fresh = frontend.ServeBatch({Req(w, {5})});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)[0], (std::vector<double>{101.0}));
}

TEST_F(ServingTest, CoalescingMergesSameRowRequests) {
  RowRef w = NewServedMatrix(60, 3);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());

  RowRef row1{w.matrix_id, 1};
  std::vector<ServingRequest> batch = {
      Req(w, {1, 5}), Req(w, {5, 9}), Req(w),  // full-row absorbs both
      Req(row1, {2}), Req(row1, {2, 7}),
  };
  auto values = frontend.ServeBatch(batch);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ((*values)[0], (std::vector<double>{10.0, 10.0}));
  EXPECT_EQ((*values)[1], (std::vector<double>{10.0, 10.0}));
  EXPECT_EQ((*values)[2], std::vector<double>(60, 10.0));
  EXPECT_EQ((*values)[3], (std::vector<double>{11.0}));
  EXPECT_EQ((*values)[4], (std::vector<double>{11.0, 11.0}));

  ServingFrontend::Stats stats = frontend.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.raw_reads, 5u);
  EXPECT_EQ(stats.coalesced_reads, 2u);  // one per distinct row
  EXPECT_EQ(frontend.DemandCount(w), 3u);
  EXPECT_EQ(frontend.DemandCount(row1), 2u);
}

TEST_F(ServingTest, ScatterFollowsEachRequestsKeyOrder) {
  // Row values differ per column, so a key mapped to the wrong slot of its
  // read's union shows. Keys may come in any order.
  MatrixOptions options;
  options.dim = 12;
  options.reserve_rows = 1;
  const int id = *master_->CreateMatrix(options);
  std::vector<double> values(12);
  for (size_t c = 0; c < values.size(); ++c) values[c] = 100.0 + c;
  ASSERT_TRUE(WriteRow(*client_, RowRef{id, 0}, values).ok());
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  const RowRef row{id, 0};
  auto served = frontend.ServeBatch(
      {Req(row, {9, 3, 5}), Req(row, {3}), Req(row, {11, 0, 11})});
  ASSERT_TRUE(served.ok());
  EXPECT_EQ((*served)[0], (std::vector<double>{109, 103, 105}));
  EXPECT_EQ((*served)[1], (std::vector<double>{103}));
  EXPECT_EQ((*served)[2], (std::vector<double>{111, 100, 111}));
}

TEST_F(ServingTest, CoalescingReducesWireBytes) {
  RowRef w = NewServedMatrix(400, 2);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());

  // Heavily overlapping index sets on one row.
  std::vector<ServingRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Req(w, {3, 17, 200, 399}));
  }
  auto BytesFor = [&](bool coalesce) -> uint64_t {
    ServingFrontendOptions options;
    options.coalesce = coalesce;
    ServingFrontend frontend(master_.get(), client_.get(), options);
    EXPECT_TRUE(frontend.PinCurrentEpoch().ok());
    TaskTraffic t;
    TrafficScope scope(&t);
    auto values = frontend.ServeBatch(batch);
    EXPECT_TRUE(values.ok());
    for (const auto& v : *values) {
      EXPECT_EQ(v, (std::vector<double>{10.0, 10.0, 10.0, 10.0}));
    }
    return t.TotalBytesToServers() + t.TotalBytesFromServers();
  };

  const uint64_t coalesced = BytesFor(true);
  const uint64_t raw = BytesFor(false);
  EXPECT_LT(coalesced, raw / 2);  // 8 duplicate reads collapse into 1
}

/// Wire bytes (both ways) and messages of each batch of
/// CoalescedBatchesEqualUncoalescedReadsBitForBit, pinned at the commit
/// before the frontend moved to per-thread scratch and block reads: request
/// grouping and encoding must not change.
const std::vector<std::pair<uint64_t, uint64_t>> kCoalescedWireGolden = {
    {302, 6},  {559, 6}, {288, 4}, {550, 6}, {415, 4}, {572, 6},
    {688, 6},  {820, 6}, {752, 6}, {710, 6}, {248, 4}, {663, 6},
    {851, 6},  {183, 2}, {429, 6}, {488, 6}, {694, 6}, {588, 6},
    {405, 6},  {201, 4}, {1232, 6}, {92, 2}, {235, 4}, {632, 6}};

TEST_F(ServingTest, CoalescedBatchesEqualUncoalescedReadsBitForBit) {
  // Rows on every server: a matrix spread over all three, and one owned
  // matrix homed on each.
  std::vector<RowRef> rows;
  std::vector<uint64_t> dims;
  auto add = [&](uint64_t dim, uint32_t n_rows, int home) {
    MatrixOptions options;
    options.dim = dim;
    options.reserve_rows = n_rows;
    options.home_server = home;
    const int id = *master_->CreateMatrix(options);
    for (uint32_t r = 0; r < n_rows; ++r) {
      rows.push_back(RowRef{id, r});
      dims.push_back(dim);
    }
  };
  add(40, 6, -1);
  for (int s = 0; s < 3; ++s) add(12, 2, s);
  Rng rng(0x5E4B1);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<double> values(dims[i]);
    for (double& v : values) v = rng.NextGaussian();
    ASSERT_TRUE(WriteRow(*client_, rows[i], values).ok());
  }
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  const uint64_t epoch = frontend.pinned_epoch();

  // Seeded batches of 1-8 requests over 12 rows, so rows repeat; a third
  // full-row, the rest 1-5 keys from each row's first 10 columns, so keys
  // overlap.
  std::vector<std::vector<ServingRequest>> batches(24);
  for (std::vector<ServingRequest>& batch : batches) {
    const uint64_t n = 1 + rng.NextUint64(8);
    for (uint64_t k = 0; k < n; ++k) {
      const size_t i = rng.NextUint64(rows.size());
      std::vector<uint64_t> indices;
      if (rng.NextUint64(3) != 0) {
        const uint64_t n_keys = 1 + rng.NextUint64(5);
        for (uint64_t j = 0; j < n_keys; ++j) {
          indices.push_back(rng.NextUint64(10));
        }
        std::sort(indices.begin(), indices.end());
        indices.erase(std::unique(indices.begin(), indices.end()),
                      indices.end());
      }
      batch.push_back(Req(rows[i], std::move(indices)));
    }
  }

  // Each thread serves every batch, checks each request against its own
  // pinned pull, and records the batch's wire bytes and messages.
  constexpr int kThreads = 4;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> wire(kThreads);
  std::atomic<int> mismatches{0};
  auto serve = [&](int t) {
    for (const std::vector<ServingRequest>& batch : batches) {
      TaskTraffic traffic;
      Result<std::vector<std::vector<double>>> served = Status::Internal("");
      {
        TrafficScope scope(&traffic);
        served = frontend.ServeBatch(batch);
      }
      if (!served.ok()) {
        mismatches += 1;
        continue;
      }
      wire[t].emplace_back(
          traffic.TotalBytesToServers() + traffic.TotalBytesFromServers(),
          traffic.TotalMsgs());
      TaskTraffic direct;
      TrafficScope scope(&direct);
      for (size_t i = 0; i < batch.size(); ++i) {
        Result<std::vector<std::vector<double>>> alone =
            client_
                ->ServingPullAsync(epoch, {{batch[i].row, batch[i].indices}})
                .Get();
        const std::vector<double>& got = (*served)[i];
        if (!alone.ok() || (*alone)[0].size() != got.size() ||
            std::memcmp((*alone)[0].data(), got.data(),
                        got.size() * sizeof(double)) != 0) {
          mismatches += 1;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(serve, t);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    std::string got;
    for (const auto& [bytes, msgs] : wire[t]) {
      got += "{" + std::to_string(bytes) + ", " + std::to_string(msgs) + "}, ";
    }
    EXPECT_EQ(wire[t], kCoalescedWireGolden) << "thread " << t << ": " << got;
  }
}

TEST_F(ServingTest, RepinsWhenPinnedEpochFallsOutOfRetention) {
  RowRef w = NewServedMatrix(30, 2, /*base=*/1.0);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());  // epoch 1
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  EXPECT_EQ(frontend.pinned_epoch(), 1u);

  // Two more publishes evict epoch 1 (servers retain the last two).
  ASSERT_TRUE(WriteRow(*client_, w, std::vector<double>(30, 1.0)).ok());
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());  // epoch 2
  ASSERT_TRUE(WriteRow(*client_, w, std::vector<double>(30, 1.0)).ok());
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());  // epoch 3
  EXPECT_FALSE(master_->server(0)->HasSnapshotEpoch(1));

  auto values = frontend.ServeBatch({Req(w, {0})});
  ASSERT_TRUE(values.ok());
  EXPECT_EQ((*values)[0], (std::vector<double>{3.0}));  // latest epoch's view
  EXPECT_EQ(frontend.pinned_epoch(), 3u);
  EXPECT_GE(frontend.stats().epoch_repins, 1u);
}

TEST_F(ServingTest, ServingSurvivesServerRecovery) {
  RowRef w = NewServedMatrix(30, 2, /*base=*/5.0);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ASSERT_TRUE(master_->CheckpointAll().ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(0).ok());

  // Recovery republished the current epoch from the restored image, so the
  // pinned read works and sees the checkpointed values.
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  auto values = frontend.ServeBatch({Req(w)});
  ASSERT_TRUE(values.ok());
  EXPECT_EQ((*values)[0], std::vector<double>(30, 5.0));
}

class ServingFaultTest : public ServingTest {
 protected:
  ServingFaultTest() : ServingTest(FaultSpec()) {}

  static ClusterSpec FaultSpec() {
    ClusterSpec spec = MakeSpec();
    spec.message_failure_prob = 0.2;
    spec.seed = 7;
    return spec;
  }
};

TEST_F(ServingFaultTest, CoalescedReadsSurviveMessageFaults) {
  RowRef w = NewServedMatrix(90, 3);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());

  TaskTraffic t;
  TrafficScope scope(&t);
  for (int round = 0; round < 20; ++round) {
    auto values = frontend.ServeBatch(
        {Req(w, {0, 45, 89}), Req(w, {45}), Req({w.matrix_id, 2}, {10})});
    ASSERT_TRUE(values.ok());
    EXPECT_EQ((*values)[0], (std::vector<double>{10.0, 10.0, 10.0}));
    EXPECT_EQ((*values)[1], (std::vector<double>{10.0}));
    EXPECT_EQ((*values)[2], (std::vector<double>{12.0}));
  }
  // With a 20% drop rate across 20 rounds the retry path must have fired.
  EXPECT_GT(t.retries, 0u);
}

TEST_F(ServingTest, ConcurrentBatchesWhileTheCoordinatorPublishes) {
  // Four threads share one frontend while the coordinator keeps writing and
  // publishing: each thread charges its own TrafficScope (the cluster clock
  // is not thread-safe), and the run is built for `ctest -L tsan`.
  constexpr uint64_t kDim = 90;
  constexpr uint32_t kRows = 4;
  constexpr int kThreads = 4;
  constexpr int kEpochs = 12;
  RowRef w = NewServedMatrix(kDim, kRows);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> batches{0}, requests{0}, verified{0}, mismatches{0};
  std::atomic<uint64_t> failures{0};
  auto serve = [&](uint64_t seed) {
    PsClient direct(master_.get());
    TaskTraffic t;
    TrafficScope scope(&t);
    for (uint64_t i = 0;; ++i) {
      // Read the flag BEFORE the batch: once the coordinator is done the
      // epoch is stable, so the batch after it is always verified.
      const bool last = done.load(std::memory_order_acquire);
      std::vector<ServingRequest> batch;
      for (uint64_t k = 0; k < 3 + (seed + i) % 4; ++k) {
        const uint32_t row = static_cast<uint32_t>((seed + i + k) % kRows);
        if ((seed + k) % 3 == 0) {
          batch.push_back(Req({w.matrix_id, row}));
        } else {
          batch.push_back(Req({w.matrix_id, row},
                              {(seed + k) % kDim, (i * 7 + k) % kDim}));
          std::sort(batch.back().indices.begin(), batch.back().indices.end());
          batch.back().indices.erase(
              std::unique(batch.back().indices.begin(),
                          batch.back().indices.end()),
              batch.back().indices.end());
        }
      }
      const uint64_t before = frontend.pinned_epoch();
      auto values = frontend.ServeBatch(batch);
      const uint64_t after = frontend.pinned_epoch();
      requests.fetch_add(batch.size());
      batches.fetch_add(1);
      if (!values.ok()) {
        failures.fetch_add(1);
        continue;
      }
      // With no repin in between, the whole batch was served at `after`:
      // it must equal a direct, uncoalesced pull pinned there (unless that
      // epoch has been evicted since).
      if (before == after) {
        std::vector<PsClient::ServingRead> reads;
        for (const ServingRequest& req : batch) {
          reads.push_back({req.row, req.indices});
        }
        auto direct_values = direct.ServingPullAsync(after, reads).Get();
        if (direct_values.ok()) {
          verified.fetch_add(1);
          if (*direct_values != *values) mismatches.fetch_add(1);
        }
      }
      if (last) break;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) threads.emplace_back(serve, 11 * i + 1);

  {
    TaskTraffic t;
    TrafficScope scope(&t);
    for (int e = 0; e < kEpochs; ++e) {
      // Let the readers serve a few batches against each epoch.
      const uint64_t target = batches.load() + kThreads;
      while (batches.load() < target) std::this_thread::yield();
      ASSERT_TRUE(client_
                      ->PushSparse({w.matrix_id, static_cast<uint32_t>(e % kRows)},
                                   SparseVector({1, 45, 89}, {1.0, 2.0, 3.0}))
                      .ok());
      ASSERT_TRUE(
          WriteRow(*client_, {w.matrix_id, 3}, std::vector<double>(kDim, 0.5))
              .ok());
      ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(verified.load(), static_cast<uint64_t>(kThreads));
  uint64_t demand = 0;
  for (uint32_t r = 0; r < kRows; ++r) {
    demand += frontend.DemandCount({w.matrix_id, r});
  }
  EXPECT_EQ(demand, requests.load());
  EXPECT_EQ(frontend.stats().requests, requests.load());
}

TEST(TrafficGenTest, DeterministicSortedAndInRange) {
  TrafficGenOptions options;
  options.qps = 500.0;
  options.skew = 2.0;
  options.num_rows = 8;
  options.dim = 1000;
  options.keys_per_request = 16;
  options.seed = 42;
  ASSERT_TRUE(options.Validate().ok());

  TrafficGen a(options), b(options);
  double last_arrival = 0.0;
  for (int i = 0; i < 200; ++i) {
    ServingRequest ra = a.Next();
    ServingRequest rb = b.Next();
    EXPECT_EQ(ra.arrival_s, rb.arrival_s);
    EXPECT_EQ(ra.row.row, rb.row.row);
    EXPECT_EQ(ra.indices, rb.indices);
    EXPECT_GT(ra.arrival_s, last_arrival);
    last_arrival = ra.arrival_s;
    EXPECT_LT(ra.row.row, options.num_rows);
    EXPECT_TRUE(std::is_sorted(ra.indices.begin(), ra.indices.end()));
    EXPECT_TRUE(std::adjacent_find(ra.indices.begin(), ra.indices.end()) ==
                ra.indices.end());
    for (uint64_t idx : ra.indices) EXPECT_LT(idx, options.dim);
  }
}

TEST(TrafficGenTest, SkewFavorsLowRows) {
  TrafficGenOptions options;
  options.qps = 1000.0;
  options.skew = 3.0;
  options.num_rows = 16;
  options.seed = 3;
  TrafficGen gen(options);
  std::vector<int> counts(options.num_rows, 0);
  for (int i = 0; i < 4000; ++i) counts[gen.Next().row.row] += 1;
  EXPECT_GT(counts[0], counts[options.num_rows - 1] * 4);
}

TEST(AdmissionTest, TokenBucketLimitsSustainedRate) {
  AdmissionOptions options;
  options.rate_qps = 10.0;
  options.burst = 2.0;
  options.max_queue_depth = 0;  // bucket only
  ASSERT_TRUE(options.Validate().ok());
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(0.0, 0));
  EXPECT_TRUE(admission.Admit(0.0, 0));
  EXPECT_FALSE(admission.Admit(0.0, 0));  // bucket empty
  EXPECT_TRUE(admission.Admit(0.1, 0));   // one token refilled
  EXPECT_FALSE(admission.Admit(0.1, 0));
  EXPECT_EQ(admission.admitted(), 3u);
  EXPECT_EQ(admission.shed(), 2u);
}

TEST(AdmissionTest, QueueDepthBoundSheds) {
  AdmissionOptions options;
  options.rate_qps = 0.0;  // no bucket
  options.max_queue_depth = 4;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(0.0, 3));
  EXPECT_FALSE(admission.Admit(0.0, 4));
  EXPECT_FALSE(admission.Admit(0.0, 100));
}

TEST_F(ServingTest, ServingLoopReportIsConsistent) {
  RowRef w = NewServedMatrix(200, 4);
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());

  ServingLoopOptions options;
  options.duration_s = 0.05;
  options.batch_max = 4;
  options.traffic.qps = 2000.0;
  options.traffic.skew = 1.5;
  options.traffic.matrix_id = w.matrix_id;
  options.traffic.num_rows = 4;
  options.traffic.dim = 200;
  options.traffic.keys_per_request = 8;
  options.traffic.seed = 11;
  options.admission.max_queue_depth = 8;

  auto report = RunServingLoop(master_.get(), client_.get(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->offered, 0u);
  EXPECT_EQ(report->offered, report->admitted + report->shed);
  EXPECT_EQ(report->served, report->admitted);
  EXPECT_GT(report->achieved_qps, 0.0);
  EXPECT_LE(report->p50_us, report->p95_us);
  EXPECT_LE(report->p95_us, report->p99_us);
  EXPECT_GT(report->p50_us, 0.0);
  EXPECT_EQ(cluster_->metrics().Get("serving.requests_served"),
            report->served);
  EXPECT_EQ(cluster_->metrics().Get("serving.requests_offered"),
            report->offered);
}

TEST_F(ServingTest, ServingLoopIsDeterministic) {
  auto RunOnce = [](double qps) -> ServingReport {
    ClusterSpec spec = MakeSpec();
    Cluster cluster(spec);
    PsMaster master(&cluster);
    PsClient client(&master);
    MatrixOptions mopts;
    mopts.dim = 120;
    mopts.reserve_rows = 4;
    int id = *master.CreateMatrix(mopts);
    for (uint32_t r = 0; r < 4; ++r) {
      EXPECT_TRUE(
          WriteRow(client, RowRef{id, r}, std::vector<double>(120, 1.0)).ok());
    }
    EXPECT_TRUE(master.serving_snapshots()->Publish().ok());
    ServingLoopOptions options;
    options.duration_s = 0.02;
    options.traffic.qps = qps;
    options.traffic.matrix_id = id;
    options.traffic.num_rows = 4;
    options.traffic.dim = 120;
    options.traffic.keys_per_request = 4;
    options.traffic.seed = 9;
    return *RunServingLoop(&master, &client, options);
  };
  ServingReport a = RunOnce(3000.0);
  ServingReport b = RunOnce(3000.0);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.achieved_qps, b.achieved_qps);
}

}  // namespace
}  // namespace ps2
