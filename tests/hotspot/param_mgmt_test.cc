// Per-key parameter management (DESIGN.md §13): home_server matrices,
// batch relocation, the owned-rows client builders, loopback accounting
// for co-located workers, and the three-tier classifier.

#include "hotspot/param_mgmt.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "dcv/dcv_context.h"
#include "membership/membership_manager.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "tests/ps/ps_test_util.h"
#include "ps/ps_server.h"

namespace ps2 {
namespace {

class ParamMgmtTest : public ::testing::Test {
 protected:
  void Build(int workers, int servers, bool colocate) {
    ClusterSpec spec;
    spec.num_workers = workers;
    spec.num_servers = servers;
    spec.colocate_workers = colocate;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  PsMaster* master() { return ctx_->master(); }
  PsClient* client() { return ctx_->client(); }

  /// Creates a two-row per-key matrix homed on `server`.
  int KeyMatrix(int server, uint64_t dim = 8) {
    MatrixOptions mo;
    mo.name = "key";
    mo.dim = dim;
    mo.reserve_rows = 2;
    mo.home_server = server;
    Result<int> id = master()->CreateMatrix(mo);
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST(ParamMgmtModeTest, ParseRoundTrips) {
  ParamMgmtMode mode;
  ASSERT_TRUE(ParseParamMgmtMode("off", &mode));
  EXPECT_EQ(mode, ParamMgmtMode::kOff);
  ASSERT_TRUE(ParseParamMgmtMode("hotspot", &mode));
  EXPECT_EQ(mode, ParamMgmtMode::kHotspot);
  ASSERT_TRUE(ParseParamMgmtMode("nups", &mode));
  EXPECT_EQ(mode, ParamMgmtMode::kNups);
  EXPECT_FALSE(ParseParamMgmtMode("NUPS", &mode));
  EXPECT_FALSE(ParseParamMgmtMode("", &mode));
  EXPECT_STREQ(ParamMgmtModeName(ParamMgmtMode::kNups), "nups");
}

TEST(ParamMgmtOptionsTest, ValidateRejectsBadKnobs) {
  ParamMgmtOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.hysteresis_ticks = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = ParamMgmtOptions{};
  options.dominance = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = ParamMgmtOptions{};
  options.dominance = 1.5;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = ParamMgmtOptions{};
  options.tick_every = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST_F(ParamMgmtTest, HomeServerMatrixIsSinglePartition) {
  Build(2, 3, /*colocate=*/false);
  const int id = KeyMatrix(/*server=*/2);
  Result<MatrixMeta> meta = master()->GetMeta(id);
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta->partitioner.assignment().size(), 1u);
  EXPECT_EQ(meta->partitioner.ServerOfPartition(0), 2);

  MatrixOptions bad;
  bad.dim = 8;
  bad.home_server = 99;
  EXPECT_TRUE(master()->CreateMatrix(bad).status().IsInvalidArgument());
}

TEST_F(ParamMgmtTest, RelocateMatricesMovesValuesExactly) {
  Build(2, 3, /*colocate=*/false);
  const int id = KeyMatrix(/*server=*/0);
  std::vector<double> values = {1.5, -2.25, 3.0, 0.5, -1.0, 7.0, 0.0, 4.5};
  ASSERT_TRUE(
      client()->WriteRowsAsync({RowRef{id, 0}}, {values},
                               RowSelector::All()).Wait().ok());

  Result<MigrationStats> stats =
      master()->membership()->RelocateMatrices({{id, 1}});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->moves, 1u);
  EXPECT_GT(stats->bytes_moved, 0u);
  Result<MatrixMeta> meta = master()->GetMeta(id);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->partitioner.ServerOfPartition(0), 1);

  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), {RowRef{id, 0}}, RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  EXPECT_EQ((*pulled)[0], values);

  // Already home: skipped, zeroed stats, no epoch churn.
  Result<MigrationStats> again =
      master()->membership()->RelocateMatrices({{id, 1}});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->moves, 0u);
  // Inactive target: rejected.
  EXPECT_TRUE(master()
                  ->membership()
                  ->RelocateMatrices({{id, 7}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ParamMgmtTest, HeldMetaSurvivesRelocationCommit) {
  Build(2, 3, /*colocate=*/false);
  const int id = KeyMatrix(/*server=*/0);
  Result<MetaBatch> before = master()->GetMetas({RowRef{id, 0}});
  ASSERT_TRUE(before.ok()) << before.status();
  const std::shared_ptr<const MatrixMeta> held = before->Hold(0);
  before = Status::NotFound("dropped");  // only the held handle remains
  const uint64_t old_epoch = held->routing_epoch;

  ASSERT_TRUE(master()->membership()->RelocateMatrices({{id, 1}}).ok());
  // The commit published a new meta; the one already handed out is intact.
  EXPECT_EQ(held->partitioner.ServerOfPartition(0), 0);
  EXPECT_EQ(held->routing_epoch, old_epoch);

  Result<MetaBatch> after =
      master()->GetMetas({RowRef{id, 0}, RowRef{id, 1}});
  ASSERT_TRUE(after.ok()) << after.status();
  for (const MatrixMeta* meta : after->metas) {
    EXPECT_EQ(meta->partitioner.ServerOfPartition(0), 1);
    EXPECT_EQ(meta->routing_epoch, master()->routing_epoch());
    EXPECT_GT(meta->routing_epoch, old_epoch);
  }
}

TEST_F(ParamMgmtTest, OwnedRowsWithUnknownMatrixSendNothing) {
  Build(2, 2, /*colocate=*/false);
  const int id = KeyMatrix(0);
  const std::vector<RowRef> refs = {RowRef{id, 0}, RowRef{id + 1000, 0}};
  const uint64_t messages = cluster_->metrics().Get("net.messages");
  EXPECT_TRUE(
      client()->ReadRowsAsync(refs,
                              RowSelector::All()).Get().status().IsNotFound());
  EXPECT_TRUE(client()
                  ->WriteRowsAsync(refs,
                                   std::vector<std::vector<double>>{
                                       std::vector<double>(8, 1.0),
                                       std::vector<double>(8, 1.0)},
                                   RowSelector::All())
                  .Wait()
                  .IsNotFound());
  EXPECT_EQ(cluster_->metrics().Get("net.messages"), messages);
  // The known row alone goes out (the counter is live).
  ASSERT_TRUE(client()->ReadRowsAsync({refs[0]},
                                      RowSelector::All()).Get().ok());
  EXPECT_GT(cluster_->metrics().Get("net.messages"), messages);
}

TEST_F(ParamMgmtTest, OwnedRowsLandExactlyOnceWhileKeysRelocate) {
  Build(8, 3, /*colocate=*/false);
  constexpr int kKeys = 6;
  constexpr uint64_t kDim = 8;
  constexpr size_t kWorkers = 8;
  constexpr int kRounds = 25;
  constexpr int kLaps = 4;
  std::vector<RowRef> refs;
  std::vector<std::vector<double>> deltas;  // key k adds k + 1 per round
  for (int k = 0; k < kKeys; ++k) {
    refs.push_back(RowRef{KeyMatrix(k % 3, kDim), 0});
    deltas.emplace_back(kDim, static_cast<double>(k + 1));
  }
  // Task 0 walks every key around the servers while the other eight push
  // to and pull from all keys. A bounced batch is re-planned row by row:
  // every push applies once, and every pulled row is one whole row of its
  // own key (a multiple of k + 1 in every column).
  auto body = [&](TaskContext& task) {
    if (task.task_id == 0) {
      for (int lap = 0; lap < kLaps; ++lap) {
        for (int k = 0; k < kKeys; ++k) {
          Result<MigrationStats> moved =
              master()->membership()->RelocateMatrices(
                  {{refs[k].matrix_id, (k + lap + 1) % 3}});
          PS2_CHECK(moved.ok()) << moved.status();
        }
      }
      return;
    }
    for (int r = 0; r < kRounds; ++r) {
      PS2_CHECK_OK(client()->WriteRowsAsync(refs, deltas,
                                            RowSelector::All()).Wait());
      Result<std::vector<std::vector<double>>> rows =
          ReadRows(*client(), refs, RowSelector::All());
      PS2_CHECK(rows.ok()) << rows.status();
      for (int k = 0; k < kKeys; ++k) {
        const std::vector<double>& row = (*rows)[k];
        PS2_CHECK_EQ(row.size(), kDim);
        PS2_CHECK_EQ(std::fmod(row[0], k + 1.0), 0.0) << "key " << k;
        for (double v : row) PS2_CHECK_EQ(v, row[0]) << "key " << k;
      }
    }
  };
  cluster_->RunStage("owned_rows_during_relocate", kWorkers + 1, body);
  EXPECT_EQ(master()->membership()->migrations(),
            static_cast<uint64_t>(kLaps * kKeys));
  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), refs, RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  for (int k = 0; k < kKeys; ++k) {
    for (double v : (*pulled)[k]) {
      EXPECT_EQ(v, static_cast<double>((k + 1) * kWorkers * kRounds))
          << "key " << k;
    }
  }
}

TEST_F(ParamMgmtTest, OwnedRowsLandExactlyOnceWhileMatricesChurn) {
  Build(4, 3, /*colocate=*/false);
  constexpr int kKeys = 6;
  constexpr uint64_t kDim = 8;
  constexpr size_t kWorkers = 4;
  constexpr int kRounds = 40;
  constexpr int kLaps = 12;
  constexpr double kChurnValue = 0.5;
  std::vector<RowRef> refs;
  std::vector<std::vector<double>> deltas;  // key k adds k + 1 per round
  for (int k = 0; k < kKeys; ++k) {
    refs.push_back(RowRef{KeyMatrix(k % 3, kDim), 0});
    deltas.emplace_back(kDim, static_cast<double>(k + 1));
  }
  // Task 0 creates a matrix, fills it, relocates it and a stable key, then
  // frees it — lap after lap — while four workers push and pull the stable
  // keys and pull whichever churned matrix is current. A churned row reads
  // whole or NotFound; a freed shard or meta is never read (the sanitizer
  // lanes run this).
  std::atomic<int> churn{-1};
  auto body = [&](TaskContext& task) {
    if (task.task_id == 0) {
      for (int lap = 0; lap < kLaps; ++lap) {
        MatrixOptions mo;
        mo.name = "churn";
        mo.dim = kDim;
        mo.reserve_rows = 2;
        mo.home_server = lap % 3;
        Result<int> id = master()->CreateMatrix(mo);
        PS2_CHECK(id.ok()) << id.status();
        PS2_CHECK_OK(client()
                         ->WriteRowsAsync({RowRef{*id, 1}},
                                          std::vector<double>(kDim, kChurnValue),
                                          RowSelector::All())
                         .Wait());
        churn.store(*id);
        PS2_CHECK(master()
                      ->membership()
                      ->RelocateMatrices({{*id, (lap + 1) % 3},
                                          {refs[lap % kKeys].matrix_id,
                                           (lap + 2) % 3}})
                      .ok());
        PS2_CHECK_OK(master()->FreeMatrix(*id));
      }
      return;
    }
    for (int r = 0; r < kRounds; ++r) {
      PS2_CHECK_OK(client()->WriteRowsAsync(refs, deltas,
                                            RowSelector::All()).Wait());
      Result<std::vector<std::vector<double>>> rows =
          ReadRows(*client(), refs, RowSelector::All());
      PS2_CHECK(rows.ok()) << rows.status();
      for (int k = 0; k < kKeys; ++k) {
        const std::vector<double>& row = (*rows)[k];
        PS2_CHECK_EQ(row.size(), kDim);
        PS2_CHECK_EQ(std::fmod(row[0], k + 1.0), 0.0) << "key " << k;
        for (double v : row) PS2_CHECK_EQ(v, row[0]) << "key " << k;
      }
      const int id = churn.load();
      if (id < 0) continue;
      Result<std::vector<std::vector<double>>> churned =
          ReadRows(*client(), {RowRef{id, 1}}, RowSelector::All());
      if (!churned.ok()) {
        PS2_CHECK(churned.status().IsNotFound()) << churned.status();
        continue;
      }
      for (double v : (*churned)[0]) PS2_CHECK_EQ(v, kChurnValue);
    }
  };
  cluster_->RunStage("owned_rows_during_churn", kWorkers + 1, body);
  EXPECT_EQ(master()->membership()->migrations(),
            static_cast<uint64_t>(kLaps));
  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), refs, RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  for (int k = 0; k < kKeys; ++k) {
    for (double v : (*pulled)[k]) {
      EXPECT_EQ(v, static_cast<double>((k + 1) * kWorkers * kRounds))
          << "key " << k;
    }
  }
  // Every churned matrix is gone from the master and from every server.
  const int last = churn.load();
  EXPECT_TRUE(master()->GetMeta(last).status().IsNotFound());
  for (int s = 0; s < 3; ++s) {
    EXPECT_FALSE(master()->server(s)->HasMatrix(last));
  }
}

/// FNV-1a-64 of `bytes`, folded into `h`.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes,
               uint64_t h = 0xcbf29ce484222325ULL) {
  for (uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

TEST_F(ParamMgmtTest, ShardAndMetaLifecycleKeepsExactRows) {
  Build(2, 3, /*colocate=*/false);
  constexpr int kKeys = 5;
  constexpr uint64_t kDim = 4;
  std::vector<int> ids;
  for (int k = 0; k < kKeys; ++k) ids.push_back(KeyMatrix(k % 3, kDim));
  // Both rows of every key; row r of key k gets 10k + r + c/4 in column c.
  std::vector<RowRef> refs;
  std::vector<std::vector<double>> deltas;
  for (int k = 0; k < kKeys; ++k) {
    for (uint32_t r = 0; r < 2; ++r) {
      refs.push_back(RowRef{ids[k], r});
      std::vector<double> d(kDim);
      for (uint64_t c = 0; c < kDim; ++c) d[c] = 10.0 * k + r + c / 4.0;
      deltas.push_back(std::move(d));
    }
  }
  auto expect_rows = [&](const std::vector<std::vector<double>>& want,
                         const char* step) {
    Result<std::vector<std::vector<double>>> pulled =
        ReadRows(*client(), refs, RowSelector::All());
    ASSERT_TRUE(pulled.ok()) << step << ": " << pulled.status();
    EXPECT_EQ(*pulled, want) << step;
  };

  expect_rows(std::vector<std::vector<double>>(refs.size(),
                                               std::vector<double>(kDim)),
              "create");
  ASSERT_TRUE(client()->WriteRowsAsync(refs, deltas,
                                       RowSelector::All()).Wait().ok());
  expect_rows(deltas, "push");
  ASSERT_TRUE(
      master()->membership()->RelocateMatrices({{ids[0], 2}, {ids[3], 1}})
          .ok());
  expect_rows(deltas, "relocate away");
  // Back home one at a time, the higher id first: server 0 now receives
  // its shards out of id order.
  ASSERT_TRUE(master()->membership()->RelocateMatrices({{ids[3], 0}}).ok());
  ASSERT_TRUE(master()->membership()->RelocateMatrices({{ids[0], 0}}).ok());
  expect_rows(deltas, "relocate back");

  // Free key 1 (homed on server 1): its id answers NotFound everywhere —
  // at the master and at the server that held it — never a stale row.
  ASSERT_TRUE(master()->FreeMatrix(ids[1]).ok());
  EXPECT_TRUE(client()
                  ->ReadRowsAsync({RowRef{ids[1], 0}}, RowSelector::All())
                  .Get()
                  .status()
                  .IsNotFound());
  BufferWriter stale;
  stale.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
  stale.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll));
  stale.WriteVarint(1);
  stale.WriteVarint(ids[1]);
  stale.WriteVarint(0);
  EXPECT_TRUE(HandleBytes(*master()->server(1), stale.buffer())
                  .status()
                  .IsNotFound());
  refs.erase(refs.begin() + 2, refs.begin() + 4);
  deltas.erase(deltas.begin() + 2, deltas.begin() + 4);
  expect_rows(deltas, "free");

  // Checkpoint, push once more, then crash every server: DropAllState and
  // the restore bring back exactly the checkpointed rows.
  ASSERT_TRUE(master()->CheckpointAll().ok());
  ASSERT_TRUE(client()->WriteRowsAsync(refs, deltas,
                                       RowSelector::All()).Wait().ok());
  std::vector<std::vector<double>> twice = deltas;
  for (std::vector<double>& row : twice) {
    for (double& v : row) v *= 2;
  }
  expect_rows(twice, "push after checkpoint");
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(master()->KillAndRecoverServer(s).ok());
  }
  expect_rows(deltas, "restore");

  // The servers' checkpoint images, pinned byte for byte: shards are
  // written in matrix-id order whatever order they arrived in.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int s = 0; s < 3; ++s) {
    h = Fnv1a(master()->server(s)->SerializeState(), h);
  }
  EXPECT_EQ(h, 17162497734178346462ULL);
}

TEST_F(ParamMgmtTest, OwnedRowsRoundTripAcrossServers) {
  Build(2, 3, /*colocate=*/false);
  const int a = KeyMatrix(0), b = KeyMatrix(1), c = KeyMatrix(2);
  std::vector<RowRef> refs = {RowRef{a, 0}, RowRef{b, 1}, RowRef{c, 0},
                              RowRef{a, 1}};
  std::vector<std::vector<double>> deltas(4, std::vector<double>(8, 0.0));
  for (size_t r = 0; r < deltas.size(); ++r) {
    for (size_t i = 0; i < 8; ++i) {
      deltas[r][i] = static_cast<double>(r * 10 + i);
    }
  }
  ASSERT_TRUE(client()->WriteRowsAsync(refs, deltas,
                                       RowSelector::All()).Wait().ok());
  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), refs, RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  ASSERT_EQ(pulled->size(), refs.size());
  for (size_t r = 0; r < refs.size(); ++r) EXPECT_EQ((*pulled)[r], deltas[r]);

  // A spread (multi-partition) row rides the same op: each server sends
  // its slice.
  Dcv spread = *ctx_->Dense(64, 2, 1, 0, "spread");
  std::vector<double> ramp(64);
  for (size_t c = 0; c < ramp.size(); ++c) ramp[c] = static_cast<double>(c);
  ASSERT_TRUE(spread.Push(ramp).ok());
  std::vector<RowRef> mixed{refs[0], spread.ref()};
  Result<std::vector<std::vector<double>>> both =
      ReadRows(*client(), mixed, RowSelector::All());
  ASSERT_TRUE(both.ok()) << both.status();
  EXPECT_EQ((*both)[0], deltas[0]);
  EXPECT_EQ((*both)[1], ramp);
}

TEST_F(ParamMgmtTest, OwnedPullServesHotRowsFromCache) {
  Build(2, 2, /*colocate=*/false);
  const int id = KeyMatrix(0);
  std::vector<double> values(8, 3.0);
  ASSERT_TRUE(
      client()->WriteRowsAsync({RowRef{id, 0}}, {values},
                               RowSelector::All()).Wait().ok());
  ASSERT_TRUE(master()->hotspot()->ReplicateNow({RowRef{id, 0}}).ok());

  const uint64_t hits_before = cluster_->metrics().Get("net.local_pull_hits");
  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), {RowRef{id, 0}, RowRef{id, 1}},
               RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  EXPECT_EQ((*pulled)[0], values);
  EXPECT_EQ(cluster_->metrics().Get("net.local_pull_hits"), hits_before + 1);
}

TEST_F(ParamMgmtTest, ColocatedTrafficBecomesLoopback) {
  Build(2, 2, /*colocate=*/true);
  // Executor 0 co-locates with server 0; keys on both servers.
  const int local = KeyMatrix(0), remote = KeyMatrix(1);
  cluster_->RunStage("pull", 1, [&](TaskContext& task) {
    (void)task;
    ASSERT_TRUE(client()
                    ->ReadRowsAsync({RowRef{local, 0}, RowRef{remote, 0}},
                                    RowSelector::All())
                    .Get()
                    .ok());
  });
  EXPECT_GT(cluster_->metrics().Get("net.loopback_exchanges"), 0u);
  EXPECT_GT(cluster_->metrics().Get("net.loopback_bytes"), 0u);
  // The wire only carried the remote server's half.
  EXPECT_GT(cluster_->metrics().Get("net.bytes_server_to_worker"), 0u);

  // Same stage with colocation off moves strictly more wire bytes.
  Build(2, 2, /*colocate=*/false);
  const int l2 = KeyMatrix(0), r2 = KeyMatrix(1);
  cluster_->RunStage("pull", 1, [&](TaskContext& task) {
    (void)task;
    ASSERT_TRUE(client()
                    ->ReadRowsAsync({RowRef{l2, 0}, RowRef{r2, 0}},
                                    RowSelector::All())
                    .Get()
                    .ok());
  });
  EXPECT_EQ(cluster_->metrics().Get("net.loopback_exchanges"), 0u);
}

TEST_F(ParamMgmtTest, ClassifierTiersHotWarmCold) {
  Build(4, 4, /*colocate=*/true);
  ParamMgmtOptions options;
  options.mode = ParamMgmtMode::kNups;
  options.hot_k = 1;
  options.warm_k = 4;
  options.dominance = 0.6;
  options.min_count = 4;
  options.hysteresis_ticks = 2;
  ParamMgmtManager mgmt(master(), options);
  ASSERT_TRUE(mgmt.Enable().ok());

  // Key 0 hot (pulled by everyone), key 1 warm (dominated by executor 2,
  // homed elsewhere), key 2 cold (barely touched).
  std::vector<int> ids = {KeyMatrix(0), KeyMatrix(0), KeyMatrix(3)};
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(mgmt.RegisterKey(k, ids[k], 2).ok());
  }
  for (int e = 0; e < 4; ++e) mgmt.RecordBatch(e, {{0, 100}});
  mgmt.RecordBatch(2, {{1, 90}});
  mgmt.RecordBatch(3, {{1, 10}});
  mgmt.RecordBatch(1, {{2, 2}});
  ASSERT_TRUE(mgmt.Tick().ok());

  // Hot: both rows replicated everywhere.
  EXPECT_TRUE(master()->hotspot()->IsReplicated(RowRef{ids[0], 0}));
  EXPECT_TRUE(master()->hotspot()->IsReplicated(RowRef{ids[0], 1}));
  // Warm: relocated to executor 2's co-located server.
  EXPECT_EQ(mgmt.HomeOf(1), 2);
  EXPECT_EQ(mgmt.relocations(), 1u);
  // Cold: under min_count, untouched.
  EXPECT_EQ(mgmt.HomeOf(2), 3);
  EXPECT_EQ(cluster_->metrics().Get("nups.replicated"), 1u);
  EXPECT_EQ(cluster_->metrics().Get("nups.relocated"), 1u);
  EXPECT_EQ(cluster_->metrics().Get("nups.cold"), 1u);
  EXPECT_GT(cluster_->metrics().Get("net.relocation_bytes"), 0u);

  // A key already home does not move again.
  mgmt.RecordBatch(2, {{1, 90}});
  ASSERT_TRUE(mgmt.Tick().ok());
  EXPECT_EQ(mgmt.relocations(), 1u);
}

TEST_F(ParamMgmtTest, OffAndHotspotModesDelegate) {
  Build(2, 2, /*colocate=*/false);
  ParamMgmtOptions off;
  ParamMgmtManager mgmt_off(master(), off);
  ASSERT_TRUE(mgmt_off.Enable().ok());
  ASSERT_TRUE(mgmt_off.Tick().ok());
  EXPECT_FALSE(master()->hotspot()->enabled());

  ParamMgmtOptions hs;
  hs.mode = ParamMgmtMode::kHotspot;
  hs.hotspot.top_k = 2;
  ParamMgmtManager mgmt_hs(master(), hs);
  ASSERT_TRUE(mgmt_hs.Enable().ok());
  EXPECT_TRUE(master()->hotspot()->enabled());
  ASSERT_TRUE(mgmt_hs.Tick().ok());
}

}  // namespace
}  // namespace ps2
