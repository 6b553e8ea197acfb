// Online resharding end-to-end (DESIGN.md §12): parameter values must
// survive joins, leaves and rebalances exactly — including under injected
// message faults and server crashes on the migration's own control legs,
// which is what the migration-faults CI lane sweeps over seeds (the
// PS2_FAULT_SEED environment variable below).

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "membership/membership_manager.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("PS2_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

std::vector<double> Pattern(uint64_t dim) {
  std::vector<double> v(dim);
  for (uint64_t i = 0; i < dim; ++i) {
    v[i] = 1.0 + 0.5 * static_cast<double>(i % 97);
  }
  return v;
}

void ExpectExactly(const std::vector<double>& got,
                   const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "column " << i;
  }
}

TEST(MigrationTest, ScaleOutPreservesEveryValue) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 8;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(WriteRow(client, row, want).ok());

  while (master.num_active_servers() < 8) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    ExpectExactly(*ReadRow(client, row), want);
  }
  EXPECT_EQ(master.routing_epoch(), 6u);
  EXPECT_EQ(master.num_active_servers(), 8);
  EXPECT_GT(cluster.metrics().Get("migrate.moves"), 0u);
  EXPECT_GT(cluster.metrics().Get("migrate.bytes"), 0u);
  // The fleet is exhausted: no spare slot is left to claim.
  EXPECT_TRUE(master.AddServer().status().IsFailedPrecondition());
}

TEST(MigrationTest, ScaleInPreservesValuesAndRetiresTheSlot) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  spec.max_servers = 4;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 2048;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(WriteRow(client, row, want).ok());

  ASSERT_TRUE(master.RemoveServer(1).ok());
  EXPECT_FALSE(master.is_server_active(1));
  ExpectExactly(*ReadRow(client, row), want);

  // The slot is retired, not merely inactive.
  EXPECT_TRUE(master.RemoveServer(1).IsInvalidArgument());
  EXPECT_TRUE(master.AddServer().status().IsFailedPrecondition());

  ASSERT_TRUE(master.RemoveServer(3).ok());
  ASSERT_TRUE(master.RemoveServer(0).ok());
  ExpectExactly(*ReadRow(client, row), want);
  // One server must always remain.
  EXPECT_TRUE(master.RemoveServer(2).IsFailedPrecondition());
  EXPECT_EQ(master.num_active_servers(), 1);
}

TEST(MigrationTest, RebalanceShedsEdgePartitionOffBusiestServer) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 2;
  spec.max_servers = 8;  // 8 fixed partitions, 4 per active server
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(WriteRow(client, row, want).ok());

  const std::vector<int> before =
      master.GetMeta(row.matrix_id)->partitioner.assignment();
  const int busiest = before.front();
  // Hammer only the columns of the first partition: all of that traffic
  // lands on `busiest`, so its busy-time delta dominates the window.
  std::vector<uint64_t> hot(mo.dim / 8);
  for (uint64_t i = 0; i < hot.size(); ++i) hot[i] = i;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(ReadRow(client, row, RowSelector::Indices(hot)).ok());
  }

  Result<bool> moved = master.RebalanceOnce(/*min_skew=*/1.25);
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_TRUE(*moved);
  const std::vector<int> after =
      master.GetMeta(row.matrix_id)->partitioner.assignment();
  int owned_before = 0, owned_after = 0;
  for (size_t p = 0; p < before.size(); ++p) {
    owned_before += before[p] == busiest ? 1 : 0;
    owned_after += after[p] == busiest ? 1 : 0;
  }
  EXPECT_EQ(owned_after, owned_before - 1);
  EXPECT_EQ(cluster.metrics().Get("migrate.rebalances"), 1u);
  ExpectExactly(*ReadRow(client, row), want);
}

TEST(MigrationTest, ScaleOutUnderMessageFaultsStaysExact) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 8;
  spec.message_failure_prob = 0.05;
  spec.seed = FaultSeed();
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(WriteRow(client, row, want).ok());

  // Interleave mutating traffic with every join: lost requests must retry,
  // lost responses must dedup, and the migration's own extract / install /
  // commit legs ride the same machinery.
  const std::vector<double> ones(mo.dim, 1.0);
  while (master.num_active_servers() < 8) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(WriteRow(client, row, ones).ok());
      for (uint64_t i = 0; i < mo.dim; ++i) want[i] += 1.0;
      ExpectExactly(*ReadRow(client, row), want);
    }
  }
  EXPECT_EQ(master.routing_epoch(), 6u);
  EXPECT_GT(cluster.metrics().Get("net.retries"), 0u);
}

TEST(MigrationTest, ScaleOutUnderCrashFaultsStaysExact) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 8;
  spec.server_crash_prob = 0.02;
  spec.seed = FaultSeed();
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  // Seeding itself can be torn by an injected crash: per-partition pushes
  // that were acked before the crash are rolled back to the (empty)
  // checkpoint and never retried. Patch the difference until the state
  // converges, then checkpoint — from here on a crash restores exactly
  // `want`, and every committed migration re-checkpoints.
  for (;;) {
    std::vector<double> got = *ReadRow(client, row);
    std::vector<double> patch(mo.dim);
    bool dirty = false;
    for (uint64_t i = 0; i < mo.dim; ++i) {
      patch[i] = want[i] - got[i];
      dirty = dirty || patch[i] != 0.0;
    }
    if (!dirty) break;
    ASSERT_TRUE(WriteRow(client, row, patch).ok());
  }
  ASSERT_TRUE(master.CheckpointAll().ok());

  while (master.num_active_servers() < 8) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    for (int k = 0; k < 16; ++k) {
      ExpectExactly(*ReadRow(client, row), want);
    }
  }
  EXPECT_EQ(master.routing_epoch(), 6u);
  for (int s = 0; s < master.num_servers(); ++s) {
    EXPECT_FALSE(master.server(s)->crashed()) << "server " << s;
  }
}

TEST(MigrationTest, KillAndRecoverBetweenJoinsRestoresNewBounds) {
  // A migration ends with CheckpointAll, so fresh images carry the new
  // shard bounds: killing either the joined server or an original one right
  // after a join must restore straight into the new routing table.
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 6;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(WriteRow(client, row, want).ok());

  while (master.num_active_servers() < 6) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    ASSERT_TRUE(master.KillAndRecoverServer(*added).ok());
    ASSERT_TRUE(master.KillAndRecoverServer(0).ok());
    ExpectExactly(*ReadRow(client, row), want);
  }
  EXPECT_EQ(master.routing_epoch(), 4u);
  EXPECT_GT(cluster.metrics().Get("ps.server_failures"), 0u);
}

}  // namespace
}  // namespace ps2
