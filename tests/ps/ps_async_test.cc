// Asynchronous client: future semantics, pipelined round accounting, the
// two execution routes (keyed requests inline, shard-scoped fan-outs on the
// cluster pool off its workers), and async ops racing server crash/recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "dataflow/cluster.h"
#include "ps/ps_client.h"
#include "ps/ps_future.h"
#include "ps/ps_master.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

class PsAsyncTest : public ::testing::Test {
 protected:
  explicit PsAsyncTest(PsClientOptions options = {}) {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get(), options);
  }

  RowRef NewMatrix(uint64_t dim, uint32_t rows = 4) {
    MatrixOptions options;
    options.dim = dim;
    options.reserve_rows = rows;
    return RowRef{*master_->CreateMatrix(options), 0};
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
};

TEST_F(PsAsyncTest, AsyncPullMatchesSync) {
  RowRef w = NewMatrix(100);
  std::vector<double> values(100);
  for (size_t i = 0; i < 100; ++i) values[i] = static_cast<double>(i);
  ASSERT_TRUE(client_->WriteRowsAsync({w}, values).Wait().ok());
  EXPECT_EQ(*ReadRowAsync(*client_, w).Get(), *ReadRow(*client_, w));
  const RowSelector window = RowSelector::Range(ColRange::Of(30, 70));
  EXPECT_EQ(*ReadRowAsync(*client_, w, window).Get(),
            *ReadRow(*client_, w, window));
}

TEST_F(PsAsyncTest, FutureReadyAfterWaitAndGetConsumesValue) {
  RowRef w = NewMatrix(40);
  PsFuture<std::vector<double>> f = ReadRowAsync(*client_, w);
  ASSERT_TRUE(f.Wait().ok());
  EXPECT_EQ(f.Get()->size(), 40u);
}

// A receipt owns its op's charge: copying one would charge it twice.
static_assert(!std::is_copy_constructible_v<PsFuture<Ack>>);
static_assert(!std::is_copy_assignable_v<PsFuture<Ack>>);

TEST(PsFutureDeathTest, SecondGetFailsACheck) {
  // The value moves out on the first Get; a second one must not hand back
  // an OK, empty result.
  PsFuture<std::vector<double>> f(
      Result<std::vector<double>>(std::vector<double>(40, 1.0)));
  ASSERT_EQ(f.Get()->size(), 40u);
  EXPECT_FALSE(f.valid());
  EXPECT_DEATH((void)f.Get(), "consumed PsFuture");
}

TEST_F(PsAsyncTest, MapPassesErrorsThrough) {
  RowRef w = NewMatrix(10);
  // Index 10 is out of range; the error reaches the mapped receipt.
  PsFuture<std::vector<double>> row =
      ReadRowAsync(*client_, w, RowSelector::Indices({10}));
  EXPECT_TRUE(row.Get().status().IsOutOfRange());
}

TEST_F(PsAsyncTest, FutureDroppedInsideAVectorChargesOnce) {
  // A receipt moved around inside a container and dropped there unsettled
  // charges the coordinator clock exactly once: the same advance and
  // messages as a twin op that was waited on.
  RowRef w = NewMatrix(300);
  const std::vector<double> delta(300, 1.0);
  MetricsRegistry& metrics = cluster_->metrics();
  SimTime t0 = cluster_->clock().Now();
  uint64_t msgs0 = metrics.Get("net.messages");
  {
    std::vector<PsFuture<Ack>> pending;
    pending.push_back(client_->WriteRowsAsync({w}, delta));
    pending.reserve(64);  // moves the receipt into a new buffer
  }
  const SimTime dropped = cluster_->clock().Now() - t0;
  const uint64_t dropped_msgs = metrics.Get("net.messages") - msgs0;
  EXPECT_GT(dropped, 0.0);
  EXPECT_GT(dropped_msgs, 0u);

  t0 = cluster_->clock().Now();
  msgs0 = metrics.Get("net.messages");
  PsFuture<Ack> twin = client_->WriteRowsAsync({w}, delta);
  ASSERT_TRUE(twin.Wait().ok());
  EXPECT_NEAR(cluster_->clock().Now() - t0, dropped, 1e-12 * dropped);
  EXPECT_EQ(metrics.Get("net.messages") - msgs0, dropped_msgs);
  EXPECT_DOUBLE_EQ((*ReadRow(*client_, w))[0], 2.0);
}

TEST_F(PsAsyncTest, MoveAssignSettlesTheOldOpFirst) {
  // The `pull = ...Async(...)` pattern of the async trainers: the new op is
  // issued while the old one is still outstanding (a follower), then the
  // assignment charges and retires the old op before taking the new one.
  RowRef w = NewMatrix(100);
  TaskTraffic traffic;
  {
    TrafficScope scope(&traffic);
    PsFuture<std::vector<double>> pull = ReadRowAsync(*client_, w);
    EXPECT_EQ(traffic.rounds, 0u);  // nothing charged before settlement
    pull = ReadRowAsync(*client_, w);
    EXPECT_EQ(traffic.rounds, 1u);  // the old op, charged at the assignment
    EXPECT_EQ(traffic.pipelined_rounds, 0u);
    ASSERT_TRUE(pull.Wait().ok());
    EXPECT_EQ(traffic.pipelined_rounds, 1u);
    // Both retired: the next op leads a round of its own.
    ASSERT_TRUE(ReadRowAsync(*client_, w).Wait().ok());
  }
  EXPECT_EQ(traffic.rounds, 2u);
  EXPECT_EQ(traffic.pipelined_rounds, 1u);
  TaskTraffic one;
  {
    TrafficScope scope(&one);
    ASSERT_TRUE(ReadRow(*client_, w).ok());
  }
  EXPECT_EQ(traffic.TotalMsgs(), 3 * one.TotalMsgs());
  EXPECT_EQ(traffic.TotalBytesFromServers(), 3 * one.TotalBytesFromServers());
}

TEST_F(PsAsyncTest, OverlappedPushesAllLand) {
  // Eight tasks share one client and each overlaps two pushes: concurrent
  // exchanges come from the tasks, racing on the same servers and seqs.
  RowRef w = NewMatrix(200);
  cluster_->RunStage("push", 8, [&](TaskContext&) {
    std::vector<PsFuture<Ack>> pending;
    for (int i = 0; i < 2; ++i) {
      pending.push_back(
          client_->WriteRowsAsync({w}, std::vector<double>(200, 1.0)));
    }
    for (auto& f : pending) EXPECT_TRUE(f.Wait().ok());
  });
  std::vector<double> pulled = *ReadRow(*client_, w);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, 16.0);
}

TEST_F(PsAsyncTest, AbandonedFuturesStillApplyAndReleaseTheWindow) {
  RowRef w = NewMatrix(60);
  for (int i = 0; i < 20; ++i) {
    client_->WriteRowsAsync({w}, std::vector<double>(60, 0.5));  // dropped
  }
  // Every op completed at issue; replacing the client loses nothing.
  client_ = std::make_unique<PsClient>(master_.get());
  std::vector<double> pulled = *ReadRow(*client_, w);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST_F(PsAsyncTest, AbandonedFuturesChargeTheCoordinatorClock) {
  // Regression: dropping a future without Wait/Get used to leak its traffic
  // — the op applied but never advanced virtual time, so abandoning pushes
  // made runs look cheaper than waiting for them. Ops complete at issue, so
  // the dropped temporary's destructor charges deterministically on this
  // thread.
  RowRef w = NewMatrix(300);
  SimTime before = cluster_->clock().Now();
  uint64_t messages = cluster_->metrics().Get("net.messages");
  client_->WriteRowsAsync({w}, std::vector<double>(300, 1.0));  // dropped
  EXPECT_GT(cluster_->clock().Now(), before);
  EXPECT_GT(cluster_->metrics().Get("net.messages"), messages);
  EXPECT_DOUBLE_EQ((*ReadRow(*client_, w))[0], 1.0);
}

TEST_F(PsAsyncTest, OverlappedOpsChargeMaxNotSumOfRounds) {
  RowRef w = NewMatrix(300);
  const int k = 5;

  TaskTraffic async_traffic;
  {
    TrafficScope scope(&async_traffic);
    std::vector<PsFuture<std::vector<double>>> pending;
    for (int i = 0; i < k; ++i) {
      pending.push_back(ReadRowAsync(*client_, w));
    }
    for (auto& f : pending) ASSERT_TRUE(f.Wait().ok());
  }
  // One leader round; the k-1 overlapped pulls ride its latency window.
  EXPECT_EQ(async_traffic.rounds, 1u);
  EXPECT_EQ(async_traffic.pipelined_rounds, static_cast<uint64_t>(k - 1));

  TaskTraffic sync_traffic;
  {
    TrafficScope scope(&sync_traffic);
    for (int i = 0; i < k; ++i) ASSERT_TRUE(ReadRow(*client_, w).ok());
  }
  // The serial path charges every round; bytes are identical either way.
  EXPECT_EQ(sync_traffic.rounds, static_cast<uint64_t>(k));
  EXPECT_EQ(sync_traffic.pipelined_rounds, 0u);
  EXPECT_EQ(sync_traffic.TotalBytesToServers(),
            async_traffic.TotalBytesToServers());
  EXPECT_EQ(sync_traffic.TotalBytesFromServers(),
            async_traffic.TotalBytesFromServers());
}

TEST_F(PsAsyncTest, SequentialAsyncOpsAreNotPipelined) {
  RowRef w = NewMatrix(100);
  TaskTraffic traffic;
  {
    TrafficScope scope(&traffic);
    for (int i = 0; i < 3; ++i) {
      // Harvested before the next issue: nothing overlaps.
      ASSERT_TRUE(ReadRowAsync(*client_, w).Wait().ok());
    }
  }
  EXPECT_EQ(traffic.rounds, 3u);
  EXPECT_EQ(traffic.pipelined_rounds, 0u);
}

TEST_F(PsAsyncTest, DriverHarvestAdvancesClock) {
  RowRef w = NewMatrix(500);
  PsFuture<Ack> f =
      client_->WriteRowsAsync({w}, std::vector<double>(500, 1.0));
  SimTime before = cluster_->clock().Now();
  ASSERT_TRUE(f.Wait().ok());
  EXPECT_GT(cluster_->clock().Now(), before);  // charged at harvest
}

TEST_F(PsAsyncTest, AsyncPullsRaceServerCrashAndRecovery) {
  RowRef w = NewMatrix(900);
  ASSERT_TRUE(WriteRow(*client_, w, std::vector<double>(900, 3.0)).ok());
  ASSERT_TRUE(master_->CheckpointAll().ok());
  // Reads race a crash/restore of every server in turn. A pull that lands
  // inside the drop/restore window may see a zeroed slice, but never a torn
  // value — each element is either the checkpointed 3.0 or a mid-recovery
  // 0.0, and the state converges back to the checkpoint.
  std::vector<PsFuture<std::vector<double>>> pending;
  for (int round = 0; round < 4; ++round) {
    for (int s = 0; s < 3; ++s) {
      pending.push_back(ReadRowAsync(*client_, w));
      ASSERT_TRUE(master_->KillAndRecoverServer(s).ok());
      pending.push_back(ReadRowAsync(*client_, w));
    }
  }
  for (auto& f : pending) {
    Result<std::vector<double>> pulled = f.Get();
    ASSERT_TRUE(pulled.ok()) << pulled.status();
    ASSERT_EQ(pulled->size(), 900u);
    for (double v : *pulled) ASSERT_TRUE(v == 3.0 || v == 0.0) << v;
  }
  std::vector<double> settled = *ReadRow(*client_, w);
  for (double v : settled) ASSERT_DOUBLE_EQ(v, 3.0);
}

TEST_F(PsAsyncTest, AsyncPushesRaceServerCrashAndRecovery) {
  RowRef w = NewMatrix(300);
  std::vector<PsFuture<Ack>> pending;
  for (int i = 0; i < 8; ++i) {
    pending.push_back(
        client_->WriteRowsAsync({w}, std::vector<double>(300, 1.0)));
    if (i % 2 == 0) {
      // No checkpoint exists: recovery rebuilds an empty shard, dropping
      // whatever already landed there. The surviving counts stay within
      // [0, pushes issued] and the system keeps serving.
      ASSERT_TRUE(master_->KillAndRecoverServer(i % 3).ok());
    }
  }
  for (auto& f : pending) EXPECT_TRUE(f.Wait().ok());
  std::vector<double> pulled = *ReadRow(*client_, w);
  for (double v : pulled) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 8.0);
  }
}

TEST_F(PsAsyncTest, ColumnOpAsyncAndDotAsync) {
  RowRef a = NewMatrix(80);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(80, 2.0)).ok());
  ASSERT_TRUE(WriteRow(*client_, b, std::vector<double>(80, 3.0)).ok());
  PsFuture<Ack> axpy =
      client_->ColumnOpsAsync({{ColOpKind::kAxpy, {b, a}, 10.0}});
  ASSERT_TRUE(axpy.Wait().ok());
  Result<std::vector<AggregateValue>> dot =
      client_->AggregateAsync({{AggKind::kDot, {a, b}}}).Get();
  ASSERT_TRUE(dot.ok()) << dot.status();
  EXPECT_NEAR((*dot)[0].value, 80 * 2.0 * 23.0, 1e-9);
}

TEST_F(PsAsyncTest, ShardScopedOpsInsideTasksRunInline) {
  // More tasks than pool threads, and the first num_threads() of them wait
  // at a barrier until every worker is inside a task. Each then issues
  // shard-scoped ops. A ParallelFor from a worker would queue its indices
  // behind the busy workers and wait forever; the client runs them inline.
  ThreadPool* pool = cluster_->pool();
  const size_t threads = pool->num_threads();
  const size_t tasks = 2 * threads + 1;
  RowRef first = NewMatrix(120, static_cast<uint32_t>(tasks));
  std::vector<RowRef> rows{first};
  while (rows.size() < tasks) {
    rows.push_back(*master_->AllocateRow(first.matrix_id));
  }
  std::atomic<size_t> entered{0};
  cluster_->RunStage("shard-ops", tasks, [&](TaskContext& ctx) {
    entered.fetch_add(1);
    while (entered.load() < threads) std::this_thread::yield();
    const RowRef row = rows[ctx.task_id];
    const double value = static_cast<double>(ctx.task_id + 1);
    EXPECT_TRUE(client_->ColumnOpsAsync({{ColOpKind::kFill, {row}, value}})
                    .Wait()
                    .ok());
    Result<std::vector<AggregateValue>> sum =
        client_->AggregateAsync({{AggKind::kSum, {row}}}).Get();
    ASSERT_TRUE(sum.ok()) << sum.status();
    EXPECT_DOUBLE_EQ((*sum)[0].value, 120.0 * value);
  });
  EXPECT_EQ(entered.load(), tasks);
}

TEST_F(PsAsyncTest, ShardScopedFanoutRunsEveryRequestExactlyOnce) {
  // Issued off the pool, a shard-scoped op runs its requests on pool
  // workers while the issuer only waits. The issuing call fixes which slot
  // holds which request, so every server runs the op exactly once per
  // issue — none skipped, none doubled.
  std::atomic<int> calls{0};
  std::atomic<int> on_issuer{0};
  const std::thread::id issuer = std::this_thread::get_id();
  const int udf = master_->udfs()->RegisterZip(
      [&](const std::vector<double*>& rows, size_t n, uint64_t) -> uint64_t {
        calls.fetch_add(1);
        if (std::this_thread::get_id() == issuer) on_issuer.fetch_add(1);
        for (size_t i = 0; i < n; ++i) rows[0][i] += 1.0;
        return n;
      });
  RowRef w = NewMatrix(90);
  const int rounds = 25;
  for (int i = 0; i < rounds; ++i) {
    ASSERT_TRUE(client_->ColumnOpsAsync({{ColOpKind::kZip, {w}, 0.0, udf}})
                    .Wait()
                    .ok());
  }
  EXPECT_EQ(calls.load(), rounds * master_->num_servers());
  EXPECT_EQ(on_issuer.load(), 0);
  std::vector<double> pulled = *ReadRow(*client_, w);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, rounds);
}

}  // namespace
}  // namespace ps2
