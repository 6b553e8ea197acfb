// Message-level fault tolerance (DESIGN.md §6): the per-client dedup table
// on the servers, the client's bounded retry loop with virtual-time backoff,
// crash recovery from inside the retry loop, and the ExchangeAll error
// semantics shared by its inline and pooled execution routes.

#include <gtest/gtest.h>

#include <vector>

#include "common/serde.h"
#include "dataflow/cluster.h"
#include "ps/partitioner.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "ps/ps_server.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

// ---- Server-side dedup table ----------------------------------------------

MatrixMeta MakeMeta(int id, uint64_t dim, uint32_t rows, int servers) {
  MatrixMeta meta;
  meta.id = id;
  meta.name = "m";
  meta.dim = dim;
  meta.num_rows = rows;
  meta.storage = MatrixStorage::kDense;
  meta.partitioner = *ColumnPartitioner::Make(dim, servers);
  return meta;
}

class DedupTest : public ::testing::Test {
 protected:
  DedupTest() : server_(0, &udfs_) {
    EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(0, 8, 2, 1)).ok());
  }

  static std::vector<uint8_t> PushRequest(uint64_t col, double value) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
    w.WriteVarint(1);  // rows
    w.WriteVarint(0);  // matrix
    w.WriteVarint(0);  // row
    w.WriteVarint(1);  // nnz
    w.WriteVarint(col);
    w.WriteF64(value);
    return w.buffer();
  }

  static std::vector<uint8_t> PullRequest() {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll));
    w.WriteVarint(1);  // rows
    w.WriteVarint(0);
    w.WriteVarint(0);
    return w.buffer();
  }

  double ValueAt(uint64_t col) {
    Result<PsServer::HandleResult> r = HandleBytes(server_, PullRequest());
    EXPECT_TRUE(r.ok()) << r.status();
    BufferReader in(r->response);
    uint64_t n = *in.ReadVarint();
    return (*in.ReadF64Span(n))[col];
  }

  static RpcHeader Header(int client, uint64_t seq, uint32_t attempt = 1) {
    RpcHeader h;
    h.client_id = client;
    h.seq = seq;
    h.attempt = attempt;
    return h;
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(DedupTest, RetriedMutationAppliesExactlyOnce) {
  const std::vector<uint8_t> push = PushRequest(3, 5.0);
  Result<PsServer::HandleResult> first =
      HandleBytes(server_, push, Header(7, 1));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->dedup_hit);
  // The retry of the same (client, seq) — e.g. after a lost response — is
  // acked without re-applying.
  Result<PsServer::HandleResult> retry =
      HandleBytes(server_, push, Header(7, 1, 2));
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(3), 5.0);
  EXPECT_EQ(server_.dedup_hits(), 1u);
}

TEST_F(DedupTest, DistinctSeqsAndDistinctClientsAreNotDeduped) {
  const std::vector<uint8_t> push = PushRequest(3, 5.0);
  ASSERT_TRUE(HandleBytes(server_, push, Header(7, 1)).ok());
  ASSERT_TRUE(HandleBytes(server_, push, Header(7,
                                                2)).ok());  // new seq: applies
  ASSERT_TRUE(HandleBytes(server_, push, Header(8, 1)).ok());  // other client
  EXPECT_DOUBLE_EQ(ValueAt(3), 15.0);
  EXPECT_EQ(server_.dedup_hits(), 0u);
}

TEST_F(DedupTest, ReadsAreNeverDeduplicated) {
  // Re-executing a pull is harmless, and answering a retried pull from a
  // dedup table would require caching responses — so reads always
  // re-execute, while their seqs still advance the contiguous floor.
  ASSERT_TRUE(HandleBytes(server_, PushRequest(0, 1.0), Header(7, 1)).ok());
  Result<PsServer::HandleResult> pull1 =
      HandleBytes(server_, PullRequest(), Header(7, 2));
  Result<PsServer::HandleResult> pull2 =
      HandleBytes(server_, PullRequest(), Header(7, 2, 2));
  ASSERT_TRUE(pull1.ok());
  ASSERT_TRUE(pull2.ok());
  EXPECT_FALSE(pull2->dedup_hit);
  EXPECT_EQ(pull1->response, pull2->response);
  // The floor advanced through the pull's seq: a mutation reusing seq 2
  // would be recognized as a duplicate.
  Result<PsServer::HandleResult> stale =
      HandleBytes(server_, PushRequest(5, 9.0), Header(7, 2, 3));
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(5), 0.0);
}

TEST_F(DedupTest, UntrackedRequestsBypassDedup) {
  const std::vector<uint8_t> push = PushRequest(2, 1.0);
  ASSERT_TRUE(HandleBytes(server_, push).ok());
  ASSERT_TRUE(HandleBytes(server_, push, RpcHeader{}).ok());
  EXPECT_DOUBLE_EQ(ValueAt(2), 2.0);
  EXPECT_EQ(server_.dedup_hits(), 0u);
}

TEST_F(DedupTest, OutOfOrderSeqsDedupViaSeenSetUntilGapFills) {
  // Async window: seq 3 can arrive before seq 2.
  ASSERT_TRUE(HandleBytes(server_, PushRequest(0, 1.0), Header(7, 1)).ok());
  ASSERT_TRUE(HandleBytes(server_, PushRequest(0, 1.0), Header(7, 3)).ok());
  Result<PsServer::HandleResult> dup =
      HandleBytes(server_, PushRequest(0, 1.0), Header(7, 3, 2));
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->dedup_hit);  // seq 3 sits in `seen` while seq 2 is open
  ASSERT_TRUE(HandleBytes(server_, PushRequest(0, 1.0), Header(7, 2)).ok());
  // Gap filled: floor is now 3, and everything at or below it stays duped.
  Result<PsServer::HandleResult> old =
      HandleBytes(server_, PushRequest(0, 1.0), Header(7, 2, 2));
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(old->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(0), 3.0);
}

TEST_F(DedupTest, DedupTableSurvivesCheckpointRestore) {
  ASSERT_TRUE(HandleBytes(server_, PushRequest(1, 4.0), Header(7, 1)).ok());
  std::vector<uint8_t> image = server_.SerializeState();

  PsServer restored(0, &udfs_);
  ASSERT_TRUE(restored.CreateMatrixShard(MakeMeta(0, 8, 2, 1)).ok());
  ASSERT_TRUE(restored.RestoreState(image).ok());
  // Crash-consistency: a retry racing the crash must not double-apply on
  // the restored server.
  Result<PsServer::HandleResult> retry =
      HandleBytes(restored, PushRequest(1, 4.0), Header(7, 1, 2));
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->dedup_hit);
  EXPECT_EQ(restored.dedup_hits(), 1u);
}

TEST_F(DedupTest, DropAllStateClearsDedupWithTheStateItGuards) {
  ASSERT_TRUE(HandleBytes(server_, PushRequest(1, 4.0), Header(7, 1)).ok());
  server_.DropAllState();
  // The push's effect was dropped, so its seq must be forgotten too — the
  // retry re-applies cleanly instead of being suppressed against zeroes.
  Result<PsServer::HandleResult> retry =
      HandleBytes(server_, PushRequest(1, 4.0), Header(7, 1, 2));
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE(retry->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(1), 4.0);
}

TEST_F(DedupTest, CrashedServerRejectsUntilRevived) {
  EXPECT_FALSE(server_.crashed());
  server_.Crash();
  EXPECT_TRUE(server_.crashed());
  EXPECT_TRUE(HandleBytes(server_, PullRequest()).status().IsUnavailable());
  EXPECT_TRUE(HandleBytes(server_, PushRequest(0, 1.0), Header(7, 1))
                  .status()
                  .IsUnavailable());
  server_.Revive();
  EXPECT_FALSE(server_.crashed());
  EXPECT_TRUE(HandleBytes(server_, PullRequest()).ok());
}

// ---- Client retry loop ----------------------------------------------------

struct Fixture {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<PsMaster> master;
  std::unique_ptr<PsClient> client;
  RowRef weight;

  explicit Fixture(ClusterSpec spec, PsClientOptions options = {},
                   uint64_t dim = 60) {
    cluster = std::make_unique<Cluster>(spec);
    master = std::make_unique<PsMaster>(cluster.get());
    client = std::make_unique<PsClient>(master.get(), options);
    MatrixOptions m;
    m.dim = dim;
    m.reserve_rows = 2;
    weight = RowRef{*master->CreateMatrix(m), 0};
  }
};

TEST(PsRetryTest, PushesApplyExactlyOnceUnderMessageFaults) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 3;
  spec.message_failure_prob = 0.1;
  spec.seed = 17;
  Fixture f(spec);

  const int n = 50;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        WriteRow(*f.client, f.weight, std::vector<double>(60, 1.0)).ok());
  }
  // Exactly-once despite lost requests (retried) and lost responses
  // (applied, retried, deduplicated).
  std::vector<double> pulled = *ReadRow(*f.client, f.weight);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, static_cast<double>(n));

  // A ColumnOps batch (axpy + zip entries) rides the same faults and lands
  // exactly once per issue; an Aggregate read (sum + dot) re-executes on
  // retry and still sees each batch exactly once.
  RowRef ones = *f.master->AllocateRow(f.weight.matrix_id);
  ASSERT_TRUE(WriteRow(*f.client, ones, std::vector<double>(60, 1.0)).ok());
  const int udf = f.master->udfs()->RegisterZip(
      [](const std::vector<double*>& rows, size_t width, uint64_t) -> uint64_t {
        for (size_t i = 0; i < width; ++i) rows[0][i] += 1.0;
        return width;
      });
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(f.client
                    ->ColumnOpsAsync({{ColOpKind::kAxpy, {f.weight, ones}, 1.0},
                                      {ColOpKind::kZip, {f.weight}, 0.0, udf}})
                    .Wait()
                    .ok());
    Result<std::vector<AggregateValue>> read =
        f.client
            ->AggregateAsync({{AggKind::kSum, {f.weight}},
                              {AggKind::kDot, {f.weight, ones}}})
            .Get();
    ASSERT_TRUE(read.ok()) << read.status();
    const double expected = 60.0 * (n + 2 * i);
    EXPECT_DOUBLE_EQ((*read)[0].value, expected);
    EXPECT_DOUBLE_EQ((*read)[1].value, expected);
  }

  EXPECT_GT(f.cluster->metrics().Get("net.retries"), 0u);
  EXPECT_GT(f.cluster->metrics().Get("net.retry_backoff_time"), 0u);
  EXPECT_GT(f.cluster->metrics().Get("ps.dedup_hits"), 0u);
  EXPECT_EQ(f.cluster->metrics().Get("ps.dedup_hits"),
            f.master->TotalDedupHits());
}

TEST(PsRetryTest, FaultedRunIsDeterministicForFixedSeed) {
  auto run = [] {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    spec.message_failure_prob = 0.08;
    spec.seed = 23;
    Fixture f(spec);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          WriteRow(*f.client, f.weight, std::vector<double>(60, 0.25)).ok());
    }
    std::vector<double> params = *ReadRow(*f.client, f.weight);
    return std::make_tuple(params, f.cluster->clock().Now(),
                           f.cluster->metrics().Get("net.retries"),
                           f.cluster->metrics().Get("net.retry_backoff_time"));
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // bit-equal parameters
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));  // identical virtual time
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_GT(std::get<2>(a), 0u);
}

TEST(PsRetryTest, FaultedRunReachesBitEqualParametersWithBoundedOverhead) {
  // The §6 contract: for a fixed seed, a run with message faults lands on
  // the SAME parameters as the fault-free run — faults only cost time.
  auto run = [](double p) {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    spec.message_failure_prob = p;
    spec.seed = 31;
    Fixture f(spec);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          WriteRow(*f.client, f.weight, std::vector<double>(60, 0.5)).ok());
      EXPECT_TRUE(ReadRow(*f.client, f.weight).ok());
    }
    return std::make_pair(*ReadRow(*f.client, f.weight),
                          f.cluster->clock().Now());
  };
  auto clean = run(0.0);
  auto faulted = run(0.05);
  EXPECT_EQ(clean.first, faulted.first);      // bit-equal parameters
  EXPECT_GT(faulted.second, clean.second);    // retries cost virtual time
  EXPECT_LT(faulted.second, clean.second * 3);  // ... but bounded
}

TEST(PsRetryTest, AttemptsAreBoundedWhenServerStaysDown) {
  ClusterSpec spec;
  spec.num_workers = 1;
  spec.num_servers = 1;
  PsClientOptions options;
  options.max_attempts = 3;
  options.recover_crashed_servers = false;
  Fixture f(spec, options);

  f.master->server(0)->Crash();
  Status status = WriteRow(*f.client, f.weight, std::vector<double>(60, 1.0));
  EXPECT_TRUE(status.IsUnavailable()) << status;
  // max_attempts = 3 -> exactly 2 retries, each charging backoff.
  EXPECT_EQ(f.cluster->metrics().Get("net.retries"), 2u);
  EXPECT_GT(f.cluster->metrics().Get("net.retry_backoff_time"), 0u);
}

TEST(PsRetryTest, RetryLoopRecoversCrashedServerFromCheckpoint) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 3;
  Fixture f(spec);

  ASSERT_TRUE(WriteRow(*f.client, f.weight, std::vector<double>(60, 5.0)).ok());
  ASSERT_TRUE(f.master->CheckpointAll().ok());
  f.master->server(1)->Crash();

  // The push hits the dead server, recovers it from the checkpoint inside
  // the retry loop, and retries — transparently to the caller.
  ASSERT_TRUE(WriteRow(*f.client, f.weight, std::vector<double>(60, 1.0)).ok());
  EXPECT_FALSE(f.master->server(1)->crashed());
  EXPECT_EQ(f.cluster->metrics().Get("ps.server_failures"), 1u);

  std::vector<double> pulled = *ReadRow(*f.client, f.weight);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(PsRetryTest, MiddleCrashRunsEveryRequestOnBothRoutes) {
  // Both execution routes — keyed requests inline on the issuing thread
  // (PushDense), a shard-scoped fan-out on the cluster pool (ColumnOps from
  // this non-pool thread) — run every request and report the first failure
  // in partition order. The servers past the failed one still applied the op.
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 3;
  PsClientOptions options;
  options.max_attempts = 2;
  options.recover_crashed_servers = false;
  Fixture f(spec, options);
  RowRef ones = *f.master->AllocateRow(f.weight.matrix_id);
  ASSERT_TRUE(WriteRow(*f.client, ones, std::vector<double>(60, 1.0)).ok());

  f.master->server(1)->Crash();  // the middle partition fails
  Status pushed = WriteRow(*f.client, f.weight, std::vector<double>(60, 2.0));
  EXPECT_TRUE(pushed.IsUnavailable()) << pushed;
  Status axpy =
      f.client->ColumnOpsAsync({{ColOpKind::kAxpy, {f.weight, ones}, 10.0}})
          .Wait();
  EXPECT_TRUE(axpy.IsUnavailable()) << axpy;

  // Three equal partitions: [0, 20) on server 0, [40, 60) on server 2.
  for (ColRange outer : {ColRange::Of(0, 20), ColRange::Of(40, 60)}) {
    Result<std::vector<double>> pulled =
        ReadRow(*f.client, f.weight, RowSelector::Range(outer));
    ASSERT_TRUE(pulled.ok()) << pulled.status();
    for (double v : *pulled) EXPECT_DOUBLE_EQ(v, 12.0);
  }
}

}  // namespace
}  // namespace ps2
