#include "ps/ps_client.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "dataflow/cluster.h"
#include "net/message.h"
#include "ps/ps_master.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

class PsClientTest : public ::testing::Test {
 protected:
  PsClientTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get());
  }

  RowRef NewMatrix(uint64_t dim, uint32_t rows = 4) {
    MatrixOptions options;
    options.dim = dim;
    options.reserve_rows = rows;
    return RowRef{*master_->CreateMatrix(options), 0};
  }

  double Dot(RowRef a, RowRef b) {
    Result<std::vector<AggregateValue>> r =
        client_->AggregateAsync({{AggKind::kDot, {a, b}}}).Get();
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? (*r)[0].value : 0.0;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
};

TEST_F(PsClientTest, PushPullDenseAcrossServers) {
  RowRef w = NewMatrix(100);
  std::vector<double> values(100);
  for (size_t i = 0; i < 100; ++i) values[i] = static_cast<double>(i);
  ASSERT_TRUE(WriteRow(*client_, w, values).ok());
  std::vector<double> pulled = *ReadRow(*client_, w);
  EXPECT_EQ(pulled, values);
}

TEST_F(PsClientTest, PullWindow) {
  RowRef w = NewMatrix(100);
  std::vector<double> values(100, 1.0);
  ASSERT_TRUE(WriteRow(*client_, w, values).ok());
  // A window straddling server boundaries (100/3 -> 34/34/32).
  std::vector<double> window =
      *ReadRow(*client_, w, RowSelector::Range(ColRange::Of(30, 70)));
  EXPECT_EQ(window.size(), 40u);
  for (double v : window) EXPECT_EQ(v, 1.0);
}

TEST_F(PsClientTest, PushWindowWithOffset) {
  RowRef w = NewMatrix(100);
  ASSERT_TRUE(WriteRow(*client_, w, std::vector<double>{5.0, 6.0},
                       RowSelector::Range(ColRange::Of(50, 52))).ok());
  std::vector<double> pulled =
      *ReadRow(*client_, w, RowSelector::Range(ColRange::Of(49, 53)));
  EXPECT_EQ(pulled, (std::vector<double>{0, 5, 6, 0}));
}

TEST_F(PsClientTest, SparsePullReturnsRequestedIndices) {
  RowRef w = NewMatrix(1000);
  SparseVector delta({3, 400, 999}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(client_->PushSparse(w, delta).ok());
  std::vector<double> pulled =
      *ReadRow(*client_, w, RowSelector::Indices({3, 4, 400, 999}));
  EXPECT_EQ(pulled, (std::vector<double>{1, 0, 2, 3}));
}

TEST_F(PsClientTest, SparsePushAccumulates) {
  RowRef w = NewMatrix(50);
  ASSERT_TRUE(client_->PushSparse(w, SparseVector({7}, {1.5})).ok());
  ASSERT_TRUE(client_->PushSparse(w, SparseVector({7}, {2.5})).ok());
  EXPECT_EQ((*ReadRow(*client_, w, RowSelector::Indices({7})))[0], 4.0);
}

TEST_F(PsClientTest, OutOfRangeIndexRejected) {
  RowRef w = NewMatrix(10);
  EXPECT_TRUE(ReadRow(*client_, w,
                      RowSelector::Indices({10})).status().IsOutOfRange());
  EXPECT_TRUE(
      WriteRow(*client_, w, std::vector<double>(11, 0.0)).IsOutOfRange());
}

TEST_F(PsClientTest, RowAggregatesAcrossServers) {
  RowRef w = NewMatrix(100);
  std::vector<double> values(100, 0.0);
  values[10] = 3.0;
  values[50] = -4.0;
  values[90] = 12.0;
  ASSERT_TRUE(WriteRow(*client_, w, values).ok());
  std::vector<AggregateValue> aggs =
      *client_
           ->AggregateAsync({{AggKind::kSum, {w}},
                             {AggKind::kNnz, {w}},
                             {AggKind::kNorm2Squared, {w}},
                             {AggKind::kMax, {w}}})
           .Get();
  ASSERT_EQ(aggs.size(), 4u);
  EXPECT_DOUBLE_EQ(aggs[0].value, 11.0);
  EXPECT_DOUBLE_EQ(aggs[1].value, 3.0);
  EXPECT_DOUBLE_EQ(aggs[2].value, 169.0);
  EXPECT_DOUBLE_EQ(aggs[3].value, 12.0);
}

TEST_F(PsClientTest, ColumnOpsOnDerivedRows) {
  RowRef a = NewMatrix(60);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  RowRef c = *master_->AllocateRow(a.matrix_id);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(60, 2.0)).ok());
  ASSERT_TRUE(WriteRow(*client_, b, std::vector<double>(60, 3.0)).ok());
  ASSERT_TRUE(
      client_->ColumnOpsAsync({{ColOpKind::kMul, {c, a, b}}}).Wait().ok());
  std::vector<double> pulled = *ReadRow(*client_, c);
  for (double v : pulled) EXPECT_EQ(v, 6.0);
  ASSERT_TRUE(
      client_->ColumnOpsAsync({{ColOpKind::kAxpy, {c, a}, 10.0}}).Wait().ok());
  pulled = *ReadRow(*client_, c);
  for (double v : pulled) EXPECT_EQ(v, 26.0);
}

TEST_F(PsClientTest, DotAcrossServers) {
  RowRef a = NewMatrix(100);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  std::vector<double> va(100), vb(100);
  double expected = 0;
  for (int i = 0; i < 100; ++i) {
    va[i] = i * 0.5;
    vb[i] = 100 - i;
    expected += va[i] * vb[i];
  }
  ASSERT_TRUE(WriteRow(*client_, a, va).ok());
  ASSERT_TRUE(WriteRow(*client_, b, vb).ok());
  EXPECT_NEAR(Dot(a, b), expected, 1e-9);
}

TEST_F(PsClientTest, NonCoLocatedDotStillCorrectButCounted) {
  RowRef a = NewMatrix(100);
  RowRef b = NewMatrix(100);  // separate creation -> different rotation
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(100, 1.0)).ok());
  ASSERT_TRUE(WriteRow(*client_, b, std::vector<double>(100, 2.0)).ok());
  EXPECT_NEAR(Dot(a, b), 200.0, 1e-9);
  EXPECT_EQ(cluster_->metrics().Get("dcv.noncolocated_dots"), 1u);
}

TEST_F(PsClientTest, NonCoLocatedColumnOpFallsBackCorrectly) {
  RowRef a = NewMatrix(50);
  RowRef dst = NewMatrix(50);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(50, 4.0)).ok());
  ASSERT_TRUE(
      client_->ColumnOpsAsync({{ColOpKind::kCopy, {dst, a}}}).Wait().ok());
  std::vector<double> pulled = *ReadRow(*client_, dst);
  for (double v : pulled) EXPECT_EQ(v, 4.0);
  EXPECT_GE(cluster_->metrics().Get("dcv.noncolocated_column_ops"), 1u);
}

TEST_F(PsClientTest, NonCoLocatedBatchRelaysEntryByEntry) {
  RowRef a = NewMatrix(50);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  RowRef other = NewMatrix(50);  // placed apart from a and b
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(50, 2.0)).ok());
  // The co-located axpy keeps the server-side path; only the copy into
  // `other` relays through the client.
  ASSERT_TRUE(client_
                  ->ColumnOpsAsync({{ColOpKind::kAxpy, {b, a}, 3.0},
                                    {ColOpKind::kCopy, {other, b}}})
                  .Wait()
                  .ok());
  EXPECT_EQ(*ReadRow(*client_, b), std::vector<double>(50, 6.0));
  EXPECT_EQ(*ReadRow(*client_, other), std::vector<double>(50, 6.0));
  EXPECT_EQ(cluster_->metrics().Get("dcv.noncolocated_column_ops"), 1u);
}

TEST_F(PsClientTest, ZipInNonCoLocatedRequestAppliesNothing) {
  RowRef a = NewMatrix(50);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  RowRef other = NewMatrix(50);
  int udf = master_->udfs()->RegisterZip(
      [](const std::vector<double*>& rows, size_t n, uint64_t) -> uint64_t {
        for (size_t i = 0; i < n; ++i) rows[0][i] += 1.0;
        return n;
      });
  EXPECT_TRUE(client_
                  ->ColumnOpsAsync({{ColOpKind::kFill, {b}, 5.0},
                                    {ColOpKind::kCopy, {other, a}},
                                    {ColOpKind::kZip, {a}, 0.0, udf}})
                  .Wait()
                  .IsFailedPrecondition());
  EXPECT_EQ(*ReadRow(*client_, b), std::vector<double>(50, 0.0));
}

TEST_F(PsClientTest, ExchangeRecordsPayloadPlusHeaderEachWay) {
  RowRef w = NewMatrix(90);  // 30 columns per server
  cluster_->metrics().Reset();
  // One exchange with server 0: opcode, selector tag, begin, n, row count,
  // matrix, row (7 bytes) out; a count varint and two f64s (17 bytes) back.
  ASSERT_TRUE(
      ReadRow(*client_, w, RowSelector::Range(ColRange::Of(0, 2))).ok());
  EXPECT_EQ(cluster_->metrics().Get("net.messages"), 2u);
  EXPECT_EQ(cluster_->metrics().Get("net.bytes_worker_to_server"),
            7u + Message::kHeaderBytes);
  EXPECT_EQ(cluster_->metrics().Get("net.bytes_server_to_worker"),
            17u + Message::kHeaderBytes);
  EXPECT_EQ(Message::kHeaderBytes, 24u);
}

TEST_F(PsClientTest, ZipRequiresCoLocation) {
  RowRef a = NewMatrix(50);
  RowRef b = NewMatrix(50);
  int udf = master_->udfs()->RegisterZip(
      [](const std::vector<double*>&, size_t n, uint64_t) -> uint64_t {
        return n;
      });
  EXPECT_TRUE(client_->ColumnOpsAsync({{ColOpKind::kZip, {a, b}, 0.0, udf}})
                  .Wait()
                  .IsFailedPrecondition());
}

TEST_F(PsClientTest, ZipAggregateReturnsPerPartitionResults) {
  RowRef a = NewMatrix(90);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(90, 1.0)).ok());
  int udf = master_->udfs()->RegisterZipAggregate(
      [](const std::vector<const double*>& rows, size_t n,
         uint64_t) -> std::vector<double> {
        double sum = 0;
        for (size_t i = 0; i < n; ++i) sum += rows[0][i];
        return {sum};
      });
  std::vector<std::vector<double>> results =
      (*client_->AggregateAsync({{AggKind::kZipAggregate, {a}, udf}}).Get())[0]
          .parts;
  EXPECT_EQ(results.size(), 3u);  // one per server
  double total = 0;
  for (const auto& r : results) total += r[0];
  EXPECT_DOUBLE_EQ(total, 90.0);
}

// The next block of tests exercises the batched entry points through their
// blocking form (XAsync(...).Wait()/.Get() with nothing outstanding).

TEST_F(PsClientTest, DotBatch) {
  RowRef a = NewMatrix(40, 6);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  RowRef c = *master_->AllocateRow(a.matrix_id);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(40, 1.0)).ok());
  ASSERT_TRUE(WriteRow(*client_, b, std::vector<double>(40, 2.0)).ok());
  ASSERT_TRUE(WriteRow(*client_, c, std::vector<double>(40, 3.0)).ok());
  std::vector<AggregateValue> dots =
      *client_
           ->AggregateAsync({{AggKind::kDot, {a, b}},
                             {AggKind::kDot, {b, c}},
                             {AggKind::kDot, {a, c}}})
           .Get();
  EXPECT_DOUBLE_EQ(dots[0].value, 80.0);
  EXPECT_DOUBLE_EQ(dots[1].value, 240.0);
  EXPECT_DOUBLE_EQ(dots[2].value, 120.0);
}

TEST_F(PsClientTest, AxpyBatchAppliesSequentially) {
  RowRef a = NewMatrix(10, 4);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(10, 1.0)).ok());
  ASSERT_TRUE(WriteRow(*client_, b, std::vector<double>(10, 1.0)).ok());
  // b += 2a (b becomes 3), then a += b (a becomes 4): order matters.
  ASSERT_TRUE(client_
                  ->ColumnOpsAsync({{ColOpKind::kAxpy, {b, a}, 2.0},
                                    {ColOpKind::kAxpy, {a, b}, 1.0}})
                  .Wait()
                  .ok());
  EXPECT_EQ((*ReadRow(*client_, a))[0], 4.0);
  EXPECT_EQ((*ReadRow(*client_, b))[0], 3.0);
}

TEST_F(PsClientTest, PullRowsAndPushRows) {
  RowRef a = NewMatrix(30, 3);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(30, 1.0)).ok());
  std::vector<std::vector<double>> rows =
      *client_->ReadRowsAsync({a, b}, RowSelector::All()).Get();
  EXPECT_EQ(rows[0], std::vector<double>(30, 1.0));
  EXPECT_EQ(rows[1], std::vector<double>(30, 0.0));
  ASSERT_TRUE(client_
                  ->WriteRowsAsync({a, b},
                                   std::vector<std::vector<double>>{
                                       std::vector<double>(30, 1.0),
                                       std::vector<double>(30, 5.0)},
                                   RowSelector::All())
                  .Wait()
                  .ok());
  rows = *client_->ReadRowsAsync({a, b}, RowSelector::All()).Get();
  EXPECT_EQ(rows[0], std::vector<double>(30, 2.0));
  EXPECT_EQ(rows[1], std::vector<double>(30, 5.0));
}

TEST_F(PsClientTest, PullSparseRowsSharedIndices) {
  RowRef a = NewMatrix(200, 3);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  ASSERT_TRUE(client_->PushSparse(a, SparseVector({5, 150}, {1, 2})).ok());
  ASSERT_TRUE(client_->PushSparse(b, SparseVector({5, 199}, {7, 8})).ok());
  std::vector<std::vector<double>> rows =
      *client_->ReadRowsAsync({a, b},
                              RowSelector::Indices({5, 150, 199})).Get();
  EXPECT_EQ(rows[0], (std::vector<double>{1, 2, 0}));
  EXPECT_EQ(rows[1], (std::vector<double>{7, 0, 8}));
}

TEST_F(PsClientTest, CompressedSparseRowsRoundTripIntegers) {
  RowRef a = NewMatrix(100, 3);
  RowRef b = *master_->AllocateRow(a.matrix_id);
  const std::vector<SparseVector> deltas{SparseVector({1, 50}, {3, -2}),
                                         SparseVector({99}, {1000000})};
  ASSERT_TRUE(client_->WriteRowsAsync({a, b}, deltas, RowSelector().IntValues())
                  .Wait()
                  .ok());
  const std::vector<uint64_t> keys{1, 50, 99};
  std::vector<std::vector<double>> rows =
      *client_->ReadRowsAsync({a, b}, RowSelector::Indices(keys).IntValues())
           .Get();
  EXPECT_EQ(rows[0], (std::vector<double>{3, -2, 0}));
  EXPECT_EQ(rows[1], (std::vector<double>{0, 0, 1000000}));
}

TEST_F(PsClientTest, CompressionShrinksTraffic) {
  RowRef a = NewMatrix(10000, 3);
  std::vector<uint64_t> indices;
  for (uint64_t i = 0; i < 10000; i += 10) indices.push_back(i);
  cluster_->metrics().Reset();
  ASSERT_TRUE(client_->ReadRowsAsync({a},
                                     RowSelector::Indices(indices)).Get().ok());
  uint64_t uncompressed =
      cluster_->metrics().Get("net.bytes_server_to_worker");
  cluster_->metrics().Reset();
  ASSERT_TRUE(
      client_->ReadRowsAsync({a}, RowSelector::Indices(indices).IntValues())
          .Get()
          .ok());
  uint64_t compressed = cluster_->metrics().Get("net.bytes_server_to_worker");
  EXPECT_LT(compressed * 3, uncompressed);  // zero counts: 1 byte vs 8
}

TEST_F(PsClientTest, MatrixInitFillsAllRows) {
  RowRef a = NewMatrix(50, 2);
  ASSERT_TRUE(client_->MatrixInit(a.matrix_id, 0, 2, 0.1, 9).ok());
  std::vector<double> row = *ReadRow(*client_, a);
  bool any = false;
  for (double v : row) {
    EXPECT_LE(std::abs(v), 0.1);
    any |= v != 0;
  }
  EXPECT_TRUE(any);
}

TEST_F(PsClientTest, DriverOpsAdvanceClock) {
  RowRef a = NewMatrix(1000);
  SimTime before = cluster_->clock().Now();
  ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(1000, 1.0)).ok());
  EXPECT_GT(cluster_->clock().Now(), before);
}

TEST_F(PsClientTest, TaskScopedOpsChargeTaskNotClockDirectly) {
  RowRef a = NewMatrix(1000);
  TaskTraffic traffic;
  SimTime before = cluster_->clock().Now();
  {
    TrafficScope scope(&traffic);
    ASSERT_TRUE(WriteRow(*client_, a, std::vector<double>(1000, 1.0)).ok());
  }
  EXPECT_EQ(cluster_->clock().Now(), before);  // charged at stage end instead
  EXPECT_GT(traffic.TotalBytesToServers(), 0u);
  EXPECT_EQ(traffic.rounds, 1u);
}

// Every row-access shape the client used to send through its own opcode,
// measured under kReadRows / kWriteRows on one server (so one request per
// op), next to the bytes the old opcode sent. The request deltas are the
// selector tag and, for a single row, the row count: +2 bytes at most,
// and nothing for a shared-index batch. DESIGN.md §5b tabulates them.
TEST(RowWireTest, EachShapeMovesOnlyByTheSelectorHeader) {
  ClusterSpec spec;
  spec.num_workers = 1;
  spec.num_servers = 1;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);
  MatrixOptions options;
  options.dim = 1000;  // a 2-byte varint
  options.reserve_rows = 3;
  const int id = *master.CreateMatrix(options);
  const RowRef r1{id, 1}, r2{id, 2};
  // Row 1 holds 5 at column 3 and 300 at column 700; row 2 holds -1 at 10.
  ASSERT_TRUE(client.PushSparse(r1, SparseVector({3, 700}, {5, 300})).ok());
  ASSERT_TRUE(client.PushSparse(r2, SparseVector({10}, {-1})).ok());
  const std::vector<uint64_t> keys{3, 10, 700};  // delta varints: 1+1+2 bytes
  const std::vector<std::vector<double>> full(2, std::vector<double>(1000));
  const std::vector<double> window(10, 1.0);

  struct Shape {
    const char* name;
    std::function<Status()> op;
    uint64_t old_request, old_response, request, response;
  };
  const std::vector<Shape> shapes = {
      // op, m, r, n, keys -> op, tag, n, keys, rows, m, r
      {"single-row sparse pull",
       [&] {
         return client.ReadRowsAsync({r1}, RowSelector::Indices(keys))
             .Wait();
       },
       8, 25, 10, 25},
      // op, m, r, begin, end -> op, tag, begin, n, rows, m, r
      {"dense window pull",
       [&] {
         return client
             .ReadRowsAsync({r1}, RowSelector::Range(ColRange::Of(100, 110)))
             .Wait();
       },
       5, 81, 7, 81},
      // op, m, r, begin, n, f64s -> op, tag, rows, m, r, begin, n, f64s
      {"dense window push",
       [&] {
         return client
             .WriteRowsAsync({r1}, window,
                             RowSelector::Range(ColRange::Of(100, 110)))
             .Wait();
       },
       85, 0, 87, 0},
      // op, m, r, n, keys, f64s -> op, tag, rows, m, r, n, keys, f64s
      {"single-row sparse push",
       [&] { return client.PushSparse(r1, SparseVector(keys, {1, 1, 1})); },
       32, 0, 34, 0},
      // op, count, (m, r)x2 -> op, tag, count, (m, r)x2; the response drops
      // its leading row count.
      {"full-row batch pull",
       [&] { return client.ReadRowsAsync({r1, r2},
                                         RowSelector::All()).Wait(); },
       6, 16005, 7, 16004},
      {"full-row batch push",
       [&] {
         return client.WriteRowsAsync({r1, r2}, full, RowSelector::All())
             .Wait();
       },
       16010, 0, 16011, 0},
      // op, compress, n, keys, rows, (m, r)x2: the tag replaces the flag
      // byte. Each response row gains its count.
      {"shared-index sparse batch",
       [&] {
         return client.ReadRowsAsync({r1, r2}, RowSelector::Indices(keys))
             .Wait();
       },
       12, 49, 12, 50},
      {"shared-index sparse batch, integer-coded",
       [&] {
         return client
             .ReadRowsAsync({r1, r2}, RowSelector::Indices(keys).IntValues())
             .Wait();
       },
       12, 8, 12, 9},
      // op, compress, rows, per row (m, r, n, keys, values)
      {"per-row sparse push",
       [&] {
         return client
             .WriteRowsAsync({r1, r2}, std::vector<SparseVector>{
                                           SparseVector({3, 700}, {1, 2}),
                                           SparseVector({10}, {3})})
             .Wait();
       },
       37, 0, 37, 0},
      {"per-row sparse push, integer-coded",
       [&] {
         return client
             .WriteRowsAsync({r1, r2},
                             std::vector<SparseVector>{
                                 SparseVector({3, 700}, {1, 2}),
                                 SparseVector({10}, {3})},
                             RowSelector().IntValues())
             .Wait();
       },
       16, 0, 16, 0},
  };
  auto measure = [&](const std::function<Status()>& op, uint64_t* request,
                     uint64_t* response) {
    cluster.metrics().Reset();
    ASSERT_TRUE(op().ok());
    ASSERT_EQ(cluster.metrics().Get("net.messages"), 2u);  // one each way
    *request = cluster.metrics().Get("net.bytes_worker_to_server") -
               Message::kHeaderBytes;
    *response = cluster.metrics().Get("net.bytes_server_to_worker") -
                Message::kHeaderBytes;
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    uint64_t request = 0, response = 0;
    measure(shape.op, &request, &response);
    EXPECT_EQ(request, shape.request);
    EXPECT_EQ(response, shape.response);
    EXPECT_LE(request, shape.old_request + 2);
  }

  // A hot push: op, m, r, n, keys, f64s -> one replica-flagged index write.
  ASSERT_TRUE(master.hotspot()->ReplicateNow({r1}).ok());
  uint64_t request = 0, response = 0;
  measure([&] { return client.PushSparse(r1, SparseVector(keys, {1, 1, 1})); },
          &request, &response);
  EXPECT_EQ(request, 32u + 2u);
  EXPECT_EQ(response, 0u);
  Result<PsServer::ReplicaSnapshot> replica =
      master.server(0)->DebugReplica(r1);
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_EQ(replica->pending.size(), 3u);
}

}  // namespace
}  // namespace ps2
