#include "ps/ps_server.h"

#include <gtest/gtest.h>

#include "common/serde.h"
#include "ml/optimizer.h"
#include "ps/partitioner.h"
#include "tests/common/alloc_counter.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

MatrixMeta MakeMeta(int id, uint64_t dim, uint32_t rows, int servers,
                    MatrixStorage storage = MatrixStorage::kDense) {
  MatrixMeta meta;
  meta.id = id;
  meta.name = "m";
  meta.dim = dim;
  meta.num_rows = rows;
  meta.storage = storage;
  meta.partitioner = *ColumnPartitioner::Make(dim, servers);
  return meta;
}

class PsServerTest : public ::testing::Test {
 protected:
  // One server owning the whole dimension keeps wire-level tests simple.
  PsServerTest() : server_(0, &udfs_) {
    EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(0, 16, 3, 1)).ok());
  }

  PsServer::HandleResult Call(const BufferWriter& w) {
    Result<PsServer::HandleResult> r = HandleBytes(server_, w.buffer());
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  std::vector<double> Pull(int matrix, uint32_t row, uint64_t begin,
                           uint64_t end) {
    PsServer::HandleResult result =
        Call(RangeRead(matrix, row, begin, end - begin));
    BufferReader r(result.response);
    uint64_t n = *r.ReadVarint();
    return *r.ReadF64Span(n);
  }

  void PushDense(int matrix, uint32_t row, uint64_t begin,
                 const std::vector<double>& values) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kRange));
    w.WriteVarint(1);
    w.WriteVarint(matrix);
    w.WriteVarint(row);
    w.WriteVarint(begin);
    w.WriteVarint(values.size());
    w.WriteF64Span(values.data(), values.size());
    Call(w);
  }

  /// A kReadRows request of one range run over one row.
  static BufferWriter RangeRead(uint64_t matrix, uint64_t row, uint64_t begin,
                                uint64_t n) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kRange));
    w.WriteVarint(begin);
    w.WriteVarint(n);
    w.WriteVarint(1);
    w.WriteVarint(matrix);
    w.WriteVarint(row);
    return w;
  }

  /// Replicates (matrix 0, row 0) on this server: designated, not installed.
  void DesignateReplica() {
    BufferWriter hot;
    hot.WriteU8(static_cast<uint8_t>(PsOpCode::kHotSetUpdate));
    hot.WriteVarint(1);
    hot.WriteVarint(0);   // matrix
    hot.WriteVarint(0);   // row
    hot.WriteVarint(16);  // dim
    Call(hot);
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(PsServerTest, FreshShardIsZero) {
  std::vector<double> row = Pull(0, 0, 0, 16);
  for (double v : row) EXPECT_EQ(v, 0.0);
}

TEST_F(PsServerTest, PushIsAdditive) {
  PushDense(0, 1, 4, {1.0, 2.0});
  PushDense(0, 1, 5, {10.0});
  std::vector<double> row = Pull(0, 1, 0, 16);
  EXPECT_EQ(row[4], 1.0);
  EXPECT_EQ(row[5], 12.0);
  EXPECT_EQ(row[6], 0.0);
}

TEST_F(PsServerTest, PullWindowIntersectsRange) {
  PushDense(0, 0, 0, std::vector<double>(16, 3.0));
  std::vector<double> window = Pull(0, 0, 10, 14);
  EXPECT_EQ(window.size(), 4u);
  for (double v : window) EXPECT_EQ(v, 3.0);
}

TEST_F(PsServerTest, RowAggSum) {
  PushDense(0, 2, 0, {1, 2, 3});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kAggregate));
  w.WriteU8(static_cast<uint8_t>(AggKind::kSum));
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(2);
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 6.0);
  EXPECT_TRUE(r.AtEnd());  // one f64 per entry, no count prefix
}

TEST_F(PsServerTest, RowAggNnzAndNorm2AndMax) {
  PushDense(0, 2, 0, {3, 0, -4});
  // One request, one run per kind; partials come back in entry order.
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kAggregate));
  for (AggKind kind :
       {AggKind::kNnz, AggKind::kNorm2Squared, AggKind::kMax}) {
    w.WriteU8(static_cast<uint8_t>(kind));
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(2);
  }
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 2.0);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 25.0);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 3.0);
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(PsServerTest, ColumnOpAdd) {
  PushDense(0, 0, 0, {1, 1, 1});
  PushDense(0, 1, 0, {2, 3, 4});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kAdd));
  w.WriteVarint(1);  // one entry
  w.WriteVarint(0);  // dst matrix
  w.WriteVarint(2);  // dst row
  w.WriteVarint(0);  // two sources: the kind fixes the count
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(1);
  w.WriteF64(0.0);
  Call(w);
  std::vector<double> row = Pull(0, 2, 0, 3);
  EXPECT_EQ(row, (std::vector<double>{3, 4, 5}));
}

TEST_F(PsServerTest, ColumnOpsBadSecondEntryLeavesFirstDstUntouched) {
  PushDense(0, 1, 0, {2, 3, 4});
  // Entry 1 (row 0 += 10 * row 1) is valid; entry 2 names matrix 42, which
  // this server lacks. The request fails with nothing applied.
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kAxpy));
  w.WriteVarint(2);
  for (uint64_t dst_matrix : {0u, 42u}) {
    w.WriteVarint(dst_matrix);
    w.WriteVarint(0);
    w.WriteVarint(0);
    w.WriteVarint(1);
    w.WriteF64(10.0);
  }
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsNotFound());
  EXPECT_EQ(Pull(0, 0, 0, 3), (std::vector<double>{0, 0, 0}));
}

TEST_F(PsServerTest, WriteRowsAllBadSecondRowLeavesFirstUnchanged) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll));
  w.WriteVarint(2);
  const std::vector<double> delta(16, 1.0);
  for (uint64_t matrix : {0u, 42u}) {
    w.WriteVarint(matrix);
    w.WriteVarint(0);
    w.WriteVarint(16);
    w.WriteF64Span(delta.data(), delta.size());
  }
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsNotFound());
  EXPECT_EQ(Pull(0, 0, 0, 16), std::vector<double>(16, 0.0));
}

TEST_F(PsServerTest, WriteRowsAllChecksTheSliceWidth) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll));
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(15);  // the slice is 16 wide
  const std::vector<double> delta(15, 1.0);
  w.WriteF64Span(delta.data(), delta.size());
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsOutOfRange());
  EXPECT_EQ(Pull(0, 0, 0, 16), std::vector<double>(16, 0.0));
}

TEST_F(PsServerTest, ReadRowsSharesOneIndexListAcrossRows) {
  PushDense(0, 0, 0, {1, 2, 3, 4});
  PushDense(0, 2, 0, {10, 20, 30, 40});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
  const std::vector<uint64_t> keys{1, 3};
  w.WriteVarint(keys.size());
  w.WriteDeltaKeys(keys.data(), keys.size());
  w.WriteVarint(2);
  for (uint64_t row : {0u, 2u}) {
    w.WriteVarint(0);
    w.WriteVarint(row);
  }
  // A second run: the whole slice of row 2, integer-coded.
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll) |
            kRowSelectorIntValues);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(2);
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_EQ(*r.ReadVarint(), 2u);
  EXPECT_EQ(*r.ReadF64Span(2), (std::vector<double>{2, 4}));
  EXPECT_EQ(*r.ReadVarint(), 2u);
  EXPECT_EQ(*r.ReadF64Span(2), (std::vector<double>{20, 40}));
  EXPECT_EQ(*r.ReadVarint(), 16u);
  for (int64_t want : {10, 20, 30, 40}) {
    EXPECT_EQ(*r.ReadSignedVarint(), want);
  }
  for (int c = 4; c < 16; ++c) EXPECT_EQ(*r.ReadSignedVarint(), 0);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(result.server_ops, 2u + 2u + 16u);
}

TEST_F(PsServerTest, WriteRowsIndexRunBadSecondRowLeavesFirstUnchanged) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
  w.WriteVarint(2);
  for (uint64_t matrix : {0u, 42u}) {
    w.WriteVarint(matrix);
    w.WriteVarint(0);
    w.WriteVarint(1);  // nnz
    w.WriteVarint(5);  // column
    w.WriteF64(7.0);
  }
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsNotFound());
  EXPECT_EQ(Pull(0, 0, 0, 16), std::vector<double>(16, 0.0));
}

// A sparse write body that passes the count check and then runs short:
// n = 3, each key padded to a 4-byte varint, then only two of the three f64
// values. 12 + 16 bytes cover 3 x (1 + 8).
void WriteTruncatedSparseWrite(BufferWriter* w) {
  w->WriteVarint(3);
  for (int k = 0; k < 3; ++k) {
    for (uint8_t b : {0x81, 0x80, 0x80, 0x00}) w->WriteU8(b);  // delta 1
  }
  w->WriteF64(5.0);
  w->WriteF64(6.0);
}

TEST_F(PsServerTest, TruncatedIndexWriteAppliesNothing) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  WriteTruncatedSparseWrite(&w);
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsOutOfRange());
  EXPECT_EQ(Pull(0, 0, 0, 16), std::vector<double>(16, 0.0));
}

TEST_F(PsServerTest, TruncatedReplicaWriteAppliesNothing) {
  DesignateReplica();
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices) |
            kRowSelectorReplica);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  WriteTruncatedSparseWrite(&w);
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsOutOfRange());
  Result<PsServer::ReplicaSnapshot> replica =
      server_.DebugReplica(RowRef{0, 0});
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_TRUE(replica->pending.empty());
}

TEST_F(PsServerTest, WriteRowsBadLastRunAppliesNothing) {
  DesignateReplica();
  // From the first publish on, sparse writes stamp chunk clocks.
  ASSERT_TRUE(server_.PublishSnapshot(1).ok());
  for (const uint8_t flag : {uint8_t{0}, kRowSelectorReplica}) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
    // Two valid runs — an index write and a window write of row 0 — then a
    // last run whose key lies past the slice (and the replica's dim).
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices) | flag);
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(0);
    w.WriteVarint(1);
    w.WriteVarint(3);
    w.WriteF64(1.0);
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kRange) | flag);
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(0);
    w.WriteVarint(4);  // begin
    w.WriteVarint(2);  // n
    w.WriteF64(2.0);
    w.WriteF64(3.0);
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices) | flag);
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(0);
    w.WriteVarint(1);
    w.WriteVarint(16);
    w.WriteF64(4.0);
    EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsOutOfRange())
        << "replica flag " << int{flag};
  }
  EXPECT_EQ(Pull(0, 0, 0, 16), std::vector<double>(16, 0.0));
  Result<PsServer::ReplicaSnapshot> replica =
      server_.DebugReplica(RowRef{0, 0});
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_TRUE(replica->pending.empty());
  // No row or chunk was stamped: the next publish copies nothing.
  EXPECT_EQ(server_.PublishSnapshot(2)->bytes_copied, 0u);
}

TEST_F(PsServerTest, DotPartial) {
  PushDense(0, 0, 0, {1, 2, 3});
  PushDense(0, 1, 0, {4, 5, 6});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kAggregate));
  w.WriteU8(static_cast<uint8_t>(AggKind::kDot));
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(1);
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 32.0);
}

TEST_F(PsServerTest, ZipRunsRegisteredUdf) {
  PushDense(0, 0, 0, {1, 2, 3});
  int udf = udfs_.RegisterZip(
      [](const std::vector<double*>& rows, size_t n, uint64_t) -> uint64_t {
        for (size_t i = 0; i < n; ++i) rows[0][i] *= 10;
        return n;
      });
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kZip));
  w.WriteVarint(1);
  w.WriteVarint(udf);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  Call(w);
  std::vector<double> row = Pull(0, 0, 0, 3);
  EXPECT_EQ(row[0], 10.0);
  EXPECT_EQ(row[2], 30.0);
}

TEST_F(PsServerTest, ZipUnknownUdfFails) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kZip));
  w.WriteVarint(1);
  w.WriteVarint(99);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsNotFound());
}

TEST_F(PsServerTest, ZipWithWrongOperandCountFailsAndAppliesNothing) {
  // Matrix 1 holds Adam's four co-located rows [w, s, v, g].
  ASSERT_TRUE(server_.CreateMatrixShard(MakeMeta(1, 16, 4, 1)).ok());
  PushDense(1, 0, 0, {1, 2, 3});
  PushDense(1, 3, 0, {0.5, 0.5, 0.5});
  OptimizerOptions adam;
  adam.kind = OptimizerKind::kAdam;
  auto step = std::make_shared<std::atomic<int64_t>>(1);
  const int udf = udfs_.RegisterZip(MakeOptimizerZip(adam, step), 4);
  auto zip_request = [&](const std::vector<uint32_t>& rows) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
    // A valid scale entry first: validate-then-apply must drop it too.
    w.WriteU8(static_cast<uint8_t>(ColOpKind::kScale));
    w.WriteVarint(1);
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteF64(10.0);
    w.WriteU8(static_cast<uint8_t>(ColOpKind::kZip));
    w.WriteVarint(1);
    w.WriteVarint(udf);
    w.WriteVarint(rows.size());
    for (uint32_t row : rows) {
      w.WriteVarint(1);
      w.WriteVarint(row);
    }
    return w;
  };

  Result<PsServer::HandleResult> bad =
      HandleBytes(server_, zip_request({0, 3}).buffer());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  EXPECT_EQ(Pull(1, 0, 0, 3), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(Pull(1, 1, 0, 3), (std::vector<double>{0, 0, 0}));
  EXPECT_EQ(Pull(1, 3, 0, 3), (std::vector<double>{0.5, 0.5, 0.5}));

  // The server still serves: the four-operand zip runs the step.
  Call(zip_request({0, 1, 2, 3}));
  const std::vector<double> w = Pull(1, 0, 0, 3);
  EXPECT_LT(w[0], 10.0);
  EXPECT_GT(w[0], 9.0);
  EXPECT_GT(Pull(1, 1, 0, 1)[0], 0.0);
}

TEST_F(PsServerTest, OpcodeCensus) {
  // Opcodes are numbered contiguously: every value below kNumPsOpCodes is
  // named and dispatched, so a bare opcode fails decoding its (empty) body
  // rather than as an unknown opcode.
  for (int i = 0; i < kNumPsOpCodes; ++i) {
    const PsOpCode op = static_cast<PsOpCode>(i);
    EXPECT_STRNE(PsOpCodeName(op), "unknown") << "opcode " << i;
    Result<PsServer::HandleResult> r =
        HandleBytes(server_, std::vector<uint8_t>{static_cast<uint8_t>(i)});
    EXPECT_FALSE(r.ok()) << PsOpCodeName(op);
    EXPECT_NE(r.status().message(), "unknown opcode") << PsOpCodeName(op);
  }
  EXPECT_STREQ(PsOpCodeName(static_cast<PsOpCode>(kNumPsOpCodes)), "unknown");
  EXPECT_STREQ(PsOpCodeName(PsOpCode::kColumnOps), "column_op");
}

TEST_F(PsServerTest, UnknownMatrixFails) {
  EXPECT_TRUE(
      HandleBytes(server_, RangeRead(42, 0, 0,
                                     4).buffer()).status().IsNotFound());
}

TEST_F(PsServerTest, RowOutOfRangeFails) {
  EXPECT_TRUE(HandleBytes(server_, RangeRead(0, 99, 0, 4).buffer())
                  .status()
                  .IsOutOfRange());
}

TEST_F(PsServerTest, ReadWindowPastTheSliceFails) {
  EXPECT_TRUE(HandleBytes(server_, RangeRead(0, 0, 12, 5).buffer())
                  .status()
                  .IsOutOfRange());
}

TEST_F(PsServerTest, GarbageOpcodeFails) {
  BufferWriter w;
  w.WriteU8(200);
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsInvalidArgument());
}

TEST_F(PsServerTest, DuplicateShardRejected) {
  EXPECT_TRUE(
      server_.CreateMatrixShard(MakeMeta(0, 16, 3, 1)).IsAlreadyExists());
}

TEST_F(PsServerTest, FreeShardRemoves) {
  EXPECT_TRUE(server_.FreeMatrixShard(0).ok());
  EXPECT_FALSE(server_.HasMatrix(0));
  EXPECT_TRUE(server_.FreeMatrixShard(0).IsNotFound());
}

TEST_F(PsServerTest, CheckpointRoundTrip) {
  PushDense(0, 0, 0, {7, 8, 9});
  std::vector<uint8_t> image = server_.SerializeState();
  PushDense(0, 0, 0, {100});  // diverge after the checkpoint
  EXPECT_TRUE(server_.RestoreState(image).ok());
  std::vector<double> row = Pull(0, 0, 0, 3);
  EXPECT_EQ(row, (std::vector<double>{7, 8, 9}));
}

TEST_F(PsServerTest, DropAllStateZeroes) {
  PushDense(0, 0, 0, {7, 8, 9});
  server_.DropAllState();
  std::vector<double> row = Pull(0, 0, 0, 3);
  EXPECT_EQ(row, (std::vector<double>{0, 0, 0}));
  EXPECT_TRUE(server_.HasMatrix(0));  // metadata survives a crash
}

TEST_F(PsServerTest, StoredValuesCountsDenseCells) {
  EXPECT_EQ(server_.StoredValues(), 3u * 16u);
}

TEST_F(PsServerTest, SparseStoragePushPull) {
  ASSERT_TRUE(server_
                  .CreateMatrixShard(
                      MakeMeta(1, 1000000, 2, 1, MatrixStorage::kSparse))
                  .ok());
  PushDense(1, 0, 999990, {5.0});
  std::vector<double> window = Pull(1, 0, 999989, 999992);
  EXPECT_EQ(window, (std::vector<double>{0, 5, 0}));
  EXPECT_EQ(server_.StoredValues(), 3u * 16u + 1u);
}

TEST_F(PsServerTest, SparseStorageRejectsColumnOps) {
  ASSERT_TRUE(server_
                  .CreateMatrixShard(
                      MakeMeta(2, 100, 2, 1, MatrixStorage::kSparse))
                  .ok());
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kFill));
  w.WriteVarint(1);
  w.WriteVarint(2);
  w.WriteVarint(0);
  w.WriteF64(1.0);
  EXPECT_TRUE(HandleBytes(server_, w.buffer()).status().IsFailedPrecondition());
}

TEST_F(PsServerTest, MatrixInitDeterministicAcrossCalls) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kMatrixInit));
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(3);
  w.WriteF64(0.5);
  w.WriteU64(123);
  Call(w);
  std::vector<double> first = Pull(0, 0, 0, 16);
  Call(w);
  std::vector<double> second = Pull(0, 0, 0, 16);
  EXPECT_EQ(first, second);
  bool any_nonzero = false;
  for (double v : first) {
    EXPECT_LE(std::abs(v), 0.5);
    any_nonzero |= v != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
}

/// The whole slice of one row this server holds, read with the all
/// selector: its length shows the bounds the row resolved against.
Result<std::vector<double>> AllRead(PsServer& server, uint64_t matrix,
                                    uint64_t row) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll));
  w.WriteVarint(1);
  w.WriteVarint(matrix);
  w.WriteVarint(row);
  PS2_ASSIGN_OR_RETURN(PsServer::HandleResult result,
                       HandleBytes(server, w.buffer()));
  BufferReader in(result.response);
  PS2_ASSIGN_OR_RETURN(uint64_t n, in.ReadVarint());
  return in.ReadF64Span(n);
}

/// A range write of `values` at column `begin` of one row.
Status RangeWrite(PsServer& server, uint64_t matrix, uint64_t row,
                  uint64_t begin, const std::vector<double>& values) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kRange));
  w.WriteVarint(1);
  w.WriteVarint(matrix);
  w.WriteVarint(row);
  w.WriteVarint(begin);
  w.WriteVarint(values.size());
  w.WriteF64Span(values.data(), values.size());
  return HandleBytes(server, w.buffer()).status();
}

/// The sum of one row's slice (kAggregate, kSum).
Result<double> RowSum(PsServer& server, uint64_t matrix, uint64_t row) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kAggregate));
  w.WriteU8(static_cast<uint8_t>(AggKind::kSum));
  w.WriteVarint(1);
  w.WriteVarint(matrix);
  w.WriteVarint(row);
  PS2_ASSIGN_OR_RETURN(PsServer::HandleResult result,
                       HandleBytes(server, w.buffer()));
  return BufferReader(result.response).ReadF64();
}

std::vector<double> Ramp(double first, size_t n) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = first + static_cast<double>(i);
  return out;
}

std::vector<double> Concat(std::vector<double> head,
                           const std::vector<double>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

TEST_F(PsServerTest, RowLookupFollowsEveryLayoutChange) {
  // Every row access resolves through the shard's entry. Each layout change
  // must leave the entry at the shard's current bounds and values: a stale
  // one reads freed or shifted values, or takes a write the bounds refuse.
  constexpr uint64_t kM = 1;
  // Created: dim 32 over two partitions, so this server holds [0, 16).
  ASSERT_TRUE(server_.CreateMatrixShard(MakeMeta(kM, 32, 2, 2)).ok());
  EXPECT_EQ(*AllRead(server_, kM, 1), std::vector<double>(16, 0.0));
  ASSERT_TRUE(RangeWrite(server_, kM, 1, 0, Ramp(0, 16)).ok());
  EXPECT_EQ(*AllRead(server_, kM, 1), Ramp(0, 16));
  const std::vector<uint8_t> image = server_.SerializeState();

  // Migration resize: [16, 32) staged for epoch 1 (row r holds 100 r + c),
  // then the commit widens the shard to [0, 32).
  BufferWriter migrate;
  migrate.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeMigrate));
  migrate.WriteVarint(1);  // epoch
  migrate.WriteVarint(kM);
  migrate.WriteVarint(16);  // begin
  migrate.WriteVarint(32);  // end
  migrate.WriteVarint(32);  // dim
  migrate.WriteVarint(2);   // rows
  migrate.WriteU8(static_cast<uint8_t>(MatrixStorage::kDense));
  for (double first : {16.0, 116.0}) {
    const std::vector<double> row = Ramp(first, 16);
    migrate.WriteF64Span(row.data(), row.size());
  }
  migrate.WriteVarint(0);  // worker clocks
  ASSERT_TRUE(HandleBytes(server_, migrate.buffer()).ok());
  auto commit = [&](uint64_t epoch, uint64_t begin, uint64_t end) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kRoutingUpdate));
    w.WriteVarint(epoch);
    w.WriteVarint(1);  // entries
    w.WriteVarint(kM);
    w.WriteVarint(begin);
    w.WriteVarint(end);
    w.WriteVarint(32);  // dim
    w.WriteVarint(2);   // rows
    w.WriteU8(static_cast<uint8_t>(MatrixStorage::kDense));
    return HandleBytes(server_, w.buffer()).status();
  };
  ASSERT_TRUE(commit(1, 0, 32).ok());
  EXPECT_EQ(*AllRead(server_, kM, 1), Concat(Ramp(0, 16), Ramp(116, 16)));
  EXPECT_EQ(*AllRead(server_, kM, 0),
            Concat(std::vector<double>(16, 0.0), Ramp(16, 16)));
  ASSERT_TRUE(RangeWrite(server_, kM, 1, 20, {1000.0}).ok());
  EXPECT_EQ(Pull(kM, 1, 14, 22),
            (std::vector<double>{14, 15, 116, 117, 118, 119, 1120, 121}));
  EXPECT_DOUBLE_EQ(*RowSum(server_, kM, 0), 376.0);  // 16 + ... + 31
  // Shrunk by a second commit to [8, 32): the overlap keeps its values.
  ASSERT_TRUE(commit(2, 8, 32).ok());
  EXPECT_EQ(AllRead(server_, kM, 1)->size(), 24u);
  EXPECT_EQ(Pull(kM, 1, 8, 10), (std::vector<double>{8, 9}));
  EXPECT_TRUE(HandleBytes(server_, RangeRead(kM, 1, 4, 2).buffer())
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(RangeWrite(server_, kM, 1, 4, {1.0}).IsOutOfRange());

  // RestoreState: the image's bounds [0, 16) and values come back.
  ASSERT_TRUE(server_.RestoreState(image).ok());
  EXPECT_EQ(*AllRead(server_, kM, 1), Ramp(0, 16));
  EXPECT_EQ(*AllRead(server_, kM, 0), std::vector<double>(16, 0.0));
  EXPECT_TRUE(RangeWrite(server_, kM, 1, 20, {1.0}).IsOutOfRange());
  EXPECT_DOUBLE_EQ(*RowSum(server_, kM, 1), 120.0);

  // Freed: every path reports the matrix gone, not a stale row.
  ASSERT_TRUE(server_.FreeMatrixShard(kM).ok());
  EXPECT_TRUE(AllRead(server_, kM, 1).status().IsNotFound());
  EXPECT_TRUE(RangeWrite(server_, kM, 1, 0, {1.0}).IsNotFound());
  EXPECT_TRUE(RowSum(server_, kM, 1).status().IsNotFound());
  // Re-created under the same id with another shape: four zeroed rows of 8.
  ASSERT_TRUE(server_.CreateMatrixShard(MakeMeta(kM, 8, 4, 1)).ok());
  EXPECT_EQ(*AllRead(server_, kM, 3), std::vector<double>(8, 0.0));
  EXPECT_TRUE(AllRead(server_, kM, 4).status().IsOutOfRange());
  ASSERT_TRUE(RangeWrite(server_, kM, 3, 0, Ramp(1, 8)).ok());
  EXPECT_EQ(*AllRead(server_, kM, 3), Ramp(1, 8));
  EXPECT_EQ(*AllRead(server_, kM, 2), std::vector<double>(8, 0.0));
  // ... and again as sparse storage, which dense-only ops refuse.
  ASSERT_TRUE(server_.FreeMatrixShard(kM).ok());
  ASSERT_TRUE(server_
                  .CreateMatrixShard(
                      MakeMeta(kM, 64, 2, 1, MatrixStorage::kSparse))
                  .ok());
  ASSERT_TRUE(RangeWrite(server_, kM, 1, 40, {2.5}).ok());
  EXPECT_EQ(Pull(kM, 1, 39, 42), (std::vector<double>{0, 2.5, 0}));
  EXPECT_DOUBLE_EQ(*RowSum(server_, kM, 1), 2.5);
  BufferWriter fill;
  fill.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  fill.WriteU8(static_cast<uint8_t>(ColOpKind::kFill));
  fill.WriteVarint(1);
  fill.WriteVarint(kM);
  fill.WriteVarint(0);
  fill.WriteF64(1.0);
  EXPECT_TRUE(
      HandleBytes(server_, fill.buffer()).status().IsFailedPrecondition());

  // Decommissioned: no shard is left to resolve a row against.
  server_.Decommission(3);
  for (uint64_t m : {uint64_t{0}, kM}) {
    EXPECT_TRUE(AllRead(server_, m, 0).status().IsNotFound()) << m;
    EXPECT_TRUE(RangeWrite(server_, m, 0, 0, {1.0}).IsNotFound()) << m;
    EXPECT_FALSE(server_.HasMatrix(static_cast<int>(m)));
  }
}

TEST_F(PsServerTest, DenseShardValuesAreOneBlock) {
  // A dense shard keeps all its rows in one rows x width block: creating
  // one allocates as often whatever its row count, and its largest
  // allocation is the whole block.
  auto create = [&](int id, uint32_t rows) {
    return CountAllocs([&] {
      EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(id, 32, rows, 1)).ok());
    });
  };
  // Ids 1 and 2 size the shard table first, so neither count includes it.
  server_.AdmitMatrixIds(3);
  ASSERT_TRUE(server_.CreateMatrixShard(MakeMeta(2, 8, 1, 1)).ok());
  ASSERT_TRUE(server_.FreeMatrixShard(2).ok());
  const AllocCount few = create(1, 4);
  const AllocCount many = create(2, 4096);
  EXPECT_EQ(few.allocs, many.allocs);
  EXPECT_EQ(few.largest, 4u * 32 * sizeof(double));
  EXPECT_EQ(many.largest, 4096u * 32 * sizeof(double));
}

}  // namespace
}  // namespace ps2
