#include "ps/ps_server.h"

#include <gtest/gtest.h>

#include "common/serde.h"
#include "ml/optimizer.h"
#include "ps/partitioner.h"
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

}  // namespace
}  // namespace ps2
