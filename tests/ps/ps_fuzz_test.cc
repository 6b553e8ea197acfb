// Robustness: PsServer::Handle must reject arbitrary byte sequences with a
// Status — never crash, never corrupt state — because in the real system
// the request buffer comes off the network.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/sparse_vector.h"
#include "net/filter_config.h"
#include "net/message.h"
#include "ps/partitioner.h"
#include "ps/ps_server.h"

namespace ps2 {
namespace {

MatrixMeta MakeMeta(int id, uint64_t dim, uint32_t rows) {
  MatrixMeta meta;
  meta.id = id;
  meta.name = "fuzz";
  meta.dim = dim;
  meta.num_rows = rows;
  meta.partitioner = *ColumnPartitioner::Make(dim, 1);
  return meta;
}

class PsFuzzTest : public ::testing::Test {
 protected:
  PsFuzzTest() : server_(0, &udfs_) {
    EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(0, 64, 4)).ok());
    udfs_.RegisterZip(
        [](const std::vector<double*>& rows, size_t n, uint64_t) -> uint64_t {
          for (size_t i = 0; i < n; ++i) rows[0][i] += 1;
          return n;
        });
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(PsFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF0220);
  for (int trial = 0; trial < 5000; ++trial) {
    size_t len = rng.NextUint64(64);
    std::vector<uint8_t> request(len);
    for (auto& b : request) b = static_cast<uint8_t>(rng.Next());
    Result<PsServer::HandleResult> result = server_.Handle(request);
    // Either it parsed into a valid op or it errored; both are fine.
    (void)result;
  }
  // State must remain intact and usable.
  EXPECT_TRUE(server_.HasMatrix(0));
  EXPECT_EQ(server_.StoredValues(), 4u * 64u);
}

TEST_F(PsFuzzTest, ValidOpcodeGarbageBodyNeverCrashes) {
  Rng rng(0xF0221);
  // Derived from the opcode count so a new opcode is fuzzed on arrival.
  for (int opcode = 0; opcode < kNumPsOpCodes; ++opcode) {
    for (int trial = 0; trial < 500; ++trial) {
      size_t len = rng.NextUint64(48);
      std::vector<uint8_t> request(1 + len);
      request[0] = static_cast<uint8_t>(opcode);
      for (size_t i = 1; i < request.size(); ++i) {
        request[i] = static_cast<uint8_t>(rng.Next());
      }
      (void)server_.Handle(request);
    }
  }
  EXPECT_TRUE(server_.HasMatrix(0));
}

TEST_F(PsFuzzTest, EmptyRequestRejected) {
  EXPECT_FALSE(server_.Handle({}).ok());
}

TEST_F(PsFuzzTest, TruncatedValidRequestsRejected) {
  // Build a valid pull request, then replay every truncation of it.
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  writer.WriteVarint(0);
  writer.WriteVarint(1);
  writer.WriteVarint(0);
  writer.WriteVarint(64);
  std::vector<uint8_t> full = writer.Release();
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> truncated(full.begin(), full.begin() + len);
    EXPECT_FALSE(server_.Handle(truncated).ok()) << "length " << len;
  }
  EXPECT_TRUE(server_.Handle(full).ok());
}

TEST_F(PsFuzzTest, ForgedCompressedFrameRejected) {
  // A tracked request whose compress-filtered body claims a raw length of
  // 2^61: decoding must fail with a Status instead of allocating it.
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  writer.WriteVarint(uint64_t{1} << 61);  // raw_len
  writer.WriteU8(0);                      // one-byte literal run
  writer.WriteVarint(1);
  writer.WriteU8(0);
  std::vector<uint8_t> forged = writer.Release();
  RpcHeader header;
  header.client_id = 0;
  header.seq = 1;
  EXPECT_FALSE(
      server_.Handle(header, WireFrame{Slice(forged), kFilterCompress}).ok());

  // The server stays usable, and the rejected mutation's seq was not
  // consumed: a valid push under it applies instead of acking as a replay.
  BufferWriter push;
  push.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  push.WriteVarint(0);
  push.WriteVarint(1);
  push.WriteVarint(0);
  push.WriteVarint(64);
  const std::vector<double> ones(64, 1.0);
  push.WriteF64Span(ones.data(), ones.size());
  Result<PsServer::HandleResult> ok = server_.Handle(header, push.Release());
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_FALSE(ok->dedup_hit);
  EXPECT_EQ(ok->server_ops, 64u);
}

TEST_F(PsFuzzTest, CorruptedCheckpointRejectedWithoutCrash) {
  std::vector<uint8_t> image = server_.SerializeState();
  Rng rng(0xF0222);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = image;
    // Flip a few random bytes.
    for (int flips = 0; flips < 3; ++flips) {
      corrupted[rng.NextUint64(corrupted.size())] ^=
          static_cast<uint8_t>(1 + rng.NextUint64(255));
    }
    (void)server_.RestoreState(corrupted);  // may fail; must not crash
  }
  // A clean image must still restore.
  EXPECT_TRUE(server_.RestoreState(image).ok());
}

TEST_F(PsFuzzTest, SparseVectorDeserializeFuzz) {
  Rng rng(0xF0223);
  for (int trial = 0; trial < 5000; ++trial) {
    size_t len = rng.NextUint64(40);
    std::vector<uint8_t> buffer(len);
    for (auto& b : buffer) b = static_cast<uint8_t>(rng.Next());
    BufferReader reader(buffer);
    (void)SparseVector::Deserialize(&reader);  // must not crash
  }
}

}  // namespace
}  // namespace ps2
