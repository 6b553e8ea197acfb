// Robustness: PsServer::Handle must reject arbitrary byte sequences with a
// Status — never crash, never corrupt state — because in the real system
// the request buffer comes off the network.
//
// The random trials draw from each test's fixed seed. Set PS2_FUZZ_SEED to
// mix a fresh value into every seed (the nightly CI leg exports its run
// id); each failure message names the seeds, so any run reproduces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.h"
#include "linalg/sparse_vector.h"
#include "net/filter_config.h"
#include "net/filters.h"
#include "net/message.h"
#include "ps/partitioner.h"
#include "ps/ps_server.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

/// `constant` mixed with PS2_FUZZ_SEED when that is set, else `constant`.
uint64_t FuzzSeed(uint64_t constant) {
  const char* env = std::getenv("PS2_FUZZ_SEED");
  return env != nullptr ? constant ^ std::strtoull(env, nullptr, 10)
                        : constant;
}

/// The trace every seeded test carries, so a failure names its seeds.
std::string SeedTrace(uint64_t seed) {
  const char* env = std::getenv("PS2_FUZZ_SEED");
  return "PS2_FUZZ_SEED=" + std::string(env != nullptr ? env : "(unset)") +
         " rng seed " + std::to_string(seed);
}

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

  /// A kWriteRows request adding `values` to the whole slice of `row` of
  /// matrix 0.
  static std::vector<uint8_t> AllWrite(uint32_t row,
                                       const std::vector<double>& values) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
    w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kAll));
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(row);
    w.WriteVarint(values.size());
    w.WriteF64Span(values.data(), values.size());
    return w.Release();
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(PsFuzzTest, RandomBytesNeverCrash) {
  const uint64_t seed = FuzzSeed(0xF0220);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 5000; ++trial) {
    size_t len = rng.NextUint64(64);
    std::vector<uint8_t> request(len);
    for (auto& b : request) b = static_cast<uint8_t>(rng.Next());
    Result<PsServer::HandleResult> result = HandleBytes(server_, request);
    // Either it parsed into a valid op or it errored; both are fine.
    (void)result;
  }
  // State must remain intact and usable.
  EXPECT_TRUE(server_.HasMatrix(0));
  EXPECT_EQ(server_.StoredValues(), 4u * 64u);
}

TEST_F(PsFuzzTest, ValidOpcodeGarbageBodyNeverCrashes) {
  const uint64_t seed = FuzzSeed(0xF0221);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  // Derived from the opcode count so a new opcode is fuzzed on arrival.
  for (int opcode = 0; opcode < kNumPsOpCodes; ++opcode) {
    for (int trial = 0; trial < 500; ++trial) {
      size_t len = rng.NextUint64(48);
      std::vector<uint8_t> request(1 + len);
      request[0] = static_cast<uint8_t>(opcode);
      for (size_t i = 1; i < request.size(); ++i) {
        request[i] = static_cast<uint8_t>(rng.Next());
      }
      (void)HandleBytes(server_, request);
    }
  }
  EXPECT_TRUE(server_.HasMatrix(0));
}

TEST_F(PsFuzzTest, EmptyRequestRejected) {
  EXPECT_FALSE(HandleBytes(server_, {}).ok());
}

TEST_F(PsFuzzTest, TruncatedValidRequestsRejected) {
  // Valid requests — a row read, a ColumnOps batch of axpys and an
  // Aggregate batch of dots — replayed at every truncation. Each batch is
  // one run: a prefix ending on a run boundary would be a shorter valid
  // request.
  std::vector<double> ones(64, 1.0);
  ASSERT_TRUE(HandleBytes(server_, AllWrite(1, ones)).ok());

  BufferWriter pull;
  pull.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
  pull.WriteU8(static_cast<uint8_t>(RowSelectorKind::kRange));
  pull.WriteVarint(0);
  pull.WriteVarint(64);
  pull.WriteVarint(1);
  pull.WriteVarint(0);
  pull.WriteVarint(1);
  BufferWriter column_ops;
  column_ops.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOps));
  column_ops.WriteU8(static_cast<uint8_t>(ColOpKind::kAxpy));
  column_ops.WriteVarint(2);
  for (uint32_t dst : {0u, 2u}) {
    column_ops.WriteVarint(0);
    column_ops.WriteVarint(dst);
    column_ops.WriteVarint(0);
    column_ops.WriteVarint(1);
    column_ops.WriteF64(2.0);
  }
  BufferWriter aggregate;
  aggregate.WriteU8(static_cast<uint8_t>(PsOpCode::kAggregate));
  aggregate.WriteU8(static_cast<uint8_t>(AggKind::kDot));
  aggregate.WriteVarint(2);
  for (uint32_t row : {0u, 2u}) {
    aggregate.WriteVarint(0);
    aggregate.WriteVarint(row);
    aggregate.WriteVarint(0);
    aggregate.WriteVarint(1);
  }

  for (const BufferWriter* writer : {&pull, &column_ops, &aggregate}) {
    const std::vector<uint8_t>& full = writer->buffer();
    for (size_t len = 0; len < full.size(); ++len) {
      std::vector<uint8_t> truncated(full.begin(), full.begin() + len);
      EXPECT_FALSE(HandleBytes(server_, truncated).ok())
          << "opcode " << int{full[0]} << " length " << len;
    }
  }
  // No truncated ColumnOps applied anything: rows 0 and 2 are still 0.
  for (uint32_t row : {0u, 2u}) {
    BufferWriter check;
    check.WriteU8(static_cast<uint8_t>(PsOpCode::kAggregate));
    check.WriteU8(static_cast<uint8_t>(AggKind::kNnz));
    check.WriteVarint(1);
    check.WriteVarint(0);
    check.WriteVarint(row);
    Result<PsServer::HandleResult> nnz = HandleBytes(server_, check.buffer());
    ASSERT_TRUE(nnz.ok()) << nnz.status();
    EXPECT_EQ(*BufferReader(nnz->response).ReadF64(), 0.0) << "row " << row;
  }
  for (const BufferWriter* writer : {&pull, &column_ops, &aggregate}) {
    EXPECT_TRUE(HandleBytes(server_, writer->buffer()).ok())
        << "opcode " << int{writer->buffer()[0]};
  }
}

TEST_F(PsFuzzTest, ForgedCompressedFrameRejected) {
  // A tracked request whose compress-filtered body claims a raw length of
  // 2^61: decoding must fail with a Status instead of allocating it.
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
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
  Result<PsServer::HandleResult> ok =
      HandleBytes(server_, AllWrite(1, std::vector<double>(64, 1.0)), header);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_FALSE(ok->dedup_hit);
  EXPECT_EQ(ok->server_ops, 64u);
}

// A kReadRows / kWriteRows index request for `row` of matrix 0 over a
// random key subset, with the section marks the client's filter chain keys
// on.
struct MarkedRequest {
  std::vector<uint8_t> bytes;
  std::vector<PayloadSection> sections;
};

MarkedRequest SparseRequest(PsOpCode op, uint32_t row, Rng* rng) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 64; ++k) {
    if (rng->NextBernoulli(0.5)) keys.push_back(k);
  }
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(op));
  w.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
  if (op == PsOpCode::kWriteRows) {
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(row);
  }
  w.WriteVarint(keys.size());
  w.BeginSection(SectionKind::kKeys);
  w.WriteDeltaKeys(keys.data(), keys.size());
  w.EndSection();
  if (op == PsOpCode::kReadRows) {
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(row);
  } else {
    std::vector<double> values;
    for (size_t i = 0; i < keys.size(); ++i) {
      values.push_back(rng->NextDouble(-1.0, 1.0));
    }
    w.BeginSection(SectionKind::kF64Values);
    w.WriteF64Span(values.data(), values.size());
    w.EndSection();
  }
  MarkedRequest req;
  req.sections = w.TakeSections();
  req.bytes = w.Release();
  return req;
}

TEST_F(PsFuzzTest, FilteredFramesNeverCrash) {
  // Under a filter mask the server runs the chain's decoders (key-cache
  // refs, quantized value spans, LZ) before the handler parses anything.
  // Behind real sparse-op prefixes, feed each of the 8 masks both random
  // bodies and byte-flipped real frames: every outcome must be a Status.
  const uint64_t seed = FuzzSeed(0xF0224);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  FilterChain chain;
  ClientKeyCache client_keys;
  RpcHeader header;
  header.client_id = 0;
  for (PsOpCode op : {PsOpCode::kReadRows, PsOpCode::kWriteRows}) {
    for (uint8_t mask = 0; mask <= kFilterAll; ++mask) {
      for (int trial = 0; trial < 300; ++trial) {
        std::vector<uint8_t> body(1 + rng.NextUint64(64));
        body[0] = static_cast<uint8_t>(op);
        for (size_t i = 1; i < body.size(); ++i) {
          body[i] = static_cast<uint8_t>(rng.Next());
        }
        header.seq += 1;
        (void)server_.Handle(header, WireFrame{Slice(body), mask});

        MarkedRequest req =
            SparseRequest(op, static_cast<uint32_t>(rng.NextUint64(4)), &rng);
        FilterContext ctx;
        ctx.dir = FilterDir::kClientToServer;
        ctx.server = 0;
        ctx.client_keys = &client_keys;
        EncodedPayload enc =
            chain.Encode(Slice(req.bytes), req.sections, mask, 1, &ctx);
        std::vector<uint8_t> wire = enc.mask == 0 ? req.bytes : enc.wire;
        const int flips = static_cast<int>(rng.NextUint64(4));  // 0: intact
        for (int f = 0; f < flips && wire.size() > 1; ++f) {
          wire[1 + rng.NextUint64(wire.size() - 1)] ^=
              static_cast<uint8_t>(1 + rng.NextUint64(255));
        }
        header.seq += 1;
        (void)server_.Handle(header, WireFrame{Slice(wire), enc.mask});
      }
    }
  }
  EXPECT_TRUE(server_.HasMatrix(0));
  EXPECT_EQ(server_.StoredValues(), 4u * 64u);
  MarkedRequest pull = SparseRequest(PsOpCode::kReadRows, 0, &rng);
  EXPECT_TRUE(HandleBytes(server_, pull.bytes).ok());
}

TEST_F(PsFuzzTest, ForgedQuantCountRejected) {
  // A delta-filtered push whose one kValuesQuant chunk claims 2^40 values
  // over a 3-byte body: rejected with a Status, nothing sized from it.
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
  writer.WriteVarint(1);  // one chunk
  writer.WriteU8(FilterChunk::kValuesQuant);
  writer.WriteVarint(uint64_t{1} << 40);
  writer.WriteF64(1.0);  // scale
  writer.WriteVarint(3);
  writer.WriteU8(0);  // delta-varint coding
  writer.WriteU8(1);
  writer.WriteU8(1);
  std::vector<uint8_t> forged = writer.Release();
  RpcHeader header;
  header.client_id = 0;
  header.seq = 1;
  Result<PsServer::HandleResult> result =
      server_.Handle(header, WireFrame{Slice(forged), kFilterDelta});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("count exceeds"),
            std::string::npos)
      << result.status();
}

TEST_F(PsFuzzTest, CorruptedCheckpointRejectedWithoutCrash) {
  std::vector<uint8_t> image = server_.SerializeState();
  const uint64_t seed = FuzzSeed(0xF0222);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
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

TEST_F(PsFuzzTest, ForgedRowRequestsRejected) {
  // Hand-forged kReadRows / kWriteRows fields, each rejected by the decoder
  // with a Status and nothing applied.
  const std::vector<uint8_t> image = server_.SerializeState();
  auto frame = [](PsOpCode op, uint8_t tag) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(op));
    w.WriteU8(tag);
    return w;
  };
  auto row = [](BufferWriter* w, uint64_t n_rows) {
    w->WriteVarint(n_rows);
    w->WriteVarint(0);  // matrix
    w->WriteVarint(1);  // row
  };
  const uint8_t range = static_cast<uint8_t>(RowSelectorKind::kRange);
  const uint8_t indices = static_cast<uint8_t>(RowSelectorKind::kIndices);
  std::vector<std::pair<std::string, BufferWriter>> cases;

  // Selector tags: kind 3, an unknown flag bit, the replica flag on a read.
  for (uint8_t tag : {uint8_t{3}, uint8_t{0x40}, uint8_t{0x80 | 1}}) {
    BufferWriter read = frame(PsOpCode::kReadRows, tag);
    row(&read, 1);
    cases.emplace_back("read tag " + std::to_string(tag), std::move(read));
    BufferWriter write = frame(PsOpCode::kWriteRows, tag);
    row(&write, 1);
    write.WriteVarint(0);
    cases.emplace_back("write tag " + std::to_string(tag), std::move(write));
  }
  BufferWriter replica_read = frame(PsOpCode::kReadRows, kRowSelectorReplica);
  row(&replica_read, 1);
  cases.emplace_back("replica read", std::move(replica_read));

  // A window ending past the 64-column slice, and one whose end wraps.
  for (uint64_t begin : {uint64_t{60}, ~uint64_t{0} - 3}) {
    BufferWriter read = frame(PsOpCode::kReadRows, range);
    read.WriteVarint(begin);
    read.WriteVarint(8);
    row(&read, 1);
    cases.emplace_back("read window at " + std::to_string(begin),
                       std::move(read));
    BufferWriter write = frame(PsOpCode::kWriteRows, range);
    row(&write, 1);
    write.WriteVarint(begin);
    write.WriteVarint(8);
    for (int i = 0; i < 8; ++i) write.WriteF64(1.0);
    cases.emplace_back("write window at " + std::to_string(begin),
                       std::move(write));
  }

  // An index count past the body.
  BufferWriter long_read = frame(PsOpCode::kReadRows, indices);
  long_read.WriteVarint(1000);
  long_read.WriteVarint(1);
  long_read.WriteVarint(1);
  row(&long_read, 1);
  cases.emplace_back("read index count", std::move(long_read));
  BufferWriter long_write = frame(PsOpCode::kWriteRows, indices);
  row(&long_write, 1);
  long_write.WriteVarint(1000);
  long_write.WriteVarint(1);
  long_write.WriteF64(1.0);
  cases.emplace_back("write index count", std::move(long_write));

  // A row count no body could hold.
  for (PsOpCode op : {PsOpCode::kReadRows, PsOpCode::kWriteRows}) {
    BufferWriter rows = frame(op, static_cast<uint8_t>(RowSelectorKind::kAll));
    row(&rows, uint64_t{1} << 40);
    cases.emplace_back(std::string("row count of ") + PsOpCodeName(op),
                       std::move(rows));
  }

  // An integer-coded write whose last value is a truncated varint, after a
  // valid first run.
  BufferWriter ints = frame(PsOpCode::kWriteRows, indices);
  row(&ints, 1);
  ints.WriteVarint(1);
  ints.WriteVarint(2);
  ints.WriteF64(1.0);
  ints.WriteU8(indices | kRowSelectorIntValues);
  row(&ints, 1);
  ints.WriteVarint(2);
  const uint64_t keys[] = {4, 9};
  ints.WriteDeltaKeys(keys, 2);
  ints.WriteSignedVarint(3);
  ints.WriteU8(0x80);  // a continuation byte with nothing after it
  cases.emplace_back("truncated integer value", std::move(ints));

  for (const auto& [name, w] : cases) {
    Result<PsServer::HandleResult> r = HandleBytes(server_, w.buffer());
    EXPECT_FALSE(r.ok()) << name;
  }
  EXPECT_EQ(server_.SerializeState(), image);

  // The same integer-coded write, completed, applies both runs.
  BufferWriter good = frame(PsOpCode::kWriteRows, indices);
  row(&good, 1);
  good.WriteVarint(1);
  good.WriteVarint(2);
  good.WriteF64(1.0);
  good.WriteU8(indices | kRowSelectorIntValues);
  row(&good, 1);
  good.WriteVarint(2);
  good.WriteDeltaKeys(keys, 2);
  good.WriteSignedVarint(3);
  good.WriteSignedVarint(-5);
  ASSERT_TRUE(HandleBytes(server_, good.buffer()).ok());
  BufferWriter read = frame(PsOpCode::kReadRows, indices);
  const uint64_t all_keys[] = {2, 4, 9};
  read.WriteVarint(3);
  read.WriteDeltaKeys(all_keys, 3);
  row(&read, 1);
  Result<PsServer::HandleResult> values = HandleBytes(server_, read.buffer());
  ASSERT_TRUE(values.ok()) << values.status();
  BufferReader in(values->response);
  EXPECT_EQ(*in.ReadVarint(), 3u);
  EXPECT_EQ(*in.ReadF64Span(3), (std::vector<double>{1.0, 3.0, -5.0}));
}

TEST_F(PsFuzzTest, ForgedMatrixIdsRejected) {
  // Matrix ids index the server's shard table. A forged id must never index
  // past it, size it (INT32_MAX slots would be 16 GiB), or wrap onto a live
  // matrix (2^32 truncates to matrix 0): each frame fails, nothing changes.
  const std::vector<uint8_t> image = server_.SerializeState();
  const std::vector<double> row(64, 1.0);
  const uint64_t ids[] = {
      ~uint64_t{0},                                          // -1
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()),
      1,                                                     // one past 0
      uint64_t{1} << 32,
  };
  for (uint64_t id : ids) {
    // A read and a write of each selector kind.
    for (RowSelectorKind kind :
         {RowSelectorKind::kAll, RowSelectorKind::kRange,
          RowSelectorKind::kIndices}) {
      BufferWriter pull;
      pull.WriteU8(static_cast<uint8_t>(PsOpCode::kReadRows));
      pull.WriteU8(static_cast<uint8_t>(kind));
      if (kind != RowSelectorKind::kAll) {
        pull.WriteVarint(kind == RowSelectorKind::kRange ? 0 : 1);
        pull.WriteVarint(kind == RowSelectorKind::kRange ? 8 : 3);
      }
      pull.WriteVarint(1);
      pull.WriteVarint(id);
      pull.WriteVarint(0);
      EXPECT_TRUE(HandleBytes(server_, pull.buffer()).status().IsNotFound())
          << id << " kind " << int{static_cast<uint8_t>(kind)};

      BufferWriter push;
      push.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
      push.WriteU8(static_cast<uint8_t>(kind));
      push.WriteVarint(1);
      push.WriteVarint(id);
      push.WriteVarint(0);
      if (kind == RowSelectorKind::kRange) push.WriteVarint(0);
      push.WriteVarint(kind == RowSelectorKind::kIndices ? 1 : row.size());
      if (kind == RowSelectorKind::kIndices) push.WriteVarint(3);
      push.WriteF64Span(row.data(),
                        kind == RowSelectorKind::kIndices ? 1 : row.size());
      EXPECT_TRUE(HandleBytes(server_, push.buffer()).status().IsNotFound())
          << id << " kind " << int{static_cast<uint8_t>(kind)};
    }

    // A staged range for the id, then the commit that would create its
    // shard here: both refused, the id was never admitted.
    BufferWriter migrate;
    migrate.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeMigrate));
    migrate.WriteVarint(1);  // epoch
    migrate.WriteVarint(id);
    migrate.WriteVarint(0);   // begin
    migrate.WriteVarint(8);   // end
    migrate.WriteVarint(64);  // dim
    migrate.WriteVarint(1);   // rows
    migrate.WriteU8(static_cast<uint8_t>(MatrixStorage::kDense));
    migrate.WriteF64Span(row.data(), 8);
    migrate.WriteVarint(0);  // worker clocks
    EXPECT_TRUE(HandleBytes(server_, migrate.buffer()).status().IsNotFound())
        << id;

    BufferWriter commit;
    commit.WriteU8(static_cast<uint8_t>(PsOpCode::kRoutingUpdate));
    commit.WriteVarint(1);  // epoch
    commit.WriteVarint(1);  // entries
    commit.WriteVarint(id);
    commit.WriteVarint(0);
    commit.WriteVarint(8);
    commit.WriteVarint(64);
    commit.WriteVarint(1);
    commit.WriteU8(static_cast<uint8_t>(MatrixStorage::kDense));
    EXPECT_TRUE(HandleBytes(server_, commit.buffer()).status().IsNotFound())
        << id;

    // A checkpoint image whose one shard claims the id.
    ASSERT_EQ(image[0], 1);  // one shard, matrix 0
    ASSERT_EQ(image[1], 0);
    BufferWriter forged;
    forged.WriteVarint(1);
    forged.WriteVarint(id);
    forged.WriteBytes(Slice(image.data() + 2, image.size() - 2));
    EXPECT_TRUE(server_.RestoreState(forged.Release()).IsNotFound()) << id;
  }
  EXPECT_EQ(server_.SerializeState(), image);
  EXPECT_FALSE(server_.HasMatrix(1));
  EXPECT_FALSE(server_.HasMatrix(std::numeric_limits<int32_t>::max()));
}

TEST_F(PsFuzzTest, ForgedServingPullMatrixIdsRejected) {
  // A serving read decodes its matrix id whole: 2^32 + 0 must not truncate
  // onto live matrix 0, and no forged id may read another matrix's data.
  ASSERT_TRUE(server_.PublishSnapshot(1).ok());
  auto serving_pull = [&](uint64_t id) {
    BufferWriter pull;
    pull.WriteU8(static_cast<uint8_t>(PsOpCode::kServingPull));
    pull.WriteVarint(1);  // epoch
    pull.WriteVarint(1);  // entries
    pull.WriteVarint(id);
    pull.WriteVarint(0);  // row
    pull.WriteVarint(0);  // full slice
    return HandleBytes(server_, pull.buffer());
  };
  ASSERT_TRUE(serving_pull(0).ok());  // the live matrix itself serves
  const uint64_t ids[] = {
      (uint64_t{1} << 32) + 0,  // 2^32 + a live id
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()),
      ~uint64_t{0},  // 2^64 - 1
  };
  for (uint64_t id : ids) {
    Result<PsServer::HandleResult> result = serving_pull(id);
    EXPECT_TRUE(result.status().IsNotFound()) << id << " "
                                              << result.status().ToString();
  }
}

/// A checkpoint image holding every section — a dense and a sparse shard,
/// a replica, a dedup entry and worker clocks — with the byte span of each
/// count and id field, found by walking the image the way RestoreState
/// reads it.
class CheckpointImageTest : public PsFuzzTest {
 protected:
  struct Field {
    std::string name;
    size_t begin = 0;
    size_t end = 0;
  };

  CheckpointImageTest() {
    MatrixMeta sparse = MakeMeta(1, 32, 2);
    sparse.storage = MatrixStorage::kSparse;
    EXPECT_TRUE(server_.CreateMatrixShard(sparse).ok());
    // Tracked writes: seq 1 then 3 leave floor 1 and seen {3}.
    const std::vector<uint8_t> write =
        AllWrite(0, std::vector<double>(64, 0.5));
    RpcHeader header;
    header.client_id = 5;
    for (uint64_t seq : {1, 3}) {
      header.seq = seq;
      EXPECT_TRUE(HandleBytes(server_, write, header).ok());
    }
    BufferWriter sparse_write;
    sparse_write.WriteU8(static_cast<uint8_t>(PsOpCode::kWriteRows));
    sparse_write.WriteU8(static_cast<uint8_t>(RowSelectorKind::kIndices));
    sparse_write.WriteVarint(1);  // rows
    sparse_write.WriteVarint(1);  // matrix
    sparse_write.WriteVarint(0);  // row
    sparse_write.WriteVarint(2);  // values
    sparse_write.WriteVarint(4);  // keys 4, 9 as deltas
    sparse_write.WriteVarint(5);
    sparse_write.WriteF64(1.5);
    sparse_write.WriteF64(-2.0);
    EXPECT_TRUE(HandleBytes(server_, sparse_write.buffer()).ok());
    BufferWriter hot;
    hot.WriteU8(static_cast<uint8_t>(PsOpCode::kHotSetUpdate));
    hot.WriteVarint(1);
    hot.WriteVarint(0);   // matrix
    hot.WriteVarint(1);   // row
    hot.WriteVarint(64);  // dim
    EXPECT_TRUE(HandleBytes(server_, hot.buffer()).ok());
    server_.InitWorkerClocks(3);
    BufferWriter clock;
    clock.WriteU8(static_cast<uint8_t>(PsOpCode::kClockAdvance));
    clock.WriteVarint(2);  // worker
    clock.WriteVarint(7);  // clock
    EXPECT_TRUE(HandleBytes(server_, clock.buffer()).ok());
    image_ = server_.SerializeState();
    Walk();
  }

  /// Reads image_ field by field, recording fields_ and the section ends.
  void Walk() {
    BufferReader in(image_);
    auto at = [&] { return image_.size() - in.remaining(); };
    auto varint = [&](const char* name) {
      const size_t begin = at();
      uint64_t v = *in.ReadVarint();
      fields_.push_back({name, begin, at()});
      return v;
    };
    const uint64_t n_shards = varint("n_shards");
    for (uint64_t s = 0; s < n_shards; ++s) {
      const uint64_t id = varint("shard_id");
      (void)*in.ReadU8();
      (void)*in.ReadVarint();
      (void)*in.ReadVarint();
      const uint64_t n_rows = varint("n_rows");
      for (uint64_t r = 0; r < n_rows; ++r) {
        if (id == 0) {
          const uint64_t width = varint("pod_len");
          for (uint64_t c = 0; c < width; ++c) (void)*in.ReadF64();
          continue;
        }
        const uint64_t nnz = varint("nnz");
        for (uint64_t i = 0; i < nnz; ++i) {
          (void)*in.ReadVarint();
          (void)*in.ReadF64();
        }
      }
    }
    section_ends_.push_back(at());
    const uint64_t n_replicas = varint("n_replicas");
    for (uint64_t i = 0; i < n_replicas; ++i) {
      varint("replica_matrix");
      varint("replica_row");
      (void)*in.ReadVarint();  // dim
      (void)*in.ReadVarint();  // version
      const uint64_t width = varint("pod_len");
      for (uint64_t c = 0; c < width; ++c) (void)*in.ReadF64();
      const uint64_t nnz = varint("nnz");
      for (uint64_t j = 0; j < nnz; ++j) {
        (void)*in.ReadVarint();
        (void)*in.ReadF64();
      }
    }
    section_ends_.push_back(at());
    const uint64_t n_clients = varint("n_clients");
    for (uint64_t i = 0; i < n_clients; ++i) {
      varint("client_id");
      (void)*in.ReadVarint();  // floor
      const uint64_t n_seen = varint("n_seen");
      for (uint64_t j = 0; j < n_seen; ++j) (void)*in.ReadVarint();
    }
    section_ends_.push_back(at());
    const uint64_t n_clocks = varint("n_clocks");
    for (uint64_t w = 0; w < n_clocks; ++w) (void)*in.ReadVarint();
    EXPECT_TRUE(in.AtEnd());
  }

  /// image_ with `field` replaced by the varint `value`.
  std::vector<uint8_t> Forge(const Field& field, uint64_t value) const {
    BufferWriter out;
    out.WriteBytes(Slice(image_.data(), field.begin));
    out.WriteVarint(value);
    out.WriteBytes(
        Slice(image_.data() + field.end, image_.size() - field.end));
    return out.Release();
  }

  std::vector<uint8_t> image_;
  std::vector<Field> fields_;
  std::vector<size_t> section_ends_;  ///< before replicas, dedup, clocks
};

TEST_F(CheckpointImageTest, EveryStrictPrefixIsRejectedButTheLegacyEnds) {
  ASSERT_EQ(section_ends_.size(), 3u);
  for (size_t len = 0; len < image_.size(); ++len) {
    const bool legacy =
        std::find(section_ends_.begin(), section_ends_.end(), len) !=
        section_ends_.end();
    std::vector<uint8_t> prefix(image_.begin(), image_.begin() + len);
    EXPECT_EQ(server_.RestoreState(prefix).ok(), legacy) << "prefix " << len;
  }
  ASSERT_TRUE(server_.RestoreState(image_).ok());
  EXPECT_EQ(server_.SerializeState(), image_);
}

TEST_F(CheckpointImageTest, ForgedCountsRejectedWithoutCrash) {
  const char* counts[] = {"n_shards", "n_rows",   "pod_len", "n_replicas",
                          "nnz",      "n_clients", "n_seen",  "n_clocks"};
  for (const char* name : counts) {
    int forged = 0;
    for (const Field& f : fields_) {
      if (f.name != name) continue;
      forged += 1;
      EXPECT_FALSE(server_.RestoreState(Forge(f, uint64_t{1} << 62)).ok())
          << name << " at byte " << f.begin;
    }
    EXPECT_GT(forged, 0) << name;
  }
  ASSERT_TRUE(server_.RestoreState(image_).ok());
  EXPECT_EQ(server_.SerializeState(), image_);
}

TEST_F(CheckpointImageTest, ForgedWideIdsDoNotTruncateOntoLiveOnes) {
  // 2^32 + k would truncate onto matrix k, row k or client k: an image
  // naming one must be refused, never restored under the live id.
  for (const Field& f : fields_) {
    if (f.name != "replica_matrix" && f.name != "replica_row" &&
        f.name != "client_id") {
      continue;
    }
    BufferReader in(image_.data() + f.begin, f.end - f.begin);
    const uint64_t live = *in.ReadVarint();
    EXPECT_FALSE(
        server_.RestoreState(Forge(f, (uint64_t{1} << 32) + live)).ok())
        << f.name;
  }
  ASSERT_TRUE(server_.RestoreState(image_).ok());
  EXPECT_EQ(server_.SerializeState(), image_);
}

TEST_F(PsFuzzTest, SparseVectorDeserializeFuzz) {
  const uint64_t seed = FuzzSeed(0xF0223);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
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
