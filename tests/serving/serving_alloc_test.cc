// Allocation guard for the client's read paths. A global operator new that
// counts while a test asks it to shows what one steady-state op allocates:
// after warm-up, a fixed 8-request ServeBatch allocates only the vectors it
// returns (the outer one and one per request) and the servers' response
// buffers, and a ReadRowsAsync into a reused block allocates only the
// response buffers. Everything else — planning, coalescing, request
// encoding, the exchange bookkeeping and the op's traffic record — runs in
// buffers kept from op to op.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "dataflow/cluster.h"
#include "net/network_model.h"
#include "ps/ps_master.h"
#include "serving/frontend.h"
#include "tests/common/alloc_counter.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

constexpr int kServers = 4;
constexpr uint64_t kDim = 64;
constexpr uint32_t kRows = 16;

class AllocGuardTest : public ::testing::Test {
 protected:
  AllocGuardTest() {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = kServers;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get());
    MatrixOptions options;
    options.dim = kDim;
    options.reserve_rows = kRows;
    matrix_ = *master_->CreateMatrix(options);
    for (uint32_t r = 0; r < kRows; ++r) {
      std::vector<double> values(kDim);
      for (uint64_t c = 0; c < kDim; ++c) values[c] = r * 1000.0 + c;
      EXPECT_TRUE(WriteRow(*client_, RowRef{matrix_, r}, values).ok());
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
  int matrix_ = -1;
  /// The ambient record ops charge into, as a task's or the serving
  /// driver's; reused, so merging into it allocates nothing.
  TaskTraffic ambient_;
};

TEST_F(AllocGuardTest, ServeBatchAllocatesOnlyItsResultsAndResponses) {
  ASSERT_TRUE(master_->serving_snapshots()->Publish().ok());
  ServingFrontend frontend(master_.get(), client_.get());
  ASSERT_TRUE(frontend.PinCurrentEpoch().ok());
  // Full-row and indexed requests, a duplicate row, overlapping keys and a
  // full row that absorbs an indexed request of the same row.
  auto req = [&](uint32_t row, std::vector<uint64_t> indices) {
    ServingRequest r;
    r.row = RowRef{matrix_, row};
    r.indices = std::move(indices);
    return r;
  };
  const std::vector<ServingRequest> batch = {
      req(3, {1, 9, 40}), req(7, {}),          req(3, {9, 12, 63}),
      req(11, {0, 17}),   req(7, {2, 5, 33}),  req(1, {}),
      req(11, {17, 48}),  req(14, {6, 22, 50}),
  };
  TrafficScope scope(&ambient_);
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(frontend.ServeBatch(batch).ok());
  }
  Result<std::vector<std::vector<double>>> served =
      std::vector<std::vector<double>>{};
  const uint64_t allocs =
      CountAllocs([&] { served = frontend.ServeBatch(batch); }).allocs;
  ASSERT_TRUE(served.ok());
  EXPECT_EQ((*served)[1].size(), kDim);
  EXPECT_EQ((*served)[0], (std::vector<double>{3001, 3009, 3040}));
  // The outer vector, one per request, and one response per server: the
  // full rows span every server.
  const uint64_t bound = 1 + batch.size() + kServers;
  EXPECT_LE(allocs, bound) << "a steady-state ServeBatch allocated " << allocs
                           << " times";
  std::printf("ServeBatch (8 requests, %d servers): %llu allocations\n",
              kServers, static_cast<unsigned long long>(allocs));
}

TEST_F(AllocGuardTest, ReadRowsIntoAReusedBlockAllocatesOnlyResponses) {
  const std::vector<RowRef> rows = {
      {matrix_, 0}, {matrix_, 2}, {matrix_, 4}, {matrix_, 6},
      {matrix_, 8}, {matrix_, 10}, {matrix_, 12}, {matrix_, 14}};
  const std::vector<uint64_t> indices = {1, 7, 20, 31, 44, 58};
  TrafficScope scope(&ambient_);
  for (const RowSelector& cols :
       {RowSelector::Range(), RowSelector::Indices(indices)}) {
    RowBlock block;
    for (int warm = 0; warm < 3; ++warm) {
      Result<RowBlock> read =
          client_->ReadRowsAsync(rows, cols, std::move(block)).Get();
      ASSERT_TRUE(read.ok());
      block = std::move(*read);
    }
    Result<RowBlock> read = RowBlock{};
    const uint64_t allocs = CountAllocs([&] {
      read = client_->ReadRowsAsync(rows, cols, std::move(block)).Get();
    }).allocs;
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->row(1)[0], cols.kind == RowSelectorKind::kRange
                                   ? 2000.0
                                   : 2001.0);
    // One request, so one response, per server.
    EXPECT_LE(allocs, static_cast<uint64_t>(kServers))
        << "a steady-state ReadRowsAsync allocated " << allocs << " times";
    std::printf("ReadRowsAsync (%s, 8 rows): %llu allocations\n",
                cols.kind == RowSelectorKind::kRange ? "range" : "indices",
                static_cast<unsigned long long>(allocs));
  }
}

}  // namespace
}  // namespace ps2
