// Wire-level filter pipeline, end to end (DESIGN.md §9): filters-on runs
// produce the same parameters as filters-off (bit-exact without delta,
// within quantization tolerance with it), wire bytes undercut logical bytes
// on sparse workloads, the key-cache miss protocol survives server
// recovery, duplicate delivery composes with the PR-3 dedup table, and the
// filters-off hot path performs zero hidden deep copies.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/slice.h"
#include "dataflow/cluster.h"
#include "linalg/sparse_vector.h"
#include "net/filter_config.h"
#include "net/filters.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "ps/ps_server.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

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

  uint64_t Metric(const char* name) const {
    return cluster->metrics().Get(name);
  }
};

ClusterSpec SpecWithFilters(const char* filters, int servers = 2) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = servers;
  spec.filters = *FilterConfig::Parse(filters);
  return spec;
}

std::vector<uint64_t> EveryThird(uint64_t dim) {
  std::vector<uint64_t> indices;
  for (uint64_t i = 0; i < dim; i += 3) indices.push_back(i);
  return indices;
}

TEST(PsFilterTest, LosslessFiltersAreBitExactEndToEnd) {
  // keycache + compress never alter payload bytes, so a filtered run must
  // land on bit-identical parameters and metrics-visible traffic savings.
  auto run = [](const char* filters) {
    Fixture f(SpecWithFilters(filters));
    std::vector<double> delta(60);
    for (int i = 0; i < 60; ++i) delta[i] = 0.125 * i - 3.0;
    for (int round = 0; round < 5; ++round) {
      EXPECT_TRUE(WriteRow(*f.client, f.weight, delta).ok());
      EXPECT_TRUE(ReadRow(*f.client, f.weight,
                          RowSelector::Indices(EveryThird(60))).ok());
    }
    return *ReadRow(*f.client, f.weight);
  };
  EXPECT_EQ(run("off"), run("keycache,compress"));
}

TEST(PsFilterTest, WireBytesUndercutLogicalBytesOnSparseWorkload) {
  // Repeated identical sparse pulls: the key list is large enough for an
  // optimistic install on the first request, later ones ref it; responses
  // compress. The acceptance bar is a >= 2x reduction of wire vs logical
  // bytes.
  Fixture f(SpecWithFilters("keycache,delta,compress", 1), {}, 6000);
  const std::vector<uint64_t> indices = EveryThird(6000);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(ReadRow(*f.client, f.weight,
                        RowSelector::Indices(indices)).ok());
  }
  const uint64_t wire = f.Metric("net.bytes_wire");
  const uint64_t logical = f.Metric("net.bytes_logical");
  ASSERT_GT(logical, 0u);
  EXPECT_LT(wire, logical);
  EXPECT_GE(logical, 2 * wire) << "wire=" << wire << " logical=" << logical;
  EXPECT_GE(f.Metric("ps.keycache_installs"), 1u);
  EXPECT_GE(f.Metric("ps.keycache_hits"), 7u);  // rounds 2..8 ref the cache
  EXPECT_EQ(f.Metric("ps.keycache_misses"), 0u);

  // Filters off on the same workload: wire bytes equal logical bytes.
  Fixture off(SpecWithFilters("off", 1), {}, 6000);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(ReadRow(*off.client, off.weight,
                        RowSelector::Indices(indices)).ok());
  }
  EXPECT_EQ(off.Metric("net.bytes_wire"), off.Metric("net.bytes_logical"));
}

TEST(PsFilterTest, FilteredTrafficIsDeterministic) {
  auto run = [] {
    Fixture f(SpecWithFilters("keycache,delta,compress"));
    for (int round = 0; round < 4; ++round) {
      EXPECT_TRUE(
          WriteRow(*f.client, f.weight, std::vector<double>(60, 0.5)).ok());
      EXPECT_TRUE(ReadRow(*f.client, f.weight,
                          RowSelector::Indices(EveryThird(60))).ok());
    }
    return std::make_pair(f.Metric("net.bytes_wire"),
                          f.Metric("net.bytes_logical"));
  };
  EXPECT_EQ(run(), run());
}

TEST(PsFilterTest, DeltaQuantErrorIsBoundedEndToEnd) {
  // One push through the delta filter, one pull back through it: at most
  // one half-step of error per direction.
  Fixture f(SpecWithFilters("delta"));
  std::vector<double> delta(60);
  double max_abs = 0;
  for (int i = 0; i < 60; ++i) {
    delta[i] = std::sin(0.37 * i) * 4.0;
    max_abs = std::max(max_abs, std::fabs(delta[i]));
  }
  ASSERT_TRUE(WriteRow(*f.client, f.weight, delta).ok());
  std::vector<double> pulled = *ReadRow(*f.client, f.weight);
  const double step = max_abs / 32767.0;
  for (int i = 0; i < 60; ++i) {
    EXPECT_NEAR(pulled[i], delta[i], 1.01 * step) << "index " << i;
  }
}

TEST(PsFilterTest, ClientOptionsOverrideClusterFilterConfig) {
  // The cluster default is off; the client opts in for its own requests.
  ClusterSpec spec = SpecWithFilters("off");
  PsClientOptions options;
  options.filters = *FilterConfig::Parse("keycache,compress");
  Fixture f(spec, options);
  const std::vector<uint64_t> indices = EveryThird(60);
  ASSERT_TRUE(ReadRow(*f.client, f.weight,
                      RowSelector::Indices(indices)).ok());  // sighted
  ASSERT_TRUE(ReadRow(*f.client, f.weight,
                      RowSelector::Indices(indices)).ok());  // installed
  ASSERT_TRUE(ReadRow(*f.client, f.weight,
                      RowSelector::Indices(indices)).ok());  // ref
  EXPECT_GE(f.Metric("ps.keycache_installs"), 1u);
  EXPECT_GE(f.Metric("ps.keycache_hits"), 1u);
}

TEST(PsFilterTest, KeyCacheMissProtocolSurvivesServerRecovery) {
  // A recovered server forgets its key cache (DropAllState). The client
  // still refs the old install; the server answers with the miss status and
  // the client transparently re-installs and retries the same seq.
  Fixture f(SpecWithFilters("keycache,compress", 1));
  const std::vector<uint64_t> indices = EveryThird(60);
  std::vector<double> delta(60);
  for (int i = 0; i < 60; ++i) delta[i] = 1.0 + i;
  ASSERT_TRUE(WriteRow(*f.client, f.weight, delta).ok());
  ASSERT_TRUE(ReadRow(*f.client, f.weight,
                      RowSelector::Indices(indices)).ok());  // sighted
  ASSERT_TRUE(ReadRow(*f.client, f.weight,
                      RowSelector::Indices(indices)).ok());  // install
  ASSERT_TRUE(ReadRow(*f.client, f.weight,
                      RowSelector::Indices(indices)).ok());  // ref
  EXPECT_GE(f.Metric("ps.keycache_hits"), 1u);
  EXPECT_EQ(f.Metric("ps.keycache_misses"), 0u);

  ASSERT_TRUE(f.master->CheckpointAll().ok());
  ASSERT_TRUE(f.master->KillAndRecoverServer(0).ok());

  Result<std::vector<double>> pulled =
      ReadRow(*f.client, f.weight, RowSelector::Indices(indices));
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  EXPECT_GE(f.Metric("ps.keycache_misses"), 1u);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_DOUBLE_EQ((*pulled)[i], delta[indices[i]]);
  }
  // After the forced re-install the cache works again, without new misses.
  const uint64_t misses = f.Metric("ps.keycache_misses");
  ASSERT_TRUE(ReadRow(*f.client, f.weight, RowSelector::Indices(indices)).ok());
  EXPECT_EQ(f.Metric("ps.keycache_misses"), misses);
}

TEST(PsFilterTest, KeyCacheKeepsWorkingPastItsCapacity) {
  // More distinct key lists than the server's key cache holds, each pulled
  // (an install: the list is long enough for one on first sighting) and then
  // pushed (a ref to that install). A full cache evicts its oldest entry, so
  // the newest install always lands and no ref misses — a cache that dropped
  // installs once full would answer every ref after the cap with a miss.
  Fixture f(SpecWithFilters("keycache", 1), {}, 8192);
  constexpr size_t kLists = ServerKeyCache::kMaxEntries + 64;
  for (size_t k = 0; k < kLists; ++k) {
    std::vector<uint64_t> keys;
    for (uint64_t j = 0; j < 30; ++j) keys.push_back(k + 2 * j);
    ASSERT_TRUE(ReadRow(*f.client, f.weight,
                        RowSelector::Indices(keys)).ok()) << k;
    ASSERT_TRUE(
        f.client->PushSparse(f.weight, SparseVector(keys, std::vector<double>(
                                                              30, 0.5)))
            .ok())
        << k;
  }
  EXPECT_EQ(f.Metric("ps.keycache_misses"), 0u);
  EXPECT_GE(f.Metric("ps.keycache_hits"), kLists);
}

TEST(PsFilterTest, DuplicateDeliveryComposesWithDedup) {
  // PR-3 message faults + the filter pipeline: retried requests replay the
  // SAME wire bytes (same encode decisions at stamp time), the server
  // consults dedup before decoding, and installs are idempotent — so
  // mutations still apply exactly once. Uses the bit-exact mask (no delta)
  // so the final parameters can be compared exactly.
  auto run = [](const char* filters) {
    ClusterSpec spec = SpecWithFilters(filters, 3);
    spec.message_failure_prob = 0.1;
    spec.seed = 17;
    Fixture f(spec);
    const int n = 50;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(
          WriteRow(*f.client, f.weight, std::vector<double>(60, 1.0)).ok());
      EXPECT_TRUE(ReadRow(*f.client, f.weight,
                          RowSelector::Indices(EveryThird(60))).ok());
    }
    std::vector<double> pulled = *ReadRow(*f.client, f.weight);
    for (double v : pulled) EXPECT_DOUBLE_EQ(v, static_cast<double>(n));
    return std::make_pair(pulled, f.Metric("ps.dedup_hits"));
  };
  auto filtered = run("keycache,compress");
  EXPECT_GT(filtered.second, 0u) << "faults never exercised the dedup table";
  auto plain = run("off");
  EXPECT_EQ(filtered.first, plain.first);  // bit-equal parameters
}

}  // namespace
}  // namespace ps2
