// Relocation hysteresis under message faults (DESIGN.md §13): a key whose
// dominant accessor oscillates between two workers must relocate at most
// once per hysteresis window — two workers fighting over a key cannot make
// it thrash across the wire — and every move must preserve the key's values
// exactly, even with the message layer dropping packets.

#include <gtest/gtest.h>

#include "dcv/dcv_context.h"
#include "hotspot/param_mgmt.h"
#include "membership/membership_manager.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "tests/ps/ps_test_util.h"

namespace ps2 {
namespace {

class ParamMgmtFaultsTest : public ::testing::Test {
 protected:
  void Build(double message_failure_prob) {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 2;
    spec.colocate_workers = true;
    spec.message_failure_prob = message_failure_prob;
    spec.seed = 17;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  PsMaster* master() { return ctx_->master(); }
  PsClient* client() { return ctx_->client(); }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(ParamMgmtFaultsTest, OscillatingAccessorRelocatesOncePerWindow) {
  Build(/*message_failure_prob=*/0.05);

  MatrixOptions mo;
  mo.name = "contested";
  mo.dim = 16;
  mo.reserve_rows = 2;
  mo.home_server = 0;
  Result<int> id = master()->CreateMatrix(mo);
  ASSERT_TRUE(id.ok());
  std::vector<double> values(16);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.25 * static_cast<double>(i) - 1.0;
  }
  ASSERT_TRUE(
      client()->WriteRowsAsync({RowRef{*id, 0}}, {values},
                               RowSelector::All()).Wait().ok());

  ParamMgmtOptions options;
  options.mode = ParamMgmtMode::kNups;
  options.hot_k = 0;  // no hot tier: relocation is the only lever
  options.warm_k = 4;
  options.dominance = 0.55;
  options.min_count = 1;
  options.hysteresis_ticks = 4;
  ParamMgmtManager mgmt(master(), options);
  ASSERT_TRUE(mgmt.Enable().ok());
  ASSERT_TRUE(mgmt.RegisterKey(0, *id, 2).ok());

  // Each tick the OTHER executor hammers the key. Fresh counts always beat
  // the decayed half from last window, so without hysteresis the dominant
  // accessor — and the relocation target — would flip every single tick.
  const int ticks = 12;
  for (int t = 0; t < ticks; ++t) {
    mgmt.RecordBatch(/*executor=*/t % 2, {{0, 100}});
    ASSERT_TRUE(mgmt.Tick().ok());
    // Never more moves than completed hysteresis windows (+1 for the
    // unconstrained first move).
    EXPECT_LE(mgmt.relocations(),
              1 + static_cast<uint64_t>(t) /
                      static_cast<uint64_t>(options.hysteresis_ticks))
        << "thrash at tick " << t;
  }
  // The key did move (the policy is live), but far fewer times than the 12
  // flips a hysteresis-free classifier would execute.
  EXPECT_GE(mgmt.relocations(), 1u);
  EXPECT_LE(mgmt.relocations(),
            static_cast<uint64_t>(ticks / options.hysteresis_ticks));

  // Values survived every migration bit-exactly despite message faults.
  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), {RowRef{*id, 0}}, RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  EXPECT_EQ((*pulled)[0], values);
}

TEST_F(ParamMgmtFaultsTest, RelocationStormUnderFaultsStaysConsistent) {
  Build(/*message_failure_prob=*/0.08);

  // Eight contested keys, each oscillating out of phase.
  const int kKeys = 8;
  std::vector<int> ids;
  std::vector<std::vector<double>> values(kKeys, std::vector<double>(8));
  for (int k = 0; k < kKeys; ++k) {
    MatrixOptions mo;
    mo.name = "key" + std::to_string(k);
    mo.dim = 8;
    mo.reserve_rows = 2;
    mo.home_server = k % 2;
    Result<int> id = master()->CreateMatrix(mo);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    for (size_t i = 0; i < 8; ++i) {
      values[k][i] = static_cast<double>(k) + 0.125 * static_cast<double>(i);
    }
    ASSERT_TRUE(client()
                    ->WriteRowsAsync({RowRef{*id, 0}}, {values[k]},
                                     RowSelector::All())
                    .Wait()
                    .ok());
  }

  ParamMgmtOptions options;
  options.mode = ParamMgmtMode::kNups;
  options.hot_k = 0;
  options.warm_k = kKeys;
  options.dominance = 0.55;
  options.min_count = 1;
  options.hysteresis_ticks = 3;
  ParamMgmtManager mgmt(master(), options);
  ASSERT_TRUE(mgmt.Enable().ok());
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(mgmt.RegisterKey(k, ids[k], 2).ok());
  }

  for (int t = 0; t < 9; ++t) {
    for (int k = 0; k < kKeys; ++k) {
      mgmt.RecordBatch(/*executor=*/(t + k) % 2, {{k, 50}});
    }
    ASSERT_TRUE(mgmt.Tick().ok());
  }
  EXPECT_GE(mgmt.relocations(), static_cast<uint64_t>(kKeys) / 2);

  std::vector<RowRef> refs;
  for (int k = 0; k < kKeys; ++k) refs.push_back(RowRef{ids[k], 0});
  Result<std::vector<std::vector<double>>> pulled =
      ReadRows(*client(), refs, RowSelector::All());
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ((*pulled)[k], values[k]) << "key " << k;
  }
}

}  // namespace
}  // namespace ps2
