#include "ml/lda/lda_trainer.h"

#include <gtest/gtest.h>

#include "baselines/glint_lda.h"
#include "baselines/mllib_lda.h"
#include "baselines/petuum_lda.h"
#include "data/corpus_gen.h"
#include "ml/lda/gibbs_sampler.h"

namespace ps2 {
namespace {

CorpusSpec SmallCorpus() {
  CorpusSpec spec;
  spec.num_docs = 800;
  spec.vocab_size = 2000;
  spec.true_topics = 8;
  spec.avg_doc_length = 50;
  return spec;
}

LdaOptions SmallOptions() {
  LdaOptions options;
  options.vocab_size = SmallCorpus().vocab_size;
  options.num_topics = 16;
  options.iterations = 8;
  return options;
}

TEST(LdaOptionsTest, Validation) {
  LdaOptions options;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // vocab unset
  options.vocab_size = 100;
  EXPECT_TRUE(options.Validate().ok());
  options.alpha = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(GibbsSamplerTest, InitializePreservesTokensAndCounts) {
  std::vector<Document> docs(3);
  docs[0].tokens = {1, 2, 3};
  docs[1].tokens = {2, 2};
  docs[2].tokens = {9};
  LdaOptions options;
  options.vocab_size = 10;
  options.num_topics = 4;
  LdaPartitionState state;
  Rng rng(1);
  state.Initialize(docs, options, &rng);
  EXPECT_EQ(state.total_tokens(), 6u);
  EXPECT_EQ(state.local_vocab(), (std::vector<uint64_t>{1, 2, 3, 9}));
  std::vector<double> totals = state.InitialTopicTotals(options);
  double total = 0;
  for (double t : totals) total += t;
  EXPECT_EQ(total, 6.0);
  // Initial word-topic counts sum to token count too.
  double count_sum = 0;
  for (const SparseVector& v : state.InitialTopicCounts(options)) {
    for (double x : v.values()) count_sum += x;
  }
  EXPECT_EQ(count_sum, 6.0);
}

TEST(GibbsSamplerTest, SweepConservesCounts) {
  std::vector<Document> docs(5);
  Rng doc_rng(2);
  for (auto& d : docs) {
    for (int i = 0; i < 20; ++i) {
      d.tokens.push_back(static_cast<uint32_t>(doc_rng.NextUint64(50)));
    }
  }
  LdaOptions options;
  options.vocab_size = 50;
  options.num_topics = 4;
  LdaPartitionState state;
  Rng rng(3);
  state.Initialize(docs, options, &rng);

  // Build the "global" counts from this single partition.
  const auto& vocab = state.local_vocab();
  RowBlock nwt = RowBlock::Zeros(options.num_topics, vocab.size());
  std::vector<SparseVector> init = state.InitialTopicCounts(options);
  for (uint32_t k = 0; k < options.num_topics; ++k) {
    for (size_t j = 0; j < vocab.size(); ++j) {
      nwt.row(k)[j] = init[k].Get(vocab[j]);
    }
  }
  std::vector<double> nt = state.InitialTopicTotals(options);

  LdaPartitionState::SweepResult sweep =
      state.Sweep(options, &nwt, nt.data(), &rng);
  EXPECT_EQ(sweep.tokens, 100u);

  // Totals conserved: sum nt unchanged, deltas sum to zero.
  double nt_total = 0;
  for (double t : nt) nt_total += t;
  EXPECT_DOUBLE_EQ(nt_total, 100.0);
  double delta_sum = 0;
  for (const SparseVector& d : sweep.topic_deltas) {
    for (double v : d.values()) delta_sum += v;
  }
  EXPECT_NEAR(delta_sum, 0.0, 1e-9);
  double total_delta_sum = 0;
  for (double v : sweep.topic_total_deltas) total_delta_sum += v;
  EXPECT_NEAR(total_delta_sum, 0.0, 1e-9);

  // All local counts stay non-negative.
  for (double v : nwt.values) EXPECT_GE(v, 0.0);
  EXPECT_TRUE(std::isfinite(sweep.loglik_sum));
}

TEST(GibbsSamplerTest, DocRangeLocalWordsSubset) {
  std::vector<Document> docs(2);
  docs[0].tokens = {5, 7};
  docs[1].tokens = {7, 9};
  LdaOptions options;
  options.vocab_size = 10;
  options.num_topics = 2;
  LdaPartitionState state;
  Rng rng(4);
  state.Initialize(docs, options, &rng);
  // local vocab = {5,7,9} -> local indices {0,1,2}
  EXPECT_EQ(state.DocRangeLocalWords(0, 1), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(state.DocRangeLocalWords(1, 2), (std::vector<size_t>{1, 2}));
}

class LdaTrainTest : public ::testing::Test {
 protected:
  LdaTrainTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    docs_ = MakeCorpusDataset(cluster_.get(), SmallCorpus()).Cache();
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  std::unique_ptr<Cluster> cluster_;
  Dataset<Document> docs_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(LdaTrainTest, Ps2LogLikelihoodImproves) {
  TrainReport report = *TrainLdaPs2(ctx_.get(), docs_, SmallOptions());
  EXPECT_EQ(report.system, "PS2-LDA");
  ASSERT_EQ(report.curve.size(), 8u);
  EXPECT_LT(report.final_loss, report.curve.front().loss);
}

TEST_F(LdaTrainTest, PetuumMatchesStatistically) {
  // Within-iteration count freshness is scheduling-dependent (like a real
  // async PS), so trajectories are only statistically comparable.
  TrainReport ps2 = *TrainLdaPs2(ctx_.get(), docs_, SmallOptions());
  DcvContext fresh(cluster_.get());
  TrainReport petuum = *TrainLdaPetuum(&fresh, docs_, SmallOptions());
  EXPECT_LT(ps2.final_loss, ps2.curve.front().loss);
  EXPECT_LT(petuum.final_loss, petuum.curve.front().loss);
  EXPECT_NEAR(ps2.final_loss, petuum.final_loss, 0.3);
  EXPECT_GT(petuum.total_time, ps2.total_time);  // dense pulls cost more
}

TEST_F(LdaTrainTest, GlintConvergesButSlowest) {
  DcvContext fresh(cluster_.get());
  TrainReport glint = *TrainLdaGlint(&fresh, docs_, SmallOptions(), 20);
  EXPECT_LT(glint.final_loss, glint.curve.front().loss);
}

TEST_F(LdaTrainTest, MllibConverges) {
  TrainReport mllib = *TrainLdaMllib(cluster_.get(), docs_, SmallOptions());
  EXPECT_LT(mllib.final_loss, mllib.curve.front().loss);
}

TEST_F(LdaTrainTest, MllibOomsOnLargeTopicCount) {
  LdaOptions options = SmallOptions();
  options.num_topics = 1000;
  EXPECT_TRUE(TrainLdaMllib(cluster_.get(), docs_, options)
                  .status()
                  .IsUnavailable());
}

TEST_F(LdaTrainTest, CompressionAndSparsityReduceTraffic) {
  cluster_->metrics().Reset();
  ASSERT_TRUE(TrainLdaPs2(ctx_.get(), docs_, SmallOptions()).ok());
  uint64_t ps2_bytes = cluster_->metrics().Get("net.bytes_worker_to_server") +
                       cluster_->metrics().Get("net.bytes_server_to_worker");
  cluster_->metrics().Reset();
  DcvContext fresh(cluster_.get());
  ASSERT_TRUE(TrainLdaPetuum(&fresh, docs_, SmallOptions()).ok());
  uint64_t petuum_bytes =
      cluster_->metrics().Get("net.bytes_worker_to_server") +
      cluster_->metrics().Get("net.bytes_server_to_worker");
  EXPECT_GT(petuum_bytes, 2 * ps2_bytes);
}

}  // namespace
}  // namespace ps2
