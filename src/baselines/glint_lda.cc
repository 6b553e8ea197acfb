#include "baselines/glint_lda.h"

#include <algorithm>

#include "common/logging.h"
#include "ml/lda/gibbs_sampler.h"

// Baseline fidelity: each batch call is one blocking round
// (XAsync(...).Wait()/.Get() with nothing outstanding), which is exactly the
// traffic pattern this baseline models.

namespace ps2 {

Result<TrainReport> TrainLdaGlint(DcvContext* ctx,
                                  const Dataset<Document>& docs,
                                  const LdaOptions& options,
                                  size_t docs_per_batch) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (docs_per_batch == 0) {
    return Status::InvalidArgument("docs_per_batch must be positive");
  }
  Cluster* cluster = ctx->cluster();
  const uint32_t k_topics = options.num_topics;

  PS2_ASSIGN_OR_RETURN(
      std::vector<Dcv> topic_rows,
      ctx->DenseMatrix(options.vocab_size, k_topics, 0.0, 0,
                       "glint.word_topic"));
  PS2_ASSIGN_OR_RETURN(Dcv topic_totals,
                       ctx->Dense(k_topics, 2, 1, 0, "glint.topic_totals"));
  std::vector<RowRef> topic_refs;
  for (const Dcv& row : topic_rows) topic_refs.push_back(row.ref());

  const size_t num_partitions = docs.num_partitions();
  std::vector<LdaPartitionState> states(num_partitions);
  PsClient* client = ctx->client();

  TrainReport report;
  report.system = "Glint-LDA";
  const SimTime t0 = cluster->clock().Now();

  docs.ForeachPartition([&](TaskContext& task,
                            const std::vector<Document>& rows) {
    LdaPartitionState& state = states[task.task_id];
    Rng rng = task.rng.Split(0x1DA0);
    state.Initialize(rows, options, &rng);
    task.AddWorkerOps(state.total_tokens() * 4);
    PS2_CHECK_OK(
        client->WriteRowsAsync(topic_refs, state.InitialTopicCounts(options))
            .Wait());
    PS2_CHECK_OK(topic_totals.Push(state.InitialTopicTotals(options)));
  });

  for (int iter = 0; iter < options.iterations; ++iter) {
    std::vector<std::pair<double, uint64_t>> partials =
        docs.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Document>&)
                -> std::pair<double, uint64_t> {
              LdaPartitionState& state = states[task.task_id];
              const auto& vocab = state.local_vocab();
              if (vocab.empty()) return {0.0, 0};
              Rng rng = task.rng.Split(0x1DA1 + iter);

              // Partition-wide count buffer; every batch refreshes the
              // columns of its own words just before sampling them.
              std::vector<std::vector<double>> nwt_local(
                  k_topics, std::vector<double>(vocab.size(), 0.0));
              double loglik = 0;
              uint64_t tokens = 0;
              for (size_t doc_begin = 0; doc_begin < state.num_docs();
                   doc_begin += docs_per_batch) {
                size_t doc_end =
                    std::min(state.num_docs(), doc_begin + docs_per_batch);
                std::vector<size_t> batch_words =
                    state.DocRangeLocalWords(doc_begin, doc_end);
                std::vector<uint64_t> batch_vocab;
                batch_vocab.reserve(batch_words.size());
                for (size_t j : batch_words) {
                  batch_vocab.push_back(vocab[j]);
                }
                // Per-batch pull: the Glint redundancy (hot words re-pulled
                // every batch), uncompressed.
                Result<std::vector<std::vector<double>>> pulled =
                    client
                        ->ReadRowsAsync(topic_refs,
                                        RowSelector::Indices(batch_vocab))
                        .Get();
                PS2_CHECK(pulled.ok()) << pulled.status();
                Result<std::vector<double>> nt = topic_totals.Pull();
                PS2_CHECK(nt.ok()) << nt.status();
                for (uint32_t k = 0; k < k_topics; ++k) {
                  for (size_t b = 0; b < batch_words.size(); ++b) {
                    nwt_local[k][batch_words[b]] = (*pulled)[k][b];
                  }
                }
                LdaPartitionState::SweepResult sweep = state.Sweep(
                    options, &nwt_local, &*nt, &rng, doc_begin, doc_end);
                task.AddWorkerOps(sweep.tokens * (4 * k_topics + 8));
                PS2_CHECK_OK(
                    client->WriteRowsAsync(topic_refs, sweep.topic_deltas)
                        .Wait());
                PS2_CHECK_OK(topic_totals.Push(sweep.topic_total_deltas));
                loglik += sweep.loglik_sum;
                tokens += sweep.tokens;
              }
              return {loglik, tokens};
            });

    double loglik = 0;
    uint64_t tokens = 0;
    for (const auto& [l, c] : partials) {
      loglik += l;
      tokens += c;
    }
    if (tokens == 0) continue;
    TrainPoint point;
    point.iteration = iter;
    point.time = cluster->clock().Now() - t0;
    point.loss = -loglik / static_cast<double>(tokens);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  return report;
}

}  // namespace ps2
