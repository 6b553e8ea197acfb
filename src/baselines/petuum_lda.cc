#include "baselines/petuum_lda.h"

#include "common/logging.h"
#include "ml/lda/gibbs_sampler.h"

// Baseline fidelity: each batch call is one blocking round
// (XAsync(...).Wait()/.Get() with nothing outstanding), which is exactly the
// traffic pattern this baseline models.

namespace ps2 {

Result<TrainReport> TrainLdaPetuum(DcvContext* ctx,
                                   const Dataset<Document>& docs,
                                   const LdaOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  Cluster* cluster = ctx->cluster();
  const uint32_t k_topics = options.num_topics;

  PS2_ASSIGN_OR_RETURN(
      std::vector<Dcv> topic_rows,
      ctx->DenseMatrix(options.vocab_size, k_topics, 0.0, 0,
                       "petuum.word_topic"));
  PS2_ASSIGN_OR_RETURN(Dcv topic_totals,
                       ctx->Dense(k_topics, 2, 1, 0, "petuum.topic_totals"));
  std::vector<RowRef> topic_refs;
  for (const Dcv& row : topic_rows) topic_refs.push_back(row.ref());

  const size_t num_partitions = docs.num_partitions();
  std::vector<LdaPartitionState> states(num_partitions);
  PsClient* client = ctx->client();

  TrainReport report;
  report.system = "Petuum-LDA";
  const SimTime t0 = cluster->clock().Now();

  docs.ForeachPartition([&](TaskContext& task,
                            const std::vector<Document>& rows) {
    LdaPartitionState& state = states[task.task_id];
    Rng rng = task.rng.Split(0x1DA0);
    state.Initialize(rows, options, &rng);
    task.AddWorkerOps(state.total_tokens() * 4);
    // Initial counts still push sparsely (they are per-worker deltas) but
    // WITHOUT PS2's count compression.
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
              if (state.local_vocab().empty()) return {0.0, 0};

              // Petuum behaviour: pull EVERY topic row in full.
              Result<std::vector<std::vector<double>>> full =
                  client->ReadRowsAsync(topic_refs, RowSelector::All()).Get();
              PS2_CHECK(full.ok()) << full.status();
              Result<std::vector<double>> nt = topic_totals.Pull();
              PS2_CHECK(nt.ok()) << nt.status();

              // Project onto the partition's local vocabulary for the
              // shared sweep kernel.
              const auto& vocab = state.local_vocab();
              std::vector<std::vector<double>> nwt_local(
                  k_topics, std::vector<double>(vocab.size()));
              for (uint32_t k = 0; k < k_topics; ++k) {
                for (size_t j = 0; j < vocab.size(); ++j) {
                  nwt_local[k][j] = (*full)[k][vocab[j]];
                }
              }
              task.AddWorkerOps(k_topics * vocab.size());

              Rng rng = task.rng.Split(0x1DA1 + iter);
              LdaPartitionState::SweepResult sweep =
                  state.Sweep(options, &nwt_local, &*nt, &rng);
              task.AddWorkerOps(sweep.tokens * (4 * k_topics + 8));

              PS2_CHECK_OK(
                  client->WriteRowsAsync(topic_refs, sweep.topic_deltas)
                      .Wait());
              PS2_CHECK_OK(topic_totals.Push(sweep.topic_total_deltas));
              return {sweep.loglik_sum, sweep.tokens};
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
