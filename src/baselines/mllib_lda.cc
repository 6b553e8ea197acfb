#include "baselines/mllib_lda.h"

#include <memory>

#include "common/logging.h"
#include "dataflow/broadcast.h"
#include "ml/lda/gibbs_sampler.h"

namespace ps2 {

namespace {
// "We compare PS2 with Spark MLlib for K=100 since Spark MLlib runs out of
// memory for a large value" (paper Fig. 12 caption).
constexpr uint32_t kMllibMaxTopics = 200;
}  // namespace

Result<TrainReport> TrainLdaMllib(Cluster* cluster,
                                  const Dataset<Document>& docs,
                                  const LdaOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (options.num_topics > kMllibMaxTopics) {
    return Status::Unavailable(
        "Spark MLlib runs out of memory for large topic counts (reproducing "
        "the paper's observed OOM)");
  }
  const uint32_t k_topics = options.num_topics;
  const uint32_t vocab = options.vocab_size;

  // Driver-resident model.
  auto nwt = std::make_shared<std::vector<std::vector<double>>>(
      k_topics, std::vector<double>(vocab, 0.0));
  std::vector<double> nt(k_topics, 0.0);

  const size_t num_partitions = docs.num_partitions();
  std::vector<LdaPartitionState> states(num_partitions);

  TrainReport report;
  report.system = "SparkMLlib-LDA";
  const SimTime t0 = cluster->clock().Now();

  // Initialization: counts gathered at the driver.
  {
    std::vector<std::pair<std::vector<SparseVector>, std::vector<double>>>
        initial = docs.MapPartitionsCollect<
            std::pair<std::vector<SparseVector>, std::vector<double>>>(
            [&](TaskContext& task, const std::vector<Document>& rows) {
              LdaPartitionState& state = states[task.task_id];
              Rng rng = task.rng.Split(0x1DA0);
              state.Initialize(rows, options, &rng);
              task.AddWorkerOps(state.total_tokens() * 4);
              return std::make_pair(state.InitialTopicCounts(options),
                                    state.InitialTopicTotals(options));
            });
    uint64_t gathered = 0;
    for (const auto& [topic_counts, totals] : initial) {
      for (uint32_t k = 0; k < k_topics; ++k) {
        topic_counts[k].AxpyInto(&(*nwt)[k], 1.0);
        gathered += topic_counts[k].SerializedBytes();
        nt[k] += totals[k];
      }
    }
    cluster->AdvanceClock(cluster->cost().GatherAtOne(
        static_cast<int>(num_partitions),
        gathered / std::max<size_t>(1, num_partitions)));
  }

  const uint64_t dense_matrix_bytes =
      static_cast<uint64_t>(k_topics) * vocab * 8;

  for (int iter = 0; iter < options.iterations; ++iter) {
    // (1) Broadcast the dense model.
    Broadcast<std::shared_ptr<const std::vector<std::vector<double>>>> bcast =
        BroadcastValue(
            cluster,
            std::shared_ptr<const std::vector<std::vector<double>>>(
                std::make_shared<std::vector<std::vector<double>>>(*nwt)),
            dense_matrix_bytes);
    Broadcast<std::vector<double>> bcast_nt =
        BroadcastValue(cluster, nt, k_topics * 8);

    // (2) Sweep on executors against the broadcast copy.
    std::vector<std::tuple<double, uint64_t,
                           std::vector<SparseVector>, std::vector<double>>>
        partials = docs.MapPartitionsCollect<
            std::tuple<double, uint64_t, std::vector<SparseVector>,
                       std::vector<double>>>(
            [&](TaskContext& task, const std::vector<Document>&) {
              LdaPartitionState& state = states[task.task_id];
              const auto& vocab_ids = state.local_vocab();
              RowBlock nwt_local = RowBlock::Zeros(k_topics, vocab_ids.size());
              const auto& global = *bcast.value();
              for (uint32_t k = 0; k < k_topics; ++k) {
                for (size_t j = 0; j < vocab_ids.size(); ++j) {
                  nwt_local.row(k)[j] = global[k][vocab_ids[j]];
                }
              }
              std::vector<double> nt_local = bcast_nt.value();
              Rng rng = task.rng.Split(0x1DA1 + iter);
              LdaPartitionState::SweepResult sweep =
                  state.Sweep(options, &nwt_local, nt_local.data(), &rng);
              task.AddWorkerOps(sweep.tokens * (4 * k_topics + 8) +
                                k_topics * vocab_ids.size());
              return std::make_tuple(sweep.loglik_sum, sweep.tokens,
                                     std::move(sweep.topic_deltas),
                                     std::move(sweep.topic_total_deltas));
            });

    // (3) Gather every executor's count-delta matrix at the driver. MLlib's
    // EM accumulator is dense (vocab x topics per executor) — the
    // single-node pattern behind its 17x deficit.
    double loglik = 0;
    uint64_t tokens = 0;
    for (auto& [l, c, deltas, totals] : partials) {
      loglik += l;
      tokens += c;
      for (uint32_t k = 0; k < k_topics; ++k) {
        deltas[k].AxpyInto(&(*nwt)[k], 1.0);
        nt[k] += totals[k];
      }
    }
    cluster->AdvanceClock(cluster->cost().GatherAtOne(
        static_cast<int>(num_partitions), dense_matrix_bytes));
    cluster->ChargeDriver(cluster->cost().DriverCompute(
        num_partitions * static_cast<uint64_t>(k_topics) * vocab / 4));

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
