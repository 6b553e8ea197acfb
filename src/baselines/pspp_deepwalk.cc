#include "baselines/pspp_deepwalk.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "data/graph_gen.h"
#include "dataflow/broadcast.h"
#include "ml/metrics.h"

// Baseline fidelity: each batch call is one blocking round
// (XAsync(...).Wait()/.Get() with nothing outstanding), which is exactly the
// traffic pattern this baseline models.

namespace ps2 {

Result<TrainReport> TrainDeepWalkPsPullPush(
    DcvContext* ctx, const Dataset<VertexPair>& pairs,
    const std::vector<double>& vertex_frequencies,
    const DeepWalkOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (vertex_frequencies.size() < options.num_vertices) {
    return Status::InvalidArgument(
        "vertex_frequencies must cover every vertex");
  }
  Cluster* cluster = ctx->cluster();
  const uint32_t v_count = options.num_vertices;
  const uint32_t k_dim = options.embedding_dim;

  PS2_ASSIGN_OR_RETURN(
      std::vector<Dcv> rows,
      ctx->DenseMatrix(k_dim, 2 * v_count, 0.5 / k_dim, options.seed,
                       "psdw.embeddings", options.num_servers));
  const int matrix_id = rows[0].ref().matrix_id;

  auto neg_table = std::make_shared<const AliasTable>(std::vector<double>(
      vertex_frequencies.begin(),
      vertex_frequencies.begin() + options.num_vertices));
  Broadcast<std::shared_ptr<const AliasTable>> bcast =
      BroadcastValue(cluster, neg_table,
                     static_cast<uint64_t>(v_count) * sizeof(double));

  PsClient* client = ctx->client();
  TrainReport report;
  report.system = "PS-DeepWalk";
  const SimTime t0 = cluster->clock().Now();
  const int negatives = options.negative_samples;
  const double lr = options.learning_rate;
  const uint32_t batch_size = options.batch_size;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<std::pair<double, uint64_t>> partials =
        pairs.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<VertexPair>& prows)
                -> std::pair<double, uint64_t> {
              const AliasTable& table = *bcast.value();
              double loss_sum = 0;
              uint64_t trained = 0;
              Rng rng = task.rng.Split(0xD33F + epoch);
              for (size_t start = 0; start < prows.size();
                   start += batch_size) {
                size_t end = std::min(prows.size(), start + batch_size);

                // Assemble (center, context, label) triples — identical
                // sampling stream to the PS2 trainer.
                struct Triple {
                  uint32_t u_row;
                  uint32_t c_row;
                  double label;
                };
                std::vector<Triple> triples;
                triples.reserve((end - start) * (1 + negatives));
                for (size_t i = start; i < end; ++i) {
                  const VertexPair& p = prows[i];
                  triples.push_back({p.u, v_count + p.v, 1.0});
                  for (int nk = 0; nk < negatives; ++nk) {
                    uint32_t n = table.Sample(&rng);
                    if (n == p.v) n = (n + 1) % v_count;
                    triples.push_back({p.u, v_count + n, 0.0});
                  }
                }

                // Pull every touched row (full K-dim vectors).
                std::vector<uint32_t> touched;
                touched.reserve(2 * triples.size());
                for (const Triple& t : triples) {
                  touched.push_back(t.u_row);
                  touched.push_back(t.c_row);
                }
                std::sort(touched.begin(), touched.end());
                touched.erase(std::unique(touched.begin(), touched.end()),
                              touched.end());
                std::vector<RowRef> refs;
                refs.reserve(touched.size());
                for (uint32_t r : touched) {
                  refs.push_back(RowRef{matrix_id, r});
                }
                Result<std::vector<std::vector<double>>> pulled =
                    client->ReadRowsAsync(refs, RowSelector::All()).Get();
                PS2_CHECK(pulled.ok()) << pulled.status();
                std::unordered_map<uint32_t, size_t> slot;
                slot.reserve(touched.size() * 2);
                for (size_t i = 0; i < touched.size(); ++i) {
                  slot.emplace(touched[i], i);
                }
                std::vector<std::vector<double>> local = std::move(*pulled);
                std::vector<std::vector<double>> delta(
                    touched.size(), std::vector<double>(k_dim, 0.0));

                // Local skip-gram updates on the pulled copies.
                for (const Triple& t : triples) {
                  std::vector<double>& u_vec = local[slot[t.u_row]];
                  std::vector<double>& c_vec = local[slot[t.c_row]];
                  double dot = 0;
                  for (uint32_t d = 0; d < k_dim; ++d) {
                    dot += u_vec[d] * c_vec[d];
                  }
                  loss_sum += LogisticLoss(dot, t.label);
                  double alpha = -lr * (Sigmoid(dot) - t.label);
                  std::vector<double>& u_delta = delta[slot[t.u_row]];
                  std::vector<double>& c_delta = delta[slot[t.c_row]];
                  for (uint32_t d = 0; d < k_dim; ++d) {
                    double u_old = u_vec[d];
                    u_vec[d] += alpha * c_vec[d];
                    u_delta[d] += alpha * c_vec[d];
                    c_vec[d] += alpha * u_old;
                    c_delta[d] += alpha * u_old;
                  }
                }
                task.AddWorkerOps(triples.size() * 6 * k_dim);

                // Push the accumulated deltas back.
                PS2_CHECK_OK(client->WriteRowsAsync(refs, delta,
                                                    RowSelector::All()).Wait());
                trained += end - start;
              }
              return {loss_sum, trained * (1 + negatives)};
            });

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    if (count == 0) continue;
    TrainPoint point;
    point.iteration = epoch;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  return report;
}

}  // namespace ps2
