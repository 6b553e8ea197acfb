#include "ml/word2vec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "data/graph_gen.h"
#include "dataflow/broadcast.h"
#include "linalg/kernels/kernels.h"
#include "ml/metrics.h"

namespace ps2 {

namespace {

/// One batch of skip-gram tasks over deduplicated row pulls.
struct W2vBatch {
  /// (center index into refs, context index into refs, label).
  struct Task {
    uint32_t center;
    uint32_t context;
    double label;
  };
  std::vector<Task> tasks;
  std::vector<RowRef> refs;  ///< deduplicated (matrix, row) pulls
  std::vector<uint64_t> touches;  ///< access count per ref (for RecordBatch)
  std::vector<int> ref_key;       ///< key of each ref

  void Clear() {
    tasks.clear();
    refs.clear();
    touches.clear();
    ref_key.clear();
  }
};

}  // namespace

Status Word2VecOptions::Validate() const {
  if (vocab == 0) return Status::InvalidArgument("vocab must be set");
  if (embedding_dim == 0) {
    return Status::InvalidArgument("embedding_dim must be positive");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (epochs <= 0) return Status::InvalidArgument("epochs must be positive");
  if (negative_samples < 0) {
    return Status::InvalidArgument("negative_samples must be >= 0");
  }
  return param_mgmt.Validate();
}

Result<TrainReport> TrainWord2VecPs2(DcvContext* ctx,
                                     const Dataset<VertexPair>& pairs,
                                     const std::vector<double>& key_frequencies,
                                     const Word2VecOptions& options,
                                     Word2VecModel* model_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (key_frequencies.size() < options.vocab) {
    return Status::InvalidArgument("key_frequencies must cover every key");
  }
  Cluster* cluster = ctx->cluster();
  PsMaster* master = ctx->master();
  PsClient* client = ctx->client();
  const uint32_t vocab = options.vocab;
  const uint32_t k_dim = options.embedding_dim;

  // One two-row matrix per key, homed round-robin over the active servers:
  // row 0 input embedding, row 1 context embedding. home_server makes each
  // key independently relocatable.
  std::vector<int> active = master->active_servers();
  if (active.empty()) return Status::FailedPrecondition("no active servers");
  Word2VecModel model;
  model.vocab = vocab;
  model.matrix_ids.reserve(vocab);
  for (uint32_t k = 0; k < vocab; ++k) {
    MatrixOptions mo;
    mo.name = "w2v.key" + std::to_string(k);
    mo.dim = k_dim;
    mo.reserve_rows = 2;
    mo.home_server = active[k % active.size()];
    PS2_ASSIGN_OR_RETURN(int id, master->CreateMatrix(mo));
    model.matrix_ids.push_back(id);
  }
  model.mgmt =
      std::make_shared<ParamMgmtManager>(master, options.param_mgmt);
  PS2_RETURN_NOT_OK(model.mgmt->Enable());
  for (uint32_t k = 0; k < vocab; ++k) {
    PS2_RETURN_NOT_OK(
        model.mgmt->RegisterKey(static_cast<int>(k), model.matrix_ids[k], 2));
  }

  // Seeded init stage: input rows get hash-uniform values in
  // [-0.5/K, 0.5/K]; context rows stay zero (the classic word2vec init).
  // Values depend only on (seed, key, col), so the model starts identically
  // whatever the placement or task schedule.
  const size_t init_tasks = static_cast<size_t>(cluster->num_workers());
  const std::vector<int>& ids = model.matrix_ids;
  Status init_status = Status::OK();
  std::mutex init_mu;
  cluster->RunStage("w2v.init", init_tasks, [&](TaskContext& task) {
    std::vector<RowRef> refs;
    std::vector<std::vector<double>> values;
    for (uint32_t k = static_cast<uint32_t>(task.task_id); k < vocab;
         k += init_tasks) {
      Rng rng = Rng(options.seed ^ 0x77F00D).Split(k);
      std::vector<double> row(k_dim);
      for (uint32_t c = 0; c < k_dim; ++c) {
        row[c] = rng.NextDouble(-0.5 / k_dim, 0.5 / k_dim);
      }
      refs.push_back(RowRef{ids[k], 0});
      values.push_back(std::move(row));
    }
    if (refs.empty()) return;
    Status s = client->WriteRowsAsync(refs, values, RowSelector::All()).Wait();
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(init_mu);
      init_status = s;
    }
  });
  PS2_RETURN_NOT_OK(init_status);

  // Global unigram prior, broadcast once. Each partition mixes it — at a
  // small weight — into the alias table it builds from its OWN pair counts
  // (NuPS sampling management, below).
  auto prior = std::make_shared<const std::vector<double>>(
      key_frequencies.begin(), key_frequencies.begin() + vocab);
  Broadcast<std::shared_ptr<const std::vector<double>>> bcast = BroadcastValue(
      cluster, prior, static_cast<uint64_t>(vocab) * sizeof(double));

  TrainReport report;
  report.system = std::string("PS2-Word2Vec(") +
                  ParamMgmtModeName(options.param_mgmt.mode) + ")";
  const SimTime t0 = cluster->clock().Now();
  const int negatives = options.negative_samples;
  const double lr = options.learning_rate;
  const uint32_t batch_size = options.batch_size;
  ParamMgmtManager* mgmt = model.mgmt.get();

  auto run_epoch = [&](TaskContext& task, const std::vector<VertexPair>& rows,
                       int epoch) -> std::pair<double, uint64_t> {
    // Local negative sampling (the NuPS sampling-management scheme):
    // negatives come from THIS partition's unigram^0.75 counts, so a warm
    // key's negative traffic stays with the partition that owns its
    // positives — without it, globally-sampled negatives smear every key's
    // accesses across all executors and no key ever shows a dominant
    // accessor for the relocation tier to move it toward. The global prior
    // keeps every key reachable at a tiny mass.
    const std::vector<double>& global_prior = *bcast.value();
    std::vector<double> neg_weights(vocab, 0.0);
    for (const VertexPair& p : rows) {
      neg_weights[p.u] += 1.0;
      neg_weights[p.v] += 1.0;
    }
    for (uint32_t k = 0; k < vocab; ++k) {
      neg_weights[k] = std::pow(neg_weights[k], 0.75) +
                       0.01 * global_prior[k] + 1e-12;
    }
    const AliasTable table(neg_weights);
    double loss_sum = 0;
    uint64_t trained = 0;
    Rng rng = task.rng.Split(0x3C1F + epoch);
    std::vector<uint64_t> epoch_counts(vocab, 0);  // key -> accesses

    // Builds one deduplicated batch: centers pull row 0, contexts and
    // negatives row 1. Refs keep first-touch order. `slot_of` is the flat
    // (key, row) -> ref index, all kNoSlot between builds: each build resets
    // exactly the entries its refs set.
    constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> slot_of(2 * static_cast<size_t>(vocab), kNoSlot);
    W2vBatch bufs[2];
    auto build = [&](size_t begin, size_t end, W2vBatch& b) {
      b.Clear();
      auto ref_of = [&](uint32_t key, uint32_t row) -> uint32_t {
        uint32_t& slot = slot_of[2 * static_cast<size_t>(key) + row];
        if (slot == kNoSlot) {
          slot = static_cast<uint32_t>(b.refs.size());
          b.refs.push_back(RowRef{ids[key], row});
          b.touches.push_back(0);
          b.ref_key.push_back(static_cast<int>(key));
        }
        b.touches[slot] += 1;
        return slot;
      };
      for (size_t i = begin; i < end; ++i) {
        const VertexPair& p = rows[i];
        const uint32_t center = ref_of(p.u, 0);
        b.tasks.push_back({center, ref_of(p.v, 1), 1.0});
        for (int nk = 0; nk < negatives; ++nk) {
          uint32_t n = table.Sample(&rng);
          if (n == p.v) n = (n + 1) % vocab;
          b.tasks.push_back({center, ref_of(n, 1), 0.0});
        }
      }
      for (size_t r = 0; r < b.refs.size(); ++r) {
        slot_of[2 * static_cast<size_t>(b.ref_key[r]) + b.refs[r].row] =
            kNoSlot;
      }
    };

    // Double-buffered pipeline (the DeepWalk shape): while batch i's push is
    // in flight, batch i+1's pull rides behind it in the same latency
    // window. The prefetched pull may read rows at most one in-flight push
    // stale — the usual hogwild tolerance of skip-gram training.
    size_t cur = 0;
    // The pulled rows as one flat block, and their per-row deltas, both
    // reused across batches: a consumed pull block is handed back to the
    // next read, and a push serializes its deltas before it returns, so a
    // batch of the usual shape allocates nothing for them.
    RowBlock vals;
    std::vector<std::vector<double>> deltas;
    PsFuture<RowBlock> pull_future;
    PsFuture<Ack> push_future;
    if (!rows.empty()) {
      build(0, std::min(rows.size(), size_t{batch_size}), bufs[0]);
      pull_future = client->ReadRowsAsync(bufs[0].refs, RowSelector::All());
    }
    for (size_t start = 0; start < rows.size(); start += batch_size) {
      size_t end = std::min(rows.size(), start + batch_size);
      W2vBatch& batch = bufs[cur];
      if (end < rows.size()) {
        build(end, std::min(rows.size(), end + batch_size), bufs[1 - cur]);
      }
      Result<RowBlock> pulled = pull_future.Get();
      PS2_CHECK(pulled.ok()) << pulled.status();
      vals = std::move(*pulled);
      // Local minibatch SGD against the pulled snapshot; deltas accumulate
      // per deduplicated row.
      deltas.resize(batch.refs.size());
      for (std::vector<double>& d : deltas) d.assign(k_dim, 0.0);
      for (const W2vBatch::Task& t : batch.tasks) {
        const double* emb = vals.row(t.center);
        const double* ctxv = vals.row(t.context);
        double dot = 0;
        kernels::Dot(emb, ctxv, k_dim, &dot);
        double scale = 0;
        loss_sum += LogisticLossAndScale(dot, t.label, &scale);
        const double alpha = -lr * scale;
        kernels::Axpy(deltas[t.center].data(), ctxv, alpha, k_dim);
        kernels::Axpy(deltas[t.context].data(), emb, alpha, k_dim);
      }
      for (size_t r = 0; r < batch.refs.size(); ++r) {
        epoch_counts[batch.ref_key[r]] += batch.touches[r];
      }
      // Harvest the previous push before issuing the next: at most one
      // update round stays in flight.
      if (push_future.valid()) PS2_CHECK_OK(push_future.Wait());
      push_future =
          client->WriteRowsAsync(batch.refs, deltas, RowSelector::All());
      if (end < rows.size()) {
        pull_future = client->ReadRowsAsync(
            bufs[1 - cur].refs, RowSelector::All(), std::move(vals));
        cur = 1 - cur;
      }
      task.AddWorkerOps(4 * k_dim * batch.tasks.size());
      trained += batch.tasks.size();
    }
    if (push_future.valid()) PS2_CHECK_OK(push_future.Wait());
    std::vector<std::pair<int, uint64_t>> key_counts;  // touched keys, in order
    for (uint32_t k = 0; k < vocab; ++k) {
      if (epoch_counts[k] != 0) {
        key_counts.emplace_back(static_cast<int>(k), epoch_counts[k]);
      }
    }
    mgmt->RecordBatch(task.executor_id, key_counts);
    return {loss_sum, trained};
  };

  // One barrier per epoch; the tiering tick runs between stages, so a
  // relocation never straddles in-flight batches.
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<std::pair<double, uint64_t>> partials =
        pairs.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<VertexPair>& rows)
                -> std::pair<double, uint64_t> {
              return run_epoch(task, rows, epoch);
            });
    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    PS2_RETURN_NOT_OK(mgmt->Tick());
    if (count != 0) {
      TrainPoint point;
      point.iteration = epoch;
      point.time = cluster->clock().Now() - t0;
      point.loss = loss_sum / static_cast<double>(count);
      report.curve.push_back(point);
      report.final_loss = point.loss;
    }
  }
  report.total_time = cluster->clock().Now() - t0;
  if (model_out != nullptr) *model_out = std::move(model);
  return report;
}

}  // namespace ps2
