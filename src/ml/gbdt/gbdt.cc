#include "ml/gbdt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "dataflow/broadcast.h"
#include "linalg/dense_vector.h"
#include "ml/metrics.h"

namespace ps2 {

namespace {

/// Mutable per-partition training state, owned by the driver, written only
/// by the task that owns the partition (task_id == partition id).
struct GbdtPartitionState {
  std::vector<uint16_t> bins;  ///< rows x num_features, example-major
  std::vector<float> labels;
  std::vector<double> margin;  ///< current ensemble prediction F_i
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<int> node_of;    ///< current tree-node assignment

  size_t num_rows() const { return labels.size(); }
};

}  // namespace

Result<GbdtReport> TrainGbdtWithAggregator(Cluster* cluster,
                                           const Dataset<GbdtRow>& data,
                                           const GbdtOptions& options,
                                           HistogramAggregator* aggregator,
                                           const std::string& system_name) {
  PS2_RETURN_NOT_OK(options.Validate());
  const uint32_t num_features = options.num_features;
  const uint32_t num_bins = options.num_bins;
  const size_t num_partitions = data.num_partitions();

  GbdtReport out;
  out.report.system = system_name;
  out.model.learning_rate = options.learning_rate;
  const SimTime t0 = cluster->clock().Now();

  // ---- Quantile sketch: bounded per-feature samples -> driver -> cuts ----
  std::vector<std::vector<FeatureSample>> partition_samples =
      data.MapPartitionsCollect<std::vector<FeatureSample>>(
          [&](TaskContext& task, const std::vector<GbdtRow>& rows) {
            std::vector<FeatureSample> samples(num_features,
                                               FeatureSample(256));
            // Seeded independently of the cluster's stage counter so two
            // trainers over the same data grow identical trees.
            Rng rng(options.seed ^ (0x5A3D1EULL + task.task_id));
            for (const GbdtRow& row : rows) {
              for (uint32_t f = 0; f < num_features; ++f) {
                samples[f].Add(row.features[f], &rng);
              }
            }
            task.AddWorkerOps(rows.size() * num_features);
            return samples;
          });
  {
    // Sample transfer to the driver.
    uint64_t sample_bytes = static_cast<uint64_t>(num_features) * 256 * 4;
    cluster->AdvanceClock(cluster->cost().GatherAtOne(
        static_cast<int>(num_partitions), sample_bytes));
  }
  std::vector<FeatureSample> merged(num_features, FeatureSample(1024));
  {
    Rng rng(options.seed ^ 0x5EEDBEEF);
    for (const auto& part : partition_samples) {
      for (uint32_t f = 0; f < num_features; ++f) {
        merged[f].Merge(part[f], &rng);
      }
    }
  }
  out.model.cuts = BinCuts::FromSamples(merged, num_bins);
  const BinCuts& cuts = out.model.cuts;
  cluster->AdvanceClock(cluster->cost().BroadcastTorrent(
      cluster->num_workers(),
      static_cast<uint64_t>(num_features) * (num_bins - 1) * 4));

  // ---- Binning: materialize per-partition binned state ----
  std::vector<GbdtPartitionState> states(num_partitions);
  data.ForeachPartition([&](TaskContext& task,
                            const std::vector<GbdtRow>& rows) {
    GbdtPartitionState& state = states[task.task_id];
    state.bins.resize(rows.size() * num_features);
    state.labels.resize(rows.size());
    state.margin.assign(rows.size(), 0.0);
    state.grad.assign(rows.size(), 0.0);
    state.hess.assign(rows.size(), 0.0);
    state.node_of.assign(rows.size(), 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      state.labels[i] = rows[i].label;
      for (uint32_t f = 0; f < num_features; ++f) {
        state.bins[i * num_features + f] =
            static_cast<uint16_t>(cuts.BinOf(f, rows[i].features[f]));
      }
    }
    task.AddWorkerOps(rows.size() * num_features * 4);
  });

  const int max_frontier = 1 << (options.max_depth - 1);

  // ---- Boosting loop ----
  for (int tree_index = 0; tree_index < options.num_trees; ++tree_index) {
    RegressionTree tree;
    int root = tree.AddNode();

    // Gradient pass: compute g/h from current margins, reset assignments.
    std::vector<std::pair<double, double>> gh_partials =
        data.MapPartitionsCollect<std::pair<double, double>>(
            [&](TaskContext& task, const std::vector<GbdtRow>& rows)
                -> std::pair<double, double> {
              GbdtPartitionState& state = states[task.task_id];
              double g_sum = 0, h_sum = 0;
              for (size_t i = 0; i < rows.size(); ++i) {
                double p = Sigmoid(state.margin[i]);
                state.grad[i] = p - state.labels[i];
                state.hess[i] = std::max(p * (1 - p), 1e-12);
                state.node_of[i] = root;
                g_sum += state.grad[i];
                h_sum += state.hess[i];
              }
              task.AddWorkerOps(rows.size() * 6);
              return {g_sum, h_sum};
            });
    double root_grad = 0, root_hess = 0;
    for (const auto& [g, h] : gh_partials) {
      root_grad += g;
      root_hess += h;
    }

    std::vector<GbdtFrontierNode> frontier{{root, root_grad, root_hess}};

    // Histograms are only needed while a further split is possible; the
    // deepest level's nodes become leaves from their (G, H) bookkeeping.
    for (int depth = 0; depth + 1 < options.max_depth && !frontier.empty();
         ++depth) {
      PS2_CHECK_LE(static_cast<int>(frontier.size()), max_frontier);
      PS2_RETURN_NOT_OK(aggregator->OnLevelStart(frontier));

      // Build stage: every task accumulates local histograms per frontier
      // node and publishes them through the aggregator.
      std::map<int, size_t> frontier_index;
      for (size_t k = 0; k < frontier.size(); ++k) {
        frontier_index[frontier[k].tree_node] = k;
      }
      std::vector<bool> build_locally = aggregator->PlanLocalBuilds(frontier);
      data.ForeachPartition([&](TaskContext& task,
                                const std::vector<GbdtRow>& rows) {
        GbdtPartitionState& state = states[task.task_id];
        std::vector<std::vector<uint32_t>> rows_per_node(frontier.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          auto it = frontier_index.find(state.node_of[i]);
          if (it != frontier_index.end()) {
            rows_per_node[it->second].push_back(static_cast<uint32_t>(i));
          }
        }
        HistogramAggregator::TaskHistograms hists;
        for (size_t k = 0; k < frontier.size(); ++k) {
          if (!build_locally[k] || rows_per_node[k].empty()) continue;
          std::vector<double> grad_hist, hess_hist;
          AccumulateHistogram(state.bins, state.grad, state.hess,
                              rows_per_node[k], num_features, num_bins,
                              &grad_hist, &hess_hist);
          task.AddWorkerOps(rows_per_node[k].size() * num_features * 2);
          hists.frontier_indices.push_back(k);
          hists.grad_hists.push_back(std::move(grad_hist));
          hists.hess_hists.push_back(std::move(hess_hist));
        }
        if (!hists.frontier_indices.empty()) {
          aggregator->PublishLocal(task, std::move(hists));
        }
      });
      PS2_RETURN_NOT_OK(aggregator->OnLevelCollected(frontier));

      // Split finding + frontier expansion (driver side).
      std::vector<GbdtFrontierNode> next_frontier;
      struct NodeSplit {
        int tree_node;
        SplitCandidate split;
      };
      std::vector<NodeSplit> applied;
      for (size_t k = 0; k < frontier.size(); ++k) {
        GbdtFrontierNode& fnode = frontier[k];
        SplitCandidate split;
        PS2_ASSIGN_OR_RETURN(split, aggregator->FindSplit(k, fnode));
        bool can_split = split.valid && split.gain > options.min_gain;
        if (!can_split) {
          TreeNode& node = tree.node(fnode.tree_node);
          node.is_leaf = true;
          node.weight =
              LeafWeight(fnode.grad_sum, fnode.hess_sum, options.lambda);
          continue;
        }
        // AddNode may reallocate the node array — grab children first.
        const int left = tree.AddNode();
        const int right = tree.AddNode();
        TreeNode& node = tree.node(fnode.tree_node);
        node.is_leaf = false;
        node.feature = split.feature;
        node.bin = split.bin;
        node.threshold = cuts.CutValue(split.feature, split.bin);
        node.left = left;
        node.right = right;
        const int left_index = static_cast<int>(next_frontier.size());
        next_frontier.push_back({left, split.left_grad, split.left_hess,
                                 static_cast<int>(k), left_index + 1});
        next_frontier.push_back({right, fnode.grad_sum - split.left_grad,
                                 fnode.hess_sum - split.left_hess,
                                 static_cast<int>(k), left_index});
        applied.push_back({fnode.tree_node, split});
      }

      // Reassignment stage: route examples of split nodes to children.
      if (!applied.empty()) {
        std::map<int, NodeSplit> split_of;
        for (const NodeSplit& ns : applied) split_of[ns.tree_node] = ns;
        data.ForeachPartition([&](TaskContext& task,
                                  const std::vector<GbdtRow>& rows) {
          GbdtPartitionState& state = states[task.task_id];
          for (size_t i = 0; i < rows.size(); ++i) {
            auto it = split_of.find(state.node_of[i]);
            if (it == split_of.end()) continue;
            const SplitCandidate& split = it->second.split;
            const TreeNode& node = tree.node(it->first);
            uint16_t bin = state.bins[i * num_features + split.feature];
            state.node_of[i] = bin <= split.bin ? node.left : node.right;
          }
          task.AddWorkerOps(rows.size() * 2);
        });
      }
      frontier = std::move(next_frontier);
    }
    // Any frontier nodes left at max depth become leaves.
    for (const GbdtFrontierNode& fnode : frontier) {
      TreeNode& node = tree.node(fnode.tree_node);
      node.is_leaf = true;
      node.weight = LeafWeight(fnode.grad_sum, fnode.hess_sum, options.lambda);
    }

    // Margin update + loss evaluation.
    const double lr = options.learning_rate;
    std::vector<std::pair<double, uint64_t>> loss_partials =
        data.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<GbdtRow>& rows)
                -> std::pair<double, uint64_t> {
              GbdtPartitionState& state = states[task.task_id];
              double loss = 0;
              for (size_t i = 0; i < rows.size(); ++i) {
                state.margin[i] +=
                    lr * tree.node(state.node_of[i]).weight;
                loss += LogisticLoss(state.margin[i], state.labels[i]);
              }
              task.AddWorkerOps(rows.size() * 6);
              return {loss, rows.size()};
            });
    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : loss_partials) {
      loss_sum += l;
      count += c;
    }

    out.model.trees.push_back(std::move(tree));
    TrainPoint point;
    point.iteration = tree_index;
    point.time = cluster->clock().Now() - t0;
    point.loss = count > 0 ? loss_sum / static_cast<double>(count) : 0;
    out.report.curve.push_back(point);
    out.report.final_loss = point.loss;
  }
  out.report.total_time = cluster->clock().Now() - t0;
  return out;
}

namespace {

/// PS2's aggregator: DCV rows hold the histograms; split finding runs
/// server-side via zip-aggregate (paper Fig. 8).
class Ps2HistogramAggregator final : public HistogramAggregator {
 public:
  Ps2HistogramAggregator(DcvContext* ctx, const GbdtOptions& options)
      : ctx_(ctx), options_(options) {
    params_ = std::make_shared<SplitParams>();
    auto params = params_;
    const uint32_t num_bins = options.num_bins;
    udf_id_ = ctx->RegisterZipAggregate(
        [params, num_bins](const std::vector<const double*>& rows, size_t n,
                           uint64_t col_offset) -> std::vector<double> {
          // rows = [grad_hist_slice, hess_hist_slice]; the feature-aligned
          // partitioner guarantees whole features per server.
          uint32_t feature_begin =
              static_cast<uint32_t>(col_offset / num_bins);
          uint32_t feature_end =
              feature_begin + static_cast<uint32_t>(n / num_bins);
          SplitCandidate best = BestSplitInRange(
              rows[0], rows[1], feature_begin, feature_end, num_bins,
              params->total_grad, params->total_hess, params->lambda,
              params->min_child_hess);
          return {best.valid ? 1.0 : 0.0, best.gain,
                  static_cast<double>(best.feature),
                  static_cast<double>(best.bin), best.left_grad,
                  best.left_hess};
        });
  }

  Status OnLevelStart(const std::vector<GbdtFrontierNode>& frontier) override {
    // Lazily create the histogram matrix: 2 rows (grad, hess) per frontier
    // slot, two banks (current + previous level, for histogram
    // subtraction), feature-aligned column partitioning.
    bank_size_ = static_cast<uint32_t>(1)
                 << std::max(1, options_.max_depth - 1);
    if (rows_.empty()) {
      const uint64_t dim =
          static_cast<uint64_t>(options_.num_features) * options_.num_bins;
      const uint32_t max_rows = 2 * bank_size_;
      PS2_ASSIGN_OR_RETURN(
          Dcv first, ctx_->Dense(dim, max_rows, options_.num_bins, 0,
                                 "gbdt.histograms"));
      rows_.push_back(first);
      PS2_ASSIGN_OR_RETURN(std::vector<Dcv> rest,
                           ctx_->DeriveN(first, max_rows - 1));
      rows_.insert(rows_.end(), rest.begin(), rest.end());
    }
    parity_ ^= 1;
    // Zero this level's bank in one server-side round.
    PS2_RETURN_NOT_OK(ctx_->client()->MatrixInit(
        rows_[0].ref().matrix_id, parity_ * bank_size_,
        parity_ * bank_size_ + static_cast<uint32_t>(2 * frontier.size()),
        0.0, 0));
    return Status::OK();
  }

  std::vector<bool> PlanLocalBuilds(
      const std::vector<GbdtFrontierNode>& frontier) override {
    std::vector<bool> build(frontier.size(), true);
    if (!options_.histogram_subtraction) return build;
    for (size_t k = 0; k < frontier.size(); ++k) {
      const GbdtFrontierNode& node = frontier[k];
      if (node.parent_index < 0 || node.sibling_index < 0) continue;
      const GbdtFrontierNode& sibling = frontier[node.sibling_index];
      // Build only the lighter child; ties resolved toward the lower index.
      bool heavier = node.hess_sum > sibling.hess_sum ||
                     (node.hess_sum == sibling.hess_sum &&
                      static_cast<int>(k) > node.sibling_index);
      if (heavier) build[k] = false;
    }
    return build;
  }

  void PublishLocal(TaskContext& task, TaskHistograms histograms) override {
    (void)task;  // traffic is recorded via the ambient TrafficScope
    // One batched row push per task per level (the real system coalesces
    // pushes per clock; per-node pushes would drown in message overheads).
    std::vector<RowRef> refs;
    std::vector<std::vector<double>> deltas;
    refs.reserve(2 * histograms.frontier_indices.size());
    deltas.reserve(refs.capacity());
    for (size_t i = 0; i < histograms.frontier_indices.size(); ++i) {
      size_t k = histograms.frontier_indices[i];
      refs.push_back(GradRow(k).ref());
      deltas.push_back(std::move(histograms.grad_hists[i]));
      refs.push_back(HessRow(k).ref());
      deltas.push_back(std::move(histograms.hess_hists[i]));
    }
    PS2_CHECK_OK(ctx_->client()
                     ->WriteRowsAsync(refs, deltas, RowSelector::All())
                     .Wait());
  }

  Status OnLevelCollected(
      const std::vector<GbdtFrontierNode>& frontier) override {
    if (!options_.histogram_subtraction) return Status::OK();
    if (subtract_udf_ < 0) {
      // Rows arrive in groups of six: [dst_g, dst_h, parent_g, parent_h,
      // built_g, built_h]; every derived sibling of the level is computed
      // in this single server-side pass.
      subtract_udf_ = ctx_->RegisterZip(
          [](const std::vector<double*>& rows, size_t n,
             uint64_t) -> uint64_t {
            for (size_t g = 0; g + 5 < rows.size(); g += 6) {
              kernels::Sub(rows[g], rows[g + 2], rows[g + 4], n);
              kernels::Sub(rows[g + 1], rows[g + 3], rows[g + 5], n);
            }
            return rows.size() / 3 * n;
          });
    }
    std::vector<bool> build = PlanLocalBuilds(frontier);
    std::vector<Dcv> zip_rows;
    for (size_t k = 0; k < frontier.size(); ++k) {
      if (build[k]) continue;
      const GbdtFrontierNode& node = frontier[k];
      size_t parent = static_cast<size_t>(node.parent_index);
      size_t built = static_cast<size_t>(node.sibling_index);
      zip_rows.push_back(GradRow(k));
      zip_rows.push_back(HessRow(k));
      zip_rows.push_back(PrevGradRow(parent));
      zip_rows.push_back(PrevHessRow(parent));
      zip_rows.push_back(GradRow(built));
      zip_rows.push_back(HessRow(built));
    }
    if (zip_rows.empty()) return Status::OK();
    // One round derives every sibling: sibling = parent - built child.
    std::vector<Dcv> others(zip_rows.begin() + 1, zip_rows.end());
    return zip_rows.front().Zip(others, subtract_udf_);
  }

  Result<SplitCandidate> FindSplit(size_t frontier_index,
                                   const GbdtFrontierNode& node) override {
    params_->total_grad = node.grad_sum;
    params_->total_hess = node.hess_sum;
    params_->lambda = options_.lambda;
    params_->min_child_hess = options_.min_child_hess;
    PS2_ASSIGN_OR_RETURN(std::vector<std::vector<double>> per_server,
                         GradRow(frontier_index)
                             .ZipAggregate({HessRow(frontier_index)},
                                           udf_id_));
    SplitCandidate best;
    for (const std::vector<double>& c : per_server) {
      if (c.size() != 6 || c[0] == 0.0) continue;
      if (!best.valid || c[1] > best.gain) {
        best.valid = true;
        best.gain = c[1];
        best.feature = static_cast<uint32_t>(c[2]);
        best.bin = static_cast<uint32_t>(c[3]);
        best.left_grad = c[4];
        best.left_hess = c[5];
      }
    }
    return best;
  }

 private:
  struct SplitParams {
    double total_grad = 0;
    double total_hess = 0;
    double lambda = 1.0;
    double min_child_hess = 1e-3;
  };

  const Dcv& GradRow(size_t k) const {
    return rows_[parity_ * bank_size_ + 2 * k];
  }
  const Dcv& HessRow(size_t k) const {
    return rows_[parity_ * bank_size_ + 2 * k + 1];
  }
  const Dcv& PrevGradRow(size_t k) const {
    return rows_[(parity_ ^ 1) * bank_size_ + 2 * k];
  }
  const Dcv& PrevHessRow(size_t k) const {
    return rows_[(parity_ ^ 1) * bank_size_ + 2 * k + 1];
  }

  DcvContext* ctx_;
  GbdtOptions options_;
  std::vector<Dcv> rows_;
  std::shared_ptr<SplitParams> params_;
  int udf_id_ = -1;
  int subtract_udf_ = -1;
  uint32_t parity_ = 1;  // flipped to 0 by the first OnLevelStart
  uint32_t bank_size_ = 0;
};

}  // namespace

Result<GbdtReport> TrainGbdtPs2(DcvContext* ctx, const Dataset<GbdtRow>& data,
                                const GbdtOptions& options) {
  Ps2HistogramAggregator aggregator(ctx, options);
  return TrainGbdtWithAggregator(ctx->cluster(), data, options, &aggregator,
                                 "PS2-GBDT");
}

}  // namespace ps2
