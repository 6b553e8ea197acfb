#include "ml/metrics.h"

#include <cmath>

namespace ps2 {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

double LogisticLoss(double margin, double label) {
  // For y=1: log(1+exp(-z)); for y=0: log(1+exp(z)). Computed stably.
  double z = label > 0.5 ? margin : -margin;
  if (z > 0) {
    return std::log1p(std::exp(-z));
  }
  return -z + std::log1p(std::exp(z));
}

double LogisticGradientScale(double margin, double label) {
  return Sigmoid(margin) - label;
}

double LogisticLossAndScale(double margin, double label, double* scale) {
  // Sigmoid's and LogisticLoss's branches each take exp of -|margin|.
  const double e = std::exp(-std::fabs(margin));
  *scale = (margin >= 0 ? 1.0 / (1.0 + e) : e / (1.0 + e)) - label;
  const double z = label > 0.5 ? margin : -margin;
  if (z > 0) return std::log1p(e);
  return -z + std::log1p(e);
}

double HingeLoss(double margin, double label) {
  double y = label > 0.5 ? 1.0 : -1.0;
  double v = 1.0 - y * margin;
  return v > 0 ? v : 0.0;
}

double MeanLogisticLoss(const std::vector<Example>& examples,
                        const std::vector<double>& w) {
  if (examples.empty()) return 0.0;
  double total = 0.0;
  for (const Example& ex : examples) {
    total += LogisticLoss(ex.features.Dot(w), ex.label);
  }
  return total / static_cast<double>(examples.size());
}

double Accuracy(const std::vector<Example>& examples,
                const std::vector<double>& w) {
  if (examples.empty()) return 0.0;
  size_t correct = 0;
  for (const Example& ex : examples) {
    double margin = ex.features.Dot(w);
    bool predicted = margin > 0;
    bool actual = ex.label > 0.5;
    correct += (predicted == actual);
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

}  // namespace ps2
