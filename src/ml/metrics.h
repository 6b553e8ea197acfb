#pragma once

// Numerically stable loss/metric helpers shared by trainers and baselines.

#include <cstdint>
#include <vector>

#include "data/types.h"

namespace ps2 {

/// Stable sigmoid.
double Sigmoid(double z);

/// Stable -log(sigmoid(margin)) for label in {0,1}:
/// loss = log(1 + exp(-z)) if y=1 else log(1 + exp(z)).
double LogisticLoss(double margin, double label);

/// d/dz of the logistic loss: sigmoid(z) - y.
double LogisticGradientScale(double margin, double label);

/// LogisticLoss(margin, label), with LogisticGradientScale(margin, label)
/// stored in *scale: both from one exp(-|margin|), bit-identical to the two
/// separate calls (NaN margins give NaN for both).
double LogisticLossAndScale(double margin, double label, double* scale);

/// Hinge loss max(0, 1 - y*z) with y in {-1,+1} mapped from {0,1}.
double HingeLoss(double margin, double label);

/// Mean logistic loss of `examples` under dense weights `w`.
double MeanLogisticLoss(const std::vector<Example>& examples,
                        const std::vector<double>& w);

/// Classification accuracy under dense weights `w` (threshold 0).
double Accuracy(const std::vector<Example>& examples,
                const std::vector<double>& w);

}  // namespace ps2
