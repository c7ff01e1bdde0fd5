#include "ml/adaboost.h"

#include <cmath>

#include "ml/train_internal.h"

namespace mlcask::ml {

// The fit lives in src/ml/train_kernels.inc, built once per vector width;
// train_internal::Live() picks the CPU's.

Status AdaBoost::Fit(const Matrix& x, const std::vector<double>& y,
                     const AdaBoostConfig& config) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("rows/labels mismatch in AdaBoost::Fit");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (config.rounds <= 0) {
    return Status::InvalidArgument("rounds must be positive");
  }
  train_internal::Live().adaboost_fit(x, y, config, &stumps_,
                                      &final_round_error_);
  return Status::Ok();
}

StatusOr<std::vector<double>> AdaBoost::PredictProba(const Matrix& x) const {
  if (!fitted()) {
    return Status::FailedPrecondition("AdaBoost not fitted");
  }
  std::vector<double> out;
  out.reserve(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    double margin = 0;
    for (const DecisionStump& s : stumps_) {
      if (s.feature >= x.cols()) {
        return Status::InvalidArgument("feature width mismatch in AdaBoost");
      }
      margin += s.weight * s.Predict(x.Row(i));
    }
    out.push_back(1.0 / (1.0 + std::exp(-2.0 * margin)));
  }
  return out;
}

}  // namespace mlcask::ml
