#include "ml/mlp.h"

#include "ml/train_internal.h"

namespace mlcask::ml {

// The training and prediction passes live in src/ml/train_kernels.inc, built
// once per vector width; train_internal::Live() picks the CPU's.

Status Mlp::Fit(const Matrix& x, const std::vector<double>& y,
                const MlpConfig& config) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("rows/labels mismatch in Mlp::Fit");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (config.hidden_units == 0) {
    return Status::InvalidArgument("hidden_units must be positive");
  }
  if (config.sgd.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  train_internal::Live().mlp_fit(x, y, config, &weights_, &loss_history_);
  if (!loss_history_.empty()) final_loss_ = loss_history_.back();
  return Status::Ok();
}

StatusOr<std::vector<double>> Mlp::PredictProba(const Matrix& x) const {
  if (!fitted()) {
    return Status::FailedPrecondition("Mlp not fitted");
  }
  if (x.cols() != weights_.inputs) {
    return Status::InvalidArgument("feature width mismatch in Mlp");
  }
  std::vector<double> out(x.rows());
  train_internal::Live().mlp_predict(weights_, x, out.data());
  return out;
}

}  // namespace mlcask::ml
