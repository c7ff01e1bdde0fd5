#include "ml/logreg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace mlcask::ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Status LogisticRegression::Fit(const Matrix& x, const std::vector<double>& y,
                               const SgdConfig& config) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("rows/labels mismatch in LogReg::Fit");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();
  weights_.assign(d, 0.0);
  bias_ = 0.0;

  Pcg32 rng(config.seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    double loss_sum = 0;
    size_t batch_count = 0;
    std::vector<double> grad(d, 0.0);
    double grad_bias = 0;
    for (size_t start = 0; start < n; start += config.batch_size) {
      size_t end = std::min(n, start + config.batch_size);
      std::fill(grad.begin(), grad.end(), 0.0);
      grad_bias = 0;
      for (size_t bi = start; bi < end; ++bi) {
        size_t i = order[bi];
        const double* row = x.Row(i);
        double z = bias_;
        for (size_t j = 0; j < d; ++j) z += weights_[j] * row[j];
        double p = Sigmoid(z);
        double err = p - y[i];
        for (size_t j = 0; j < d; ++j) grad[j] += err * row[j];
        grad_bias += err;
        double pc = std::clamp(p, 1e-12, 1.0 - 1e-12);
        loss_sum += y[i] > 0.5 ? -std::log(pc) : -std::log(1.0 - pc);
      }
      double scale = config.learning_rate / static_cast<double>(end - start);
      for (size_t j = 0; j < d; ++j) {
        weights_[j] -= scale * grad[j] + config.learning_rate * config.l2 * weights_[j];
      }
      bias_ -= scale * grad_bias;
      ++batch_count;
    }
    (void)batch_count;
    final_loss_ = loss_sum / static_cast<double>(n);
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> LogisticRegression::PredictProba(
    const Matrix& x) const {
  if (!fitted()) {
    return Status::FailedPrecondition("LogisticRegression not fitted");
  }
  if (x.cols() != weights_.size()) {
    return Status::InvalidArgument("feature width mismatch in PredictProba");
  }
  std::vector<double> out;
  out.reserve(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.Row(i);
    double z = bias_;
    for (size_t j = 0; j < weights_.size(); ++j) z += weights_[j] * row[j];
    out.push_back(Sigmoid(z));
  }
  return out;
}

}  // namespace mlcask::ml
