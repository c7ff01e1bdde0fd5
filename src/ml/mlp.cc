#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "ml/tanh.h"
#include "ml/vec2.h"

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

// The pre-activation z[u] = b1[u] + w[0][u]*x[0] + w[1][u]*x[1] + ... sums
// each unit's terms in input order exactly as a scalar loop would; the
// hidden units (independent sums) share the vector lanes: eight units per
// pass over x in four registers, then at most one pass each of four, two
// and one units. TanhInPlace then returns std::tanh's bits for every unit.
double Mlp::Forward(const double* x, double* h) const {
  double* z = h;  // pre-activations, turned into activations in place
  const size_t in = input_dim_, hidden = hidden_;
  const double* w = w1_.data();
  const double* b = b1_.data();
  size_t u = 0;
  for (; u + 8 <= hidden; u += 8) {
    V2 z0 = LoadV2(b + u), z1 = LoadV2(b + u + 2);
    V2 z2 = LoadV2(b + u + 4), z3 = LoadV2(b + u + 6);
    for (size_t j = 0; j < in; ++j) {
      const double* wj = w + j * hidden + u;
      const V2 xj = SplatV2(x[j]);
      z0 += LoadV2(wj) * xj;
      z1 += LoadV2(wj + 2) * xj;
      z2 += LoadV2(wj + 4) * xj;
      z3 += LoadV2(wj + 6) * xj;
    }
    StoreV2(z + u, z0);
    StoreV2(z + u + 2, z1);
    StoreV2(z + u + 4, z2);
    StoreV2(z + u + 6, z3);
  }
  if (u + 4 <= hidden) {
    V2 z0 = LoadV2(b + u), z1 = LoadV2(b + u + 2);
    for (size_t j = 0; j < in; ++j) {
      const double* wj = w + j * hidden + u;
      const V2 xj = SplatV2(x[j]);
      z0 += LoadV2(wj) * xj;
      z1 += LoadV2(wj + 2) * xj;
    }
    StoreV2(z + u, z0);
    StoreV2(z + u + 2, z1);
    u += 4;
  }
  if (u + 2 <= hidden) {
    V2 zu = LoadV2(b + u);
    for (size_t j = 0; j < in; ++j) {
      zu += LoadV2(w + j * hidden + u) * SplatV2(x[j]);
    }
    StoreV2(z + u, zu);
    u += 2;
  }
  if (u < hidden) {
    double zu = b[u];
    for (size_t j = 0; j < in; ++j) zu += w[j * hidden + u] * x[j];
    z[u] = zu;
  }
  TanhInPlace(h, hidden);
  double z2 = b2_;
  for (u = 0; u < hidden; ++u) z2 += w2_[u] * h[u];
  return Sigmoid(z2);
}

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
  const size_t n = x.rows();
  input_dim_ = x.cols();
  hidden_ = config.hidden_units;

  Pcg32 rng(config.sgd.seed);
  auto init = [&](size_t count, double scale) {
    std::vector<double> v(count);
    for (double& w : v) w = rng.NextGaussian() * scale;
    return v;
  };
  double scale1 = 1.0 / std::sqrt(static_cast<double>(input_dim_));
  double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden_));
  // Drawn unit by unit (the RNG order fixes the bits), stored input-major.
  const std::vector<double> w1_by_unit = init(hidden_ * input_dim_, scale1);
  w1_.resize(w1_by_unit.size());
  for (size_t u = 0; u < hidden_; ++u) {
    for (size_t j = 0; j < input_dim_; ++j) {
      w1_[j * hidden_ + u] = w1_by_unit[u * input_dim_ + j];
    }
  }
  b1_.assign(hidden_, 0.0);
  w2_ = init(hidden_, scale2);
  b2_ = 0.0;
  loss_history_.clear();

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> h(hidden_), delta1(hidden_), grad_w2(hidden_),
      grad_b1(hidden_);
  std::vector<double> grad_w1(hidden_ * input_dim_);  // input-major, as w1_

  const double lr = config.sgd.learning_rate;
  const double l2 = config.sgd.l2;
  for (int epoch = 0; epoch < config.sgd.epochs; ++epoch) {
    rng.Shuffle(&order);
    double loss_sum = 0;
    for (size_t start = 0; start < n; start += config.sgd.batch_size) {
      size_t end = std::min(n, start + config.sgd.batch_size);
      std::fill(grad_w1.begin(), grad_w1.end(), 0.0);
      std::fill(grad_w2.begin(), grad_w2.end(), 0.0);
      std::fill(grad_b1.begin(), grad_b1.end(), 0.0);
      double grad_b2 = 0;
      for (size_t bi = start; bi < end; ++bi) {
        size_t i = order[bi];
        const double* row = x.Row(i);
        double p = Forward(row, h.data());
        double pc = std::clamp(p, 1e-12, 1.0 - 1e-12);
        loss_sum += y[i] > 0.5 ? -std::log(pc) : -std::log(1.0 - pc);
        // Backward.
        double delta2 = p - y[i];
        grad_b2 += delta2;
        for (size_t u = 0; u < hidden_; ++u) {
          grad_w2[u] += delta2 * h[u];
          delta1[u] = delta2 * w2_[u] * (1.0 - h[u] * h[u]);
          grad_b1[u] += delta1[u];
        }
        // grad_w1[j][u] += delta1[u] * row[j], two units per lane pair.
        for (size_t j = 0; j < input_dim_; ++j) {
          double* g = grad_w1.data() + j * hidden_;
          const V2 xj = SplatV2(row[j]);
          size_t u = 0;
          for (; u + 2 <= hidden_; u += 2) {
            StoreV2(g + u, LoadV2(g + u) + LoadV2(delta1.data() + u) * xj);
          }
          if (u < hidden_) g[u] += delta1[u] * row[j];
        }
      }
      double scale = lr / static_cast<double>(end - start);
      for (size_t k = 0; k < w1_.size(); ++k) {
        w1_[k] -= scale * grad_w1[k] + lr * l2 * w1_[k];
      }
      for (size_t u = 0; u < hidden_; ++u) {
        b1_[u] -= scale * grad_b1[u];
        w2_[u] -= scale * grad_w2[u] + lr * l2 * w2_[u];
      }
      b2_ -= scale * grad_b2;
    }
    final_loss_ = loss_sum / static_cast<double>(n);
    loss_history_.push_back(final_loss_);
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> Mlp::PredictProba(const Matrix& x) const {
  if (!fitted()) {
    return Status::FailedPrecondition("Mlp not fitted");
  }
  if (x.cols() != input_dim_) {
    return Status::InvalidArgument("feature width mismatch in Mlp");
  }
  std::vector<double> out;
  out.reserve(x.rows());
  std::vector<double> h(hidden_);
  for (size_t i = 0; i < x.rows(); ++i) {
    out.push_back(Forward(x.Row(i), h.data()));
  }
  return out;
}

}  // namespace mlcask::ml
