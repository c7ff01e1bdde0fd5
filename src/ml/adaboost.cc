#include "ml/adaboost.h"

#include <algorithm>
#include <cmath>

#include "ml/vec2.h"

namespace mlcask::ml {

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
  const size_t n = x.rows();
  const size_t d = x.cols();

  // Labels to {-1, +1}.
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = y[i] > 0.5 ? 1 : -1;

  // Candidate thresholds: per-feature quantiles.
  std::vector<std::vector<double>> candidates(d);
  {
    std::vector<double> col(n);
    for (size_t j = 0; j < d; ++j) {
      for (size_t i = 0; i < n; ++i) col[i] = x.At(i, j);
      std::sort(col.begin(), col.end());
      size_t steps = std::min(config.thresholds_per_feature, n);
      for (size_t q = 0; q < steps; ++q) {
        candidates[j].push_back(col[(n - 1) * (q + 1) / (steps + 1)]);
      }
      candidates[j].erase(
          std::unique(candidates[j].begin(), candidates[j].end()),
          candidates[j].end());
    }
  }

  // A stump's outcome on a row never changes across rounds; only the row
  // weights do. The candidates are sorted and unique, so x_ij >= thr_t
  // exactly when t < rank_ij, the number of candidates x_ij reaches. Ranks
  // are stored feature-major as doubles (small integers, exact) to be
  // compared against threshold indices two lanes at a time.
  std::vector<double> rank(d * n);
  for (size_t j = 0; j < d; ++j) {
    const std::vector<double>& cand = candidates[j];
    for (size_t i = 0; i < n; ++i) {
      const double v = x.At(i, j);
      size_t r = 0;
      while (r < cand.size() && v >= cand[r]) ++r;
      rank[j * n + i] = static_cast<double>(r);
    }
  }
  // All lanes set for rows labelled +1: a polarity=+1 stump errs on a row
  // exactly when "predicts +1" (t < rank) differs from "labelled +1".
  std::vector<V2Mask> positive(n);
  for (size_t i = 0; i < n; ++i) {
    positive[i] = SplatV2(labels[i]) > SplatV2(0.0);
  }

  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  stumps_.clear();

  // Thresholds scored per pass over the rows: four two-lane error sums.
  constexpr size_t kBlock = 8;
  double err[kBlock];
  for (int round = 0; round < config.rounds; ++round) {
    DecisionStump best;
    double best_err = 1.0;
    for (size_t j = 0; j < d; ++j) {
      const std::vector<double>& cand = candidates[j];
      const double* rank_j = rank.data() + j * n;
      for (size_t t0 = 0; t0 < cand.size(); t0 += kBlock) {
        const double base = static_cast<double>(t0);
        const V2 t01 = {base, base + 1}, t23 = {base + 2, base + 3};
        const V2 t45 = {base + 4, base + 5}, t67 = {base + 6, base + 7};
        // Each lane is one threshold's error of the polarity=+1 stump,
        // summed over the rows in order. A row it predicts right adds +0.0
        // (a select, not a multiply), which leaves the sum's bits alone.
        V2 e01 = {}, e23 = {}, e45 = {}, e67 = {};
        for (size_t i = 0; i < n; ++i) {
          const V2 r = SplatV2(rank_j[i]);
          const V2Mask wi = reinterpret_cast<V2Mask>(SplatV2(w[i]));
          const V2Mask pos = positive[i];
          e01 += reinterpret_cast<V2>(((t01 < r) ^ pos) & wi);
          e23 += reinterpret_cast<V2>(((t23 < r) ^ pos) & wi);
          e45 += reinterpret_cast<V2>(((t45 < r) ^ pos) & wi);
          e67 += reinterpret_cast<V2>(((t67 < r) ^ pos) & wi);
        }
        StoreV2(err, e01);
        StoreV2(err + 2, e23);
        StoreV2(err + 4, e45);
        StoreV2(err + 6, e67);
        const size_t t_end = std::min(cand.size(), t0 + kBlock);
        for (size_t t = t0; t < t_end; ++t) {
          const double err_pos = err[t - t0];
          // polarity=-1 stump has complementary error.
          if (err_pos < best_err) {
            best_err = err_pos;
            best = {j, cand[t], 1, 0};
          }
          if (1.0 - err_pos < best_err) {
            best_err = 1.0 - err_pos;
            best = {j, cand[t], -1, 0};
          }
        }
      }
    }
    final_round_error_ = best_err;
    double eps = std::clamp(best_err, 1e-10, 1.0 - 1e-10);
    best.weight = 0.5 * std::log((1.0 - eps) / eps);
    stumps_.push_back(best);
    if (best_err >= 0.5) break;  // no weak learner better than chance

    // Re-weight.
    double norm = 0;
    for (size_t i = 0; i < n; ++i) {
      int pred = best.Predict(x.Row(i));
      w[i] *= std::exp(-best.weight * pred * labels[i]);
      norm += w[i];
    }
    if (norm <= 0) break;
    for (double& wi : w) wi /= norm;
    if (best_err < 1e-9) break;  // perfect separation
  }
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
