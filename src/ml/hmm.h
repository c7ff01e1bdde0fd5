#ifndef MLCASK_ML_HMM_H_
#define MLCASK_ML_HMM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace mlcask::ml {

/// Configuration for the Gaussian hidden Markov model.
struct HmmConfig {
  size_t num_states = 3;
  int em_iterations = 10;
  uint64_t seed = 1;
  double min_variance = 1e-3;
};

/// A univariate Gaussian HMM fit with Baum-Welch EM, used by the DPM
/// pipeline's third step (paper Sec. VII-A: "a Hidden Markov Modeling model
/// is designed to process the extracted medical features so that they become
/// unbiased"). `Smooth` replaces each observation with its posterior expected
/// state mean — a debiasing/denoising pass over longitudinal lab values.
class GaussianHmm {
 public:
  /// Fits on a sequence of observations.
  Status Fit(const std::vector<double>& sequence, const HmmConfig& config);

  /// Posterior-smoothed reconstruction of a sequence (forward-backward).
  StatusOr<std::vector<double>> Smooth(const std::vector<double>& sequence) const;

  /// Per-observation posterior state probabilities (T x K row-major).
  StatusOr<std::vector<double>> Posteriors(
      const std::vector<double>& sequence) const;

  /// Log-likelihood of a sequence under the fitted model.
  StatusOr<double> LogLikelihood(const std::vector<double>& sequence) const;

  bool fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& variances() const { return variances_; }
  const std::vector<double>& initial() const { return initial_; }
  /// Row-major K x K transition matrix.
  const std::vector<double>& transitions() const { return transitions_; }

 private:
  /// emit[t * k + s]: the density of observation t under state s, for
  /// the current means and variances (each evaluated once).
  void EmissionTable(const std::vector<double>& seq,
                     std::vector<double>* emit) const;
  /// Scaled forward-backward over an emission table of `t_len` steps;
  /// fills per-step scaling factors, alpha and beta.
  void ForwardBackward(const std::vector<double>& emit, size_t t_len,
                       std::vector<double>* alpha, std::vector<double>* beta,
                       std::vector<double>* scale) const;

  size_t k_ = 0;
  double min_variance_ = 1e-3;
  std::vector<double> initial_;
  std::vector<double> transitions_;
  std::vector<double> means_;
  std::vector<double> variances_;
};

}  // namespace mlcask::ml

#endif  // MLCASK_ML_HMM_H_
