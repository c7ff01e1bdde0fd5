#include "ml/hmm.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace mlcask::ml {

namespace {
constexpr double kTiny = 1e-300;
}

void GaussianHmm::EmissionTable(const std::vector<double>& seq,
                                std::vector<double>* emit) const {
  // emit[t][s] = N(seq[t]; mean_s, var_s). The normalizer depends on the
  // state alone, and the same operands give the same bits at every t.
  const size_t t_len = seq.size();
  emit->resize(t_len * k_);
  for (size_t s = 0; s < k_; ++s) {
    const double var = variances_[s];
    const double mean = means_[s];
    const double denom = std::sqrt(2.0 * M_PI * var);
    for (size_t t = 0; t < t_len; ++t) {
      double d = seq[t] - mean;
      (*emit)[t * k_ + s] = std::exp(-0.5 * d * d / var) / denom;
    }
  }
}

Status GaussianHmm::Fit(const std::vector<double>& sequence,
                        const HmmConfig& config) {
  if (config.num_states == 0) {
    return Status::InvalidArgument("num_states must be positive");
  }
  if (sequence.size() < config.num_states * 2) {
    return Status::InvalidArgument("sequence too short for HMM fit");
  }
  k_ = config.num_states;
  min_variance_ = config.min_variance;
  const size_t t_len = sequence.size();

  // Initialize means by spreading over the sorted observations, variances to
  // the global variance, transitions sticky-uniform.
  std::vector<double> sorted = sequence;
  std::sort(sorted.begin(), sorted.end());
  means_.resize(k_);
  for (size_t s = 0; s < k_; ++s) {
    means_[s] = sorted[(t_len - 1) * (s + 1) / (k_ + 1)];
  }
  double mean_all = 0;
  for (double v : sequence) mean_all += v;
  mean_all /= static_cast<double>(t_len);
  double var_all = 0;
  for (double v : sequence) var_all += (v - mean_all) * (v - mean_all);
  var_all = std::max(var_all / static_cast<double>(t_len), min_variance_);
  variances_.assign(k_, var_all);
  initial_.assign(k_, 1.0 / static_cast<double>(k_));
  transitions_.assign(k_ * k_, 0.0);
  for (size_t i = 0; i < k_; ++i) {
    for (size_t j = 0; j < k_; ++j) {
      transitions_[i * k_ + j] =
          i == j ? 0.8 : 0.2 / static_cast<double>(k_ - 1 == 0 ? 1 : k_ - 1);
    }
  }
  // Small deterministic jitter so equal initial means can separate.
  Pcg32 rng(config.seed);
  for (double& m : means_) m += 1e-6 * rng.NextGaussian();

  std::vector<double> emit, alpha, beta, scale;
  std::vector<double> gamma(t_len * k_);
  std::vector<double> xi(k_ * k_), xi_sum(k_ * k_);

  for (int iter = 0; iter < config.em_iterations; ++iter) {
    EmissionTable(sequence, &emit);
    ForwardBackward(emit, t_len, &alpha, &beta, &scale);

    // E-step: gamma[t][s] ∝ alpha * beta (already scaled per-step).
    for (size_t t = 0; t < t_len; ++t) {
      double norm = 0;
      for (size_t s = 0; s < k_; ++s) {
        gamma[t * k_ + s] = alpha[t * k_ + s] * beta[t * k_ + s];
        norm += gamma[t * k_ + s];
      }
      if (norm < kTiny) norm = kTiny;
      for (size_t s = 0; s < k_; ++s) gamma[t * k_ + s] /= norm;
    }
    std::fill(xi_sum.begin(), xi_sum.end(), 0.0);
    for (size_t t = 0; t + 1 < t_len; ++t) {
      const double* e_next = emit.data() + (t + 1) * k_;
      const double* b_next = beta.data() + (t + 1) * k_;
      double norm = 0;
      for (size_t i = 0; i < k_; ++i) {
        for (size_t j = 0; j < k_; ++j) {
          double v = alpha[t * k_ + i] * transitions_[i * k_ + j] *
                     e_next[j] * b_next[j];
          xi[i * k_ + j] = v;
          norm += v;
        }
      }
      if (norm < kTiny) norm = kTiny;
      for (size_t ij = 0; ij < k_ * k_; ++ij) xi_sum[ij] += xi[ij] / norm;
    }

    // M-step.
    for (size_t s = 0; s < k_; ++s) initial_[s] = gamma[s];
    for (size_t i = 0; i < k_; ++i) {
      double row_sum = 0;
      for (size_t j = 0; j < k_; ++j) row_sum += xi_sum[i * k_ + j];
      if (row_sum < kTiny) row_sum = kTiny;
      for (size_t j = 0; j < k_; ++j) {
        transitions_[i * k_ + j] = xi_sum[i * k_ + j] / row_sum;
      }
    }
    for (size_t s = 0; s < k_; ++s) {
      double g_sum = 0, weighted = 0;
      for (size_t t = 0; t < t_len; ++t) {
        g_sum += gamma[t * k_ + s];
        weighted += gamma[t * k_ + s] * sequence[t];
      }
      if (g_sum < kTiny) g_sum = kTiny;
      means_[s] = weighted / g_sum;
      double var = 0;
      for (size_t t = 0; t < t_len; ++t) {
        double d = sequence[t] - means_[s];
        var += gamma[t * k_ + s] * d * d;
      }
      variances_[s] = std::max(var / g_sum, min_variance_);
    }
  }
  return Status::Ok();
}

void GaussianHmm::ForwardBackward(const std::vector<double>& emit,
                                  size_t t_len, std::vector<double>* alpha,
                                  std::vector<double>* beta,
                                  std::vector<double>* scale) const {
  alpha->assign(t_len * k_, 0.0);
  beta->assign(t_len * k_, 0.0);
  scale->assign(t_len, 0.0);

  // Forward with per-step normalization.
  double norm = 0;
  for (size_t s = 0; s < k_; ++s) {
    (*alpha)[s] = initial_[s] * emit[s];
    norm += (*alpha)[s];
  }
  if (norm < kTiny) norm = kTiny;
  (*scale)[0] = norm;
  for (size_t s = 0; s < k_; ++s) (*alpha)[s] /= norm;

  for (size_t t = 1; t < t_len; ++t) {
    norm = 0;
    for (size_t j = 0; j < k_; ++j) {
      double sum = 0;
      for (size_t i = 0; i < k_; ++i) {
        sum += (*alpha)[(t - 1) * k_ + i] * transitions_[i * k_ + j];
      }
      (*alpha)[t * k_ + j] = sum * emit[t * k_ + j];
      norm += (*alpha)[t * k_ + j];
    }
    if (norm < kTiny) norm = kTiny;
    (*scale)[t] = norm;
    for (size_t j = 0; j < k_; ++j) (*alpha)[t * k_ + j] /= norm;
  }

  // Backward with the same scaling factors.
  for (size_t s = 0; s < k_; ++s) (*beta)[(t_len - 1) * k_ + s] = 1.0;
  for (size_t t = t_len - 1; t-- > 0;) {
    for (size_t i = 0; i < k_; ++i) {
      double sum = 0;
      for (size_t j = 0; j < k_; ++j) {
        sum += transitions_[i * k_ + j] * emit[(t + 1) * k_ + j] *
               (*beta)[(t + 1) * k_ + j];
      }
      (*beta)[t * k_ + i] = sum / (*scale)[t + 1];
    }
  }
}

StatusOr<std::vector<double>> GaussianHmm::Posteriors(
    const std::vector<double>& sequence) const {
  if (!fitted()) return Status::FailedPrecondition("HMM not fitted");
  if (sequence.empty()) return Status::InvalidArgument("empty sequence");
  std::vector<double> emit, alpha, beta, scale;
  EmissionTable(sequence, &emit);
  ForwardBackward(emit, sequence.size(), &alpha, &beta, &scale);
  std::vector<double> post(sequence.size() * k_);
  for (size_t t = 0; t < sequence.size(); ++t) {
    double norm = 0;
    for (size_t s = 0; s < k_; ++s) {
      post[t * k_ + s] = alpha[t * k_ + s] * beta[t * k_ + s];
      norm += post[t * k_ + s];
    }
    if (norm < kTiny) norm = kTiny;
    for (size_t s = 0; s < k_; ++s) post[t * k_ + s] /= norm;
  }
  return post;
}

StatusOr<std::vector<double>> GaussianHmm::Smooth(
    const std::vector<double>& sequence) const {
  MLCASK_ASSIGN_OR_RETURN(std::vector<double> post, Posteriors(sequence));
  std::vector<double> out(sequence.size(), 0.0);
  for (size_t t = 0; t < sequence.size(); ++t) {
    for (size_t s = 0; s < k_; ++s) {
      out[t] += post[t * k_ + s] * means_[s];
    }
  }
  return out;
}

StatusOr<double> GaussianHmm::LogLikelihood(
    const std::vector<double>& sequence) const {
  if (!fitted()) return Status::FailedPrecondition("HMM not fitted");
  if (sequence.empty()) return Status::InvalidArgument("empty sequence");
  std::vector<double> emit, alpha, beta, scale;
  EmissionTable(sequence, &emit);
  ForwardBackward(emit, sequence.size(), &alpha, &beta, &scale);
  double ll = 0;
  for (double s : scale) ll += std::log(s);
  return ll;
}

}  // namespace mlcask::ml
