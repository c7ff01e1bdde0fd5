// Differential tests of the ML kernels' bit-exact contract. The kernels in
// src/ml/ (MLP, AdaBoost, Gaussian HMM, Zernike) were rewritten to do less
// work per call; each must still return exactly the bits of the plain
// scalar version it replaced. Those plain versions are kept below as
// reference implementations, and every output is compared with memcmp over
// seeded shapes that cover vector-width tails, empty and degenerate inputs
// and every early exit. The MLP and AdaBoost cases run on each
// instantiation of the training kernels the CPU can run
// (src/ml/train_internal.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/adaboost.h"
#include "ml/hmm.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/train_internal.h"
#include "ml/zernike.h"

namespace mlcask::ml {
namespace {

// ---------------------------------------------------------------------------
// Bitwise comparison.

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (!SameBits(a[i], b[i])) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix RandomMatrix(size_t rows, size_t cols, Pcg32* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->NextGaussian();
  return m;
}

// ---------------------------------------------------------------------------
// Reference implementations: the scalar kernels as they were before the
// rewrite, kept as the definition of the expected bits.

double RefSigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

struct RefMlp {
  size_t input_dim = 0;
  size_t hidden = 0;
  std::vector<double> w1;  // hidden x input
  std::vector<double> b1;
  std::vector<double> w2;
  double b2 = 0;
  double final_loss = 0;
  std::vector<double> loss_history;

  void Fit(const Matrix& x, const std::vector<double>& y,
           const MlpConfig& config) {
    const size_t n = x.rows();
    input_dim = x.cols();
    hidden = config.hidden_units;
    Pcg32 rng(config.sgd.seed);
    auto init = [&](size_t count, double scale) {
      std::vector<double> v(count);
      for (double& w : v) w = rng.NextGaussian() * scale;
      return v;
    };
    double scale1 = 1.0 / std::sqrt(static_cast<double>(input_dim));
    double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden));
    w1 = init(hidden * input_dim, scale1);
    b1.assign(hidden, 0.0);
    w2 = init(hidden, scale2);
    b2 = 0.0;
    loss_history.clear();

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> h(hidden), grad_w2(hidden), grad_b1(hidden);
    std::vector<double> grad_w1(hidden * input_dim);
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
          for (size_t u = 0; u < hidden; ++u) {
            double z = b1[u];
            const double* wrow = w1.data() + u * input_dim;
            for (size_t j = 0; j < input_dim; ++j) z += wrow[j] * row[j];
            h[u] = std::tanh(z);
          }
          double z2 = b2;
          for (size_t u = 0; u < hidden; ++u) z2 += w2[u] * h[u];
          double p = RefSigmoid(z2);
          double pc = std::clamp(p, 1e-12, 1.0 - 1e-12);
          loss_sum += y[i] > 0.5 ? -std::log(pc) : -std::log(1.0 - pc);
          double delta2 = p - y[i];
          grad_b2 += delta2;
          for (size_t u = 0; u < hidden; ++u) {
            grad_w2[u] += delta2 * h[u];
            double delta1 = delta2 * w2[u] * (1.0 - h[u] * h[u]);
            grad_b1[u] += delta1;
            double* grow = grad_w1.data() + u * input_dim;
            for (size_t j = 0; j < input_dim; ++j) grow[j] += delta1 * row[j];
          }
        }
        double scale = lr / static_cast<double>(end - start);
        for (size_t k = 0; k < w1.size(); ++k) {
          w1[k] -= scale * grad_w1[k] + lr * l2 * w1[k];
        }
        for (size_t u = 0; u < hidden; ++u) {
          b1[u] -= scale * grad_b1[u];
          w2[u] -= scale * grad_w2[u] + lr * l2 * w2[u];
        }
        b2 -= scale * grad_b2;
      }
      final_loss = loss_sum / static_cast<double>(n);
      loss_history.push_back(final_loss);
    }
  }

  std::vector<double> PredictProba(const Matrix& x) const {
    std::vector<double> out;
    std::vector<double> h(hidden);
    for (size_t i = 0; i < x.rows(); ++i) {
      const double* row = x.Row(i);
      for (size_t u = 0; u < hidden; ++u) {
        double z = b1[u];
        const double* wrow = w1.data() + u * input_dim;
        for (size_t j = 0; j < input_dim; ++j) z += wrow[j] * row[j];
        h[u] = std::tanh(z);
      }
      double z2 = b2;
      for (size_t u = 0; u < hidden; ++u) z2 += w2[u] * h[u];
      out.push_back(RefSigmoid(z2));
    }
    return out;
  }
};

struct RefAdaBoost {
  std::vector<DecisionStump> stumps;
  double final_round_error = 0.5;

  void Fit(const Matrix& x, const std::vector<double>& y,
           const AdaBoostConfig& config) {
    const size_t n = x.rows();
    const size_t d = x.cols();
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) labels[i] = y[i] > 0.5 ? 1 : -1;
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
    std::vector<double> w(n, 1.0 / static_cast<double>(n));
    stumps.clear();
    for (int round = 0; round < config.rounds; ++round) {
      DecisionStump best;
      double best_err = 1.0;
      for (size_t j = 0; j < d; ++j) {
        for (double thr : candidates[j]) {
          double err_pos = 0;
          for (size_t i = 0; i < n; ++i) {
            int pred = x.At(i, j) >= thr ? 1 : -1;
            if (pred != labels[i]) err_pos += w[i];
          }
          if (err_pos < best_err) {
            best_err = err_pos;
            best = {j, thr, 1, 0};
          }
          if (1.0 - err_pos < best_err) {
            best_err = 1.0 - err_pos;
            best = {j, thr, -1, 0};
          }
        }
      }
      final_round_error = best_err;
      double eps = std::clamp(best_err, 1e-10, 1.0 - 1e-10);
      best.weight = 0.5 * std::log((1.0 - eps) / eps);
      stumps.push_back(best);
      if (best_err >= 0.5) break;
      double norm = 0;
      for (size_t i = 0; i < n; ++i) {
        int pred = best.Predict(x.Row(i));
        w[i] *= std::exp(-best.weight * pred * labels[i]);
        norm += w[i];
      }
      if (norm <= 0) break;
      for (double& wi : w) wi /= norm;
      if (best_err < 1e-9) break;
    }
  }

  std::vector<double> PredictProba(const Matrix& x) const {
    std::vector<double> out;
    for (size_t i = 0; i < x.rows(); ++i) {
      double margin = 0;
      for (const DecisionStump& s : stumps) {
        margin += s.weight * s.Predict(x.Row(i));
      }
      out.push_back(1.0 / (1.0 + std::exp(-2.0 * margin)));
    }
    return out;
  }
};

struct RefHmm {
  static constexpr double kTiny = 1e-300;
  size_t k = 0;
  std::vector<double> initial, transitions, means, variances;

  double Emission(size_t state, double x) const {
    double var = variances[state];
    double d = x - means[state];
    return std::exp(-0.5 * d * d / var) / std::sqrt(2.0 * M_PI * var);
  }

  void ForwardBackward(const std::vector<double>& seq,
                       std::vector<double>* alpha, std::vector<double>* beta,
                       std::vector<double>* scale) const {
    const size_t t_len = seq.size();
    alpha->assign(t_len * k, 0.0);
    beta->assign(t_len * k, 0.0);
    scale->assign(t_len, 0.0);
    double norm = 0;
    for (size_t s = 0; s < k; ++s) {
      (*alpha)[s] = initial[s] * Emission(s, seq[0]);
      norm += (*alpha)[s];
    }
    if (norm < kTiny) norm = kTiny;
    (*scale)[0] = norm;
    for (size_t s = 0; s < k; ++s) (*alpha)[s] /= norm;
    for (size_t t = 1; t < t_len; ++t) {
      norm = 0;
      for (size_t j = 0; j < k; ++j) {
        double sum = 0;
        for (size_t i = 0; i < k; ++i) {
          sum += (*alpha)[(t - 1) * k + i] * transitions[i * k + j];
        }
        (*alpha)[t * k + j] = sum * Emission(j, seq[t]);
        norm += (*alpha)[t * k + j];
      }
      if (norm < kTiny) norm = kTiny;
      (*scale)[t] = norm;
      for (size_t j = 0; j < k; ++j) (*alpha)[t * k + j] /= norm;
    }
    for (size_t s = 0; s < k; ++s) (*beta)[(t_len - 1) * k + s] = 1.0;
    for (size_t t = t_len - 1; t-- > 0;) {
      for (size_t i = 0; i < k; ++i) {
        double sum = 0;
        for (size_t j = 0; j < k; ++j) {
          sum += transitions[i * k + j] * Emission(j, seq[t + 1]) *
                 (*beta)[(t + 1) * k + j];
        }
        (*beta)[t * k + i] = sum / (*scale)[t + 1];
      }
    }
  }

  void Fit(const std::vector<double>& sequence, const HmmConfig& config) {
    k = config.num_states;
    const double min_variance = config.min_variance;
    const size_t t_len = sequence.size();
    std::vector<double> sorted = sequence;
    std::sort(sorted.begin(), sorted.end());
    means.resize(k);
    for (size_t s = 0; s < k; ++s) {
      means[s] = sorted[(t_len - 1) * (s + 1) / (k + 1)];
    }
    double mean_all = 0;
    for (double v : sequence) mean_all += v;
    mean_all /= static_cast<double>(t_len);
    double var_all = 0;
    for (double v : sequence) var_all += (v - mean_all) * (v - mean_all);
    var_all = std::max(var_all / static_cast<double>(t_len), min_variance);
    variances.assign(k, var_all);
    initial.assign(k, 1.0 / static_cast<double>(k));
    transitions.assign(k * k, 0.0);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        transitions[i * k + j] =
            i == j ? 0.8 : 0.2 / static_cast<double>(k - 1 == 0 ? 1 : k - 1);
      }
    }
    Pcg32 rng(config.seed);
    for (double& m : means) m += 1e-6 * rng.NextGaussian();

    std::vector<double> alpha, beta, scale;
    std::vector<double> gamma(t_len * k);
    std::vector<double> xi_sum(k * k);
    for (int iter = 0; iter < config.em_iterations; ++iter) {
      ForwardBackward(sequence, &alpha, &beta, &scale);
      for (size_t t = 0; t < t_len; ++t) {
        double norm = 0;
        for (size_t s = 0; s < k; ++s) {
          gamma[t * k + s] = alpha[t * k + s] * beta[t * k + s];
          norm += gamma[t * k + s];
        }
        if (norm < kTiny) norm = kTiny;
        for (size_t s = 0; s < k; ++s) gamma[t * k + s] /= norm;
      }
      std::fill(xi_sum.begin(), xi_sum.end(), 0.0);
      for (size_t t = 0; t + 1 < t_len; ++t) {
        double norm = 0;
        for (size_t i = 0; i < k; ++i) {
          for (size_t j = 0; j < k; ++j) {
            double v = alpha[t * k + i] * transitions[i * k + j] *
                       Emission(j, sequence[t + 1]) * beta[(t + 1) * k + j];
            norm += v;
          }
        }
        if (norm < kTiny) norm = kTiny;
        for (size_t i = 0; i < k; ++i) {
          for (size_t j = 0; j < k; ++j) {
            double v = alpha[t * k + i] * transitions[i * k + j] *
                       Emission(j, sequence[t + 1]) * beta[(t + 1) * k + j];
            xi_sum[i * k + j] += v / norm;
          }
        }
      }
      for (size_t s = 0; s < k; ++s) initial[s] = gamma[s];
      for (size_t i = 0; i < k; ++i) {
        double row_sum = 0;
        for (size_t j = 0; j < k; ++j) row_sum += xi_sum[i * k + j];
        if (row_sum < kTiny) row_sum = kTiny;
        for (size_t j = 0; j < k; ++j) {
          transitions[i * k + j] = xi_sum[i * k + j] / row_sum;
        }
      }
      for (size_t s = 0; s < k; ++s) {
        double g_sum = 0, weighted = 0;
        for (size_t t = 0; t < t_len; ++t) {
          g_sum += gamma[t * k + s];
          weighted += gamma[t * k + s] * sequence[t];
        }
        if (g_sum < kTiny) g_sum = kTiny;
        means[s] = weighted / g_sum;
        double var = 0;
        for (size_t t = 0; t < t_len; ++t) {
          double d = sequence[t] - means[s];
          var += gamma[t * k + s] * d * d;
        }
        variances[s] = std::max(var / g_sum, min_variance);
      }
    }
  }

  std::vector<double> Posteriors(const std::vector<double>& sequence) const {
    std::vector<double> alpha, beta, scale;
    ForwardBackward(sequence, &alpha, &beta, &scale);
    std::vector<double> post(sequence.size() * k);
    for (size_t t = 0; t < sequence.size(); ++t) {
      double norm = 0;
      for (size_t s = 0; s < k; ++s) {
        post[t * k + s] = alpha[t * k + s] * beta[t * k + s];
        norm += post[t * k + s];
      }
      if (norm < kTiny) norm = kTiny;
      for (size_t s = 0; s < k; ++s) post[t * k + s] /= norm;
    }
    return post;
  }

  std::vector<double> Smooth(const std::vector<double>& sequence) const {
    std::vector<double> post = Posteriors(sequence);
    std::vector<double> out(sequence.size(), 0.0);
    for (size_t t = 0; t < sequence.size(); ++t) {
      for (size_t s = 0; s < k; ++s) out[t] += post[t * k + s] * means[s];
    }
    return out;
  }

  double LogLikelihood(const std::vector<double>& sequence) const {
    std::vector<double> alpha, beta, scale;
    ForwardBackward(sequence, &alpha, &beta, &scale);
    double ll = 0;
    for (double s : scale) ll += std::log(s);
    return ll;
  }
};

double RefFactorial(int n) {
  double f = 1;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

double RefRadial(int n, int m, double rho) {
  double sum = 0;
  for (int s = 0; s <= (n - m) / 2; ++s) {
    double num = (s % 2 == 0 ? 1.0 : -1.0) * RefFactorial(n - s);
    double den = RefFactorial(s) * RefFactorial((n + m) / 2 - s) *
                 RefFactorial((n - m) / 2 - s);
    sum += num / den * std::pow(rho, n - 2 * s);
  }
  return sum;
}

std::vector<double> RefZernike(int max_order, const std::vector<double>& pixels,
                               size_t side) {
  const double center = (static_cast<double>(side) - 1.0) / 2.0;
  const double radius = static_cast<double>(side) / 2.0;
  std::vector<double> out;
  for (int n = 0; n <= max_order; ++n) {
    for (int m = 0; m <= n; ++m) {
      if ((n - m) % 2 != 0) continue;
      double re = 0, im = 0;
      for (size_t yy = 0; yy < side; ++yy) {
        for (size_t xx = 0; xx < side; ++xx) {
          double px = pixels[yy * side + xx];
          if (px == 0.0) continue;
          double dx = (static_cast<double>(xx) - center) / radius;
          double dy = (static_cast<double>(yy) - center) / radius;
          double rho = std::sqrt(dx * dx + dy * dy);
          if (rho > 1.0) continue;
          double theta = std::atan2(dy, dx);
          double r = RefRadial(n, m, rho);
          re += px * r * std::cos(m * theta);
          im -= px * r * std::sin(m * theta);
        }
      }
      double norm = (n + 1.0) / M_PI;
      re *= norm;
      im *= norm;
      out.push_back(std::sqrt(re * re + im * im));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The training kernels' instantiations: every MLP and AdaBoost case below
// runs on the two-lane one and, where the CPU has AVX-512F and DQ, on the
// eight-lane one.

class TrainKernelsTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    kernels_ = GetParam() == 8 ? train_internal::EightLane()
                               : &train_internal::TwoLane();
    if (kernels_ == nullptr) {
      GTEST_SKIP() << "eight lanes: CPU lacks AVX-512F or AVX-512DQ, or "
                      "not an x86-64 GCC build";
    }
  }

  struct MlpRun {
    MlpWeights weights;
    std::vector<double> loss_history;
  };

  MlpRun FitMlp(const Matrix& x, const std::vector<double>& y,
                const MlpConfig& cfg) const {
    MlpRun run;
    kernels_->mlp_fit(x, y, cfg, &run.weights, &run.loss_history);
    return run;
  }

  std::vector<double> Predict(const MlpRun& run, const Matrix& x) const {
    std::vector<double> out(x.rows());
    kernels_->mlp_predict(run.weights, x, out.data());
    return out;
  }

  // Fits on this instantiation and compares the loss history and the
  // predictions on `x` and each of `held_out` with the reference's.
  void ExpectMlpMatches(const Matrix& x, const std::vector<double>& y,
                        const MlpConfig& cfg,
                        const std::vector<const Matrix*>& held_out = {}) {
    RefMlp ref;
    ref.Fit(x, y, cfg);
    const MlpRun run = FitMlp(x, y, cfg);
    EXPECT_TRUE(SameBits(run.loss_history, ref.loss_history));
    if (!run.loss_history.empty()) {
      EXPECT_TRUE(SameBits(run.loss_history.back(), ref.final_loss));
    }
    EXPECT_TRUE(SameBits(Predict(run, x), ref.PredictProba(x)));
    for (const Matrix* m : held_out) {
      EXPECT_TRUE(SameBits(Predict(run, *m), ref.PredictProba(*m)));
    }
  }

  // Fits on this instantiation and compares the stumps, their weights and
  // the final round's error with the reference's; returns the stumps.
  std::vector<DecisionStump> ExpectAdaBoostMatches(
      const Matrix& x, const std::vector<double>& y,
      const AdaBoostConfig& cfg, const RefAdaBoost& ref) const {
    std::vector<DecisionStump> stumps;
    double final_round_error = -1;
    kernels_->adaboost_fit(x, y, cfg, &stumps, &final_round_error);
    EXPECT_EQ(stumps.size(), ref.stumps.size());
    for (size_t r = 0; r < std::min(stumps.size(), ref.stumps.size()); ++r) {
      const DecisionStump& a = stumps[r];
      const DecisionStump& b = ref.stumps[r];
      EXPECT_EQ(a.feature, b.feature) << "round " << r;
      EXPECT_EQ(a.polarity, b.polarity) << "round " << r;
      EXPECT_TRUE(SameBits(a.threshold, b.threshold)) << "round " << r;
      EXPECT_TRUE(SameBits(a.weight, b.weight)) << "round " << r;
    }
    EXPECT_TRUE(SameBits(final_round_error, ref.final_round_error));
    return stumps;
  }

  const train_internal::Kernels* kernels_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Lanes, TrainKernelsTest, ::testing::Values(2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(info.param == 8 ? "EightLane"
                                                              : "TwoLane");
                         });

// Mlp and AdaBoost train on the live instantiation; reports which it is.
TEST(MlExactTest, ModelsTrainOnTheLiveInstantiation) {
  const train_internal::Kernels& live = train_internal::Live();
  std::printf("[ train    ] Mlp and AdaBoost path: %s\n", live.name);
  RecordProperty("train_path", live.name);
  EXPECT_EQ(&live, train_internal::EightLane() != nullptr
                       ? train_internal::EightLane()
                       : &train_internal::TwoLane());

  Pcg32 rng(5);
  Matrix x = RandomMatrix(45, 6, &rng);
  std::vector<double> y(45);
  for (double& v : y) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  MlpConfig cfg;
  cfg.hidden_units = 13;
  cfg.sgd.epochs = 3;
  Mlp mlp;
  ASSERT_TRUE(mlp.Fit(x, y, cfg).ok());
  MlpWeights weights;
  std::vector<double> loss_history;
  live.mlp_fit(x, y, cfg, &weights, &loss_history);
  EXPECT_TRUE(SameBits(mlp.loss_history(), loss_history));
  EXPECT_TRUE(SameBits(mlp.final_loss(), loss_history.back()));
  std::vector<double> p(x.rows());
  live.mlp_predict(weights, x, p.data());
  EXPECT_TRUE(SameBits(*mlp.PredictProba(x), p));

  AdaBoostConfig boost;
  boost.rounds = 9;
  AdaBoost model;
  ASSERT_TRUE(model.Fit(x, y, boost).ok());
  std::vector<DecisionStump> stumps;
  double final_round_error = -1;
  live.adaboost_fit(x, y, boost, &stumps, &final_round_error);
  ASSERT_EQ(model.stumps().size(), stumps.size());
  for (size_t r = 0; r < stumps.size(); ++r) {
    EXPECT_TRUE(SameBits(model.stumps()[r].weight, stumps[r].weight));
  }
  EXPECT_TRUE(SameBits(model.final_round_error(), final_round_error));
  RefAdaBoost ref;
  ref.stumps = stumps;
  EXPECT_TRUE(SameBits(*model.PredictProba(x), ref.PredictProba(x)));
}

// ---------------------------------------------------------------------------
// MLP: hidden widths straddle the vector widths and the unit tiles; row
// counts straddle the default 32-row mini-batch.

TEST_P(TrainKernelsTest, MlpMatchesReference) {
  int cases = 0;
  for (size_t hidden : {1, 2, 3, 7, 8, 9, 16, 22, 30}) {
    for (size_t d : {1, 2, 7, 12, 13}) {
      for (size_t n : {1, 31, 32, 33, 84}) {
        const uint64_t seed = 1000 + hidden * 97 + d * 13 + n;
        Pcg32 rng(seed);
        Matrix x = RandomMatrix(n, d, &rng);
        std::vector<double> y(n);
        for (double& v : y) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
        Matrix held_out = RandomMatrix(17, d, &rng);

        MlpConfig cfg;
        cfg.hidden_units = hidden;
        cfg.sgd.epochs = 3;
        cfg.sgd.learning_rate = 0.2;
        cfg.sgd.l2 = (n % 2 == 0) ? 1e-3 : 0.0;
        cfg.sgd.seed = seed;
        SCOPED_TRACE("hidden=" + std::to_string(hidden) + " d=" +
                     std::to_string(d) + " n=" + std::to_string(n));
        ExpectMlpMatches(x, y, cfg, {&held_out});
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 9 * 5 * 5);
}

// Every hidden width from 1 to 34: each remainder of the unit tiles (two
// vectors per tile, then a last tile of one or two vectors whose last
// vector may be partial) on both instantiations, and every width the
// `merge` workload trains (even widths 12 to 34).
TEST_P(TrainKernelsTest, MlpMatchesReferenceAtEveryHiddenWidth) {
  int cases = 0;
  for (size_t hidden = 1; hidden <= 34; ++hidden) {
    for (size_t d : {1, 5, 12}) {
      const size_t n = 37 + hidden % 5;
      const uint64_t seed = 9000 + hidden * 31 + d;
      Pcg32 rng(seed);
      Matrix x = RandomMatrix(n, d, &rng);
      std::vector<double> y(n);
      for (double& v : y) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
      Matrix held_out = RandomMatrix(9, d, &rng);
      MlpConfig cfg;
      cfg.hidden_units = hidden;
      cfg.sgd.epochs = 2;
      cfg.sgd.learning_rate = 0.25;
      cfg.sgd.l2 = (hidden % 2 == 0) ? 1e-3 : 0.0;
      cfg.sgd.seed = seed;
      SCOPED_TRACE("hidden=" + std::to_string(hidden) +
                   " d=" + std::to_string(d) + " n=" + std::to_string(n));
      ExpectMlpMatches(x, y, cfg, {&held_out});
      ++cases;
    }
  }
  EXPECT_EQ(cases, 34 * 3);
}

TEST_P(TrainKernelsTest, MlpMatchesReferenceAtWorkloadShapes) {
  // The merge workload's training shapes, with its epoch counts and an odd
  // mini-batch so the last batch is short.
  struct Shape { size_t n, d, hidden; int epochs; size_t batch; };
  for (const Shape& s : {Shape{84, 12, 22, 15, 32}, Shape{63, 13, 16, 12, 32},
                         Shape{126, 7, 18, 13, 32}, Shape{50, 9, 30, 20, 7}}) {
    Pcg32 rng(s.n * 31 + s.d);
    Matrix x = RandomMatrix(s.n, s.d, &rng);
    std::vector<double> y(s.n);
    for (size_t i = 0; i < s.n; ++i) y[i] = x.At(i, 0) > 0 ? 1.0 : 0.0;
    MlpConfig cfg;
    cfg.hidden_units = s.hidden;
    cfg.sgd.epochs = s.epochs;
    cfg.sgd.batch_size = s.batch;
    cfg.sgd.learning_rate = 0.2;
    SCOPED_TRACE("n=" + std::to_string(s.n));
    ExpectMlpMatches(x, y, cfg);
  }
}

// Fit works on each mini-batch as one block of rows, four rows per pass
// (then two, then one); PredictProba on blocks of 32 rows. Batch sizes
// around both, each with row counts that leave every remainder of the
// batch (so the last batch takes every size from 1 to the batch size) and
// so every remainder of the four-row block; input and hidden widths cycle
// through every remainder of their four-wide tiles.
TEST_P(TrainKernelsTest, MlpMatchesReferenceAtEveryBlockRemainder) {
  int cases = 0;
  for (size_t batch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33}) {
    for (size_t rem = 0; rem < batch; ++rem) {
      const size_t n = batch + rem;
      const size_t d = 1 + (rem + batch) % 8;
      const size_t hidden = 1 + (3 * rem + batch) % 9;
      const uint64_t seed = 7000 + batch * 101 + rem;
      Pcg32 rng(seed);
      Matrix x = RandomMatrix(n, d, &rng);
      std::vector<double> y(n);
      for (double& v : y) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;

      MlpConfig cfg;
      cfg.hidden_units = hidden;
      cfg.sgd.epochs = 2;
      cfg.sgd.batch_size = batch;
      cfg.sgd.learning_rate = 0.3;
      cfg.sgd.l2 = (rem % 2 == 0) ? 1e-3 : 0.0;
      cfg.sgd.seed = seed;
      SCOPED_TRACE("batch=" + std::to_string(batch) + " n=" +
                   std::to_string(n) + " d=" + std::to_string(d) +
                   " hidden=" + std::to_string(hidden));
      ExpectMlpMatches(x, y, cfg);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 45 + 31 + 32 + 33);
}

TEST_P(TrainKernelsTest, MlpPredictProbaMatchesReferenceAtEveryRowCount) {
  Pcg32 rng(77);
  const size_t d = 6, hidden = 11;
  Matrix x = RandomMatrix(40, d, &rng);
  std::vector<double> y(40);
  for (double& v : y) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  MlpConfig cfg;
  cfg.hidden_units = hidden;
  cfg.sgd.epochs = 2;
  cfg.sgd.learning_rate = 0.3;
  RefMlp ref;
  ref.Fit(x, y, cfg);
  const MlpRun run = FitMlp(x, y, cfg);
  for (size_t rows : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 65, 66}) {
    Matrix held_out = RandomMatrix(rows, d, &rng);
    EXPECT_TRUE(SameBits(Predict(run, held_out), ref.PredictProba(held_out)))
        << rows << " rows";
  }
}

// ---------------------------------------------------------------------------
// AdaBoost.

enum class BoostSet { kNoisy, kConstantAndDuplicates, kSeparable, kNoise };

// `kNoisy`: labels follow two features with noise. `kConstantAndDuplicates`:
// adds a constant column and a column of three distinct values (duplicate
// quantiles). `kSeparable`: column 0 alone separates the labels, so the
// first round hits the `best_err < 1e-9` exit. `kNoise`: rows come in pairs
// with equal features and opposite labels, so no stump beats chance and the
// `best_err >= 0.5` exit can fire.
void MakeBoostSet(BoostSet kind, size_t n, size_t d, uint64_t seed, Matrix* x,
                  std::vector<double>* y) {
  Pcg32 rng(seed);
  *x = RandomMatrix(n, d, &rng);
  y->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    switch (kind) {
      case BoostSet::kNoisy:
      case BoostSet::kConstantAndDuplicates: {
        double s = x->At(i, 0) + (d > 1 ? 0.5 * x->At(i, 1) : 0.0) +
                   0.7 * rng.NextGaussian();
        (*y)[i] = s > 0 ? 1.0 : 0.0;
        if (kind == BoostSet::kConstantAndDuplicates) {
          x->At(i, d - 1) = 2.5;
          if (d > 1) x->At(i, 0) = static_cast<double>(i % 3);
        }
        break;
      }
      case BoostSet::kSeparable:
        x->At(i, 0) = (i % 2 == 0) ? 0.0 : 1.0;
        (*y)[i] = x->At(i, 0);
        break;
      case BoostSet::kNoise:
        if (i % 2 == 1) {
          for (size_t j = 0; j < d; ++j) x->At(i, j) = x->At(i - 1, j);
        }
        (*y)[i] = (i % 2 == 0) ? 1.0 : 0.0;
        break;
    }
  }
}

TEST_P(TrainKernelsTest, AdaBoostMatchesReference) {
  bool saw_separable_exit = false, saw_chance_exit = false;
  for (BoostSet kind : {BoostSet::kNoisy, BoostSet::kConstantAndDuplicates,
                        BoostSet::kSeparable, BoostSet::kNoise}) {
    for (size_t d : {1, 3, 26}) {
      for (size_t n : {2, 42, 84}) {
        for (int rounds : {1, 2, 7, 30, 55}) {
          const uint64_t seed = 7 * n + 131 * d + static_cast<uint64_t>(kind);
          Matrix x;
          std::vector<double> y;
          MakeBoostSet(kind, n, d, seed, &x, &y);
          Pcg32 rng(seed + 1);
          Matrix held_out = RandomMatrix(11, d, &rng);
          for (size_t thresholds : {size_t{16}, size_t{5}}) {
            AdaBoostConfig cfg;
            cfg.rounds = rounds;
            cfg.thresholds_per_feature = thresholds;
            RefAdaBoost ref;
            ref.Fit(x, y, cfg);
            SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                         " d=" + std::to_string(d) + " n=" + std::to_string(n) +
                         " rounds=" + std::to_string(rounds) +
                         " thresholds=" + std::to_string(thresholds));
            RefAdaBoost fitted;
            fitted.stumps = ExpectAdaBoostMatches(x, y, cfg, ref);
            EXPECT_TRUE(SameBits(fitted.PredictProba(x), ref.PredictProba(x)));
            EXPECT_TRUE(SameBits(fitted.PredictProba(held_out),
                                 ref.PredictProba(held_out)));
            const bool early =
                ref.stumps.size() < static_cast<size_t>(rounds);
            if (early && ref.final_round_error < 1e-9) saw_separable_exit = true;
            if (early && ref.final_round_error >= 0.5) saw_chance_exit = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_separable_exit);
  EXPECT_TRUE(saw_chance_exit);
}

// Every per-feature threshold count from 1 to 17: each remainder of a
// threshold block (8 per pass on two lanes, 16 on eight), and 17, a
// partial second block of sixteen.
TEST_P(TrainKernelsTest, AdaBoostMatchesReferenceAtEveryThresholdCount) {
  for (size_t thresholds = 1; thresholds <= 17; ++thresholds) {
    for (size_t d : {1, 4}) {
      Matrix x;
      std::vector<double> y;
      MakeBoostSet(BoostSet::kNoisy, 60, d, 300 + thresholds * 7 + d, &x, &y);
      AdaBoostConfig cfg;
      cfg.rounds = 12;
      cfg.thresholds_per_feature = thresholds;
      RefAdaBoost ref;
      ref.Fit(x, y, cfg);
      SCOPED_TRACE("thresholds=" + std::to_string(thresholds) +
                   " d=" + std::to_string(d));
      ExpectAdaBoostMatches(x, y, cfg, ref);
    }
  }
}

TEST_P(TrainKernelsTest, AdaBoostMatchesReferenceAtWorkloadShape) {
  Matrix x;
  std::vector<double> y;
  MakeBoostSet(BoostSet::kNoisy, 42, 26, 99, &x, &y);
  AdaBoostConfig cfg;
  cfg.rounds = 45;
  RefAdaBoost ref;
  ref.Fit(x, y, cfg);
  EXPECT_EQ(ref.stumps.size(), 45u);
  ExpectAdaBoostMatches(x, y, cfg, ref);
}

// ---------------------------------------------------------------------------
// Gaussian HMM.

std::vector<double> RegimeSequence(size_t t_len, size_t k, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> seq(t_len);
  size_t state = 0;
  for (double& v : seq) {
    if (rng.Bernoulli(0.2)) state = static_cast<size_t>(rng.Uniform(0, k)) % k;
    v = 2.0 * static_cast<double>(state) + 0.6 * rng.NextGaussian();
  }
  return seq;
}

TEST(MlExactTest, HmmMatchesReference) {
  for (size_t k : {1, 2, 3, 4}) {
    for (size_t t_len : {2 * k, size_t{12}, size_t{120}}) {
      for (int iterations : {0, 1, 10}) {
        const uint64_t seed = 17 * k + t_len + static_cast<uint64_t>(iterations);
        std::vector<double> seq = RegimeSequence(t_len, k, seed);
        std::vector<double> other = RegimeSequence(7, k, seed + 5);
        HmmConfig cfg;
        cfg.num_states = k;
        cfg.em_iterations = iterations;
        cfg.seed = seed;
        RefHmm ref;
        ref.Fit(seq, cfg);
        GaussianHmm hmm;
        ASSERT_TRUE(hmm.Fit(seq, cfg).ok());
        SCOPED_TRACE("k=" + std::to_string(k) + " T=" + std::to_string(t_len) +
                     " iterations=" + std::to_string(iterations));
        EXPECT_TRUE(SameBits(hmm.means(), ref.means));
        EXPECT_TRUE(SameBits(hmm.variances(), ref.variances));
        EXPECT_TRUE(SameBits(hmm.initial(), ref.initial));
        EXPECT_TRUE(SameBits(hmm.transitions(), ref.transitions));
        for (const std::vector<double>* s : {&seq, &other}) {
          EXPECT_TRUE(SameBits(*hmm.Posteriors(*s), ref.Posteriors(*s)));
          EXPECT_TRUE(SameBits(*hmm.Smooth(*s), ref.Smooth(*s)));
          EXPECT_TRUE(SameBits(*hmm.LogLikelihood(*s), ref.LogLikelihood(*s)));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Zernike: both the one-image entry point and a basis shared by a batch.

TEST(MlExactTest, ZernikeMatchesReference) {
  for (int order : {0, 4, 6, 10}) {
    ZernikeExtractor extractor(order);
    for (size_t side : {1, 2, 15, 16, 32}) {
      auto basis = extractor.MakeBasis(side);
      ASSERT_TRUE(basis.ok());
      Pcg32 rng(order * 100 + side);
      std::vector<std::vector<double>> images;
      images.emplace_back(side * side, 0.0);  // all zero
      images.emplace_back(side * side, 1.0);  // all lit
      std::vector<double> sparse(side * side, 0.0);
      for (double& px : sparse) {
        if (rng.Bernoulli(0.15)) px = rng.Uniform(0, 1);
      }
      images.push_back(sparse);
      std::vector<double> dense(side * side);
      for (double& px : dense) px = rng.Uniform(0, 1);
      images.push_back(dense);
      for (size_t i = 0; i < images.size(); ++i) {
        SCOPED_TRACE("order=" + std::to_string(order) +
                     " side=" + std::to_string(side) +
                     " image=" + std::to_string(i));
        std::vector<double> expected = RefZernike(order, images[i], side);
        auto one = extractor.Extract(images[i], side);
        ASSERT_TRUE(one.ok());
        EXPECT_TRUE(SameBits(*one, expected));
        std::vector<double> batched(extractor.NumFeatures());
        basis->Apply(images[i].data(), batched.data());
        EXPECT_TRUE(SameBits(batched, expected));
      }
    }
  }
}

}  // namespace
}  // namespace mlcask::ml
