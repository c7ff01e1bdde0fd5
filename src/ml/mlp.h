#ifndef MLCASK_ML_MLP_H_
#define MLCASK_ML_MLP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ml/logreg.h"
#include "ml/matrix.h"

namespace mlcask::ml {

/// Configuration of the small feed-forward network.
struct MlpConfig {
  size_t hidden_units = 16;
  SgdConfig sgd;
};

/// The parameters of a one-hidden-layer network over `inputs` features.
struct MlpWeights {
  size_t inputs = 0;
  size_t hidden = 0;
  std::vector<double> w1;  // inputs x hidden (input-major)
  std::vector<double> b1;  // hidden
  std::vector<double> w2;  // hidden
  double b2 = 0;
};

/// A one-hidden-layer perceptron (tanh hidden, sigmoid output) trained with
/// mini-batch SGD. Stands in for the paper's CNN / "DL model" components:
/// the experiments need a genuinely trained model whose quality responds to
/// upstream feature changes and hyperparameters, not a specific architecture.
class Mlp {
 public:
  Status Fit(const Matrix& x, const std::vector<double>& y,
             const MlpConfig& config);

  StatusOr<std::vector<double>> PredictProba(const Matrix& x) const;

  bool fitted() const { return !weights_.w1.empty(); }
  double final_loss() const { return final_loss_; }

  /// Mean training log-loss recorded at the end of each epoch — consumed by
  /// the distributed-training simulation (Fig. 11a's loss-vs-time curves).
  const std::vector<double>& loss_history() const { return loss_history_; }

 private:
  MlpWeights weights_;
  double final_loss_ = 0;
  std::vector<double> loss_history_;
};

}  // namespace mlcask::ml

#endif  // MLCASK_ML_MLP_H_
