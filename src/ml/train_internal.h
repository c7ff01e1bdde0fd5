#ifndef MLCASK_ML_TRAIN_INTERNAL_H_
#define MLCASK_ML_TRAIN_INTERNAL_H_

// The training kernels behind `Mlp` and `AdaBoost`, exposed for the
// differential test and the micro bench. Not part of the library's API.
//
// One kernel source (`src/ml/train_kernels.inc`) is built twice: on two-lane
// vectors (SSE2 on the x86-64 baseline, NEON or scalar pairs elsewhere) and
// on eight-lane AVX-512F/DQ vectors. Both return the scalar code's bits.

#include <vector>

#include "ml/adaboost.h"
#include "ml/matrix.h"
#include "ml/mlp.h"

namespace mlcask::ml::train_internal {

/// One instantiation of the training kernels.
struct Kernels {
  /// The vector width and instruction set, as a report names them.
  const char* name;
  /// `Mlp::Fit` past its argument checks: initializes `weights` from
  /// `config.sgd.seed` and trains them, replacing `loss_history` with each
  /// epoch's mean log-loss.
  void (*mlp_fit)(const Matrix& x, const std::vector<double>& y,
                  const MlpConfig& config, MlpWeights* weights,
                  std::vector<double>* loss_history);
  /// `Mlp::PredictProba` past its checks: one probability per row of `x`
  /// into `out`.
  void (*mlp_predict)(const MlpWeights& weights, const Matrix& x,
                      double* out);
  /// `AdaBoost::Fit` past its argument checks.
  void (*adaboost_fit)(const Matrix& x, const std::vector<double>& y,
                       const AdaBoostConfig& config,
                       std::vector<DecisionStump>* stumps,
                       double* final_round_error);
};

/// The two-lane instantiation: the only one on CPUs without AVX-512F/DQ,
/// on builds other than x86-64 GCC, and on every build of another ISA.
const Kernels& TwoLane();

/// The eight-lane instantiation, or nullptr where it cannot run: the CPU
/// lacks AVX-512F or DQ (`cpu::HasEightLane()`), or the build is not
/// x86-64 GCC.
const Kernels* EightLane();

/// The instantiation `Mlp` and `AdaBoost` train on in this process:
/// `EightLane()` where it can run, `TwoLane()` otherwise. Chosen once.
const Kernels& Live();

}  // namespace mlcask::ml::train_internal

#endif  // MLCASK_ML_TRAIN_INTERNAL_H_
