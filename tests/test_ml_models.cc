#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/adaboost.h"
#include "ml/logreg.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/train_eval.h"

namespace mlcask::ml {
namespace {

/// Linearly separable-ish 2-D blobs.
void MakeBlobs(size_t n, uint64_t seed, Matrix* x, std::vector<double>* y) {
  Pcg32 rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool pos = rng.Bernoulli(0.5);
    double cx = pos ? 1.2 : -1.2;
    x->At(i, 0) = cx + rng.NextGaussian() * 0.7;
    x->At(i, 1) = (pos ? 0.8 : -0.8) + rng.NextGaussian() * 0.7;
    (*y)[i] = pos ? 1.0 : 0.0;
  }
}

/// XOR data — not linearly separable; the MLP must beat logreg here.
void MakeXor(size_t n, uint64_t seed, Matrix* x, std::vector<double>* y) {
  Pcg32 rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    double b = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    x->At(i, 0) = a + rng.NextGaussian() * 0.3;
    x->At(i, 1) = b + rng.NextGaussian() * 0.3;
    (*y)[i] = (a > 0) != (b > 0) ? 1.0 : 0.0;
  }
}

TEST(MatrixTest, MultiplyAndTranspose) {
  Matrix a = Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::FromRowMajor(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.Multiply(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154);
  Matrix at = a.Transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at.At(2, 1), 6);
}

TEST(MatrixTest, StandardizeColumns) {
  Matrix m = Matrix::FromRowMajor(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  m.StandardizeColumns();
  auto means = m.ColumnMeans();
  EXPECT_NEAR(means[0], 0.0, 1e-12);
  EXPECT_NEAR(means[1], 0.0, 1e-12);
  auto stds = m.ColumnStds(means);
  EXPECT_NEAR(stds[0], 1.0, 1e-9);
  EXPECT_NEAR(stds[1], 1.0, 1e-9);
}

TEST(MetricsTest, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(*Accuracy({0.9, 0.2, 0.7, 0.4}, {1, 0, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(*Accuracy({0.9, 0.2}, {0, 1}), 0.0);
  EXPECT_FALSE(Accuracy({0.5}, {1, 0}).ok());
  EXPECT_FALSE(Accuracy({}, {}).ok());
}

TEST(MetricsTest, MseAndLogLoss) {
  EXPECT_DOUBLE_EQ(*MeanSquaredError({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(*MeanSquaredError({0, 0}, {3, 4}), 12.5);
  EXPECT_NEAR(*LogLoss({0.9, 0.1}, {1, 0}), -std::log(0.9), 1e-9);
  // Extreme probabilities are clipped, not infinite.
  EXPECT_TRUE(std::isfinite(*LogLoss({1.0, 0.0}, {0, 1})));
}

TEST(MetricsTest, AucPerfectAndRandomAndTies) {
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
  // All-tied scores -> 0.5 via midranks.
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
  // Degenerate single-class input -> 0.5.
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.3, 0.7}, {1, 1}), 0.5);
}

TEST(LogRegTest, LearnsSeparableBlobs) {
  Matrix x;
  std::vector<double> y;
  MakeBlobs(600, 42, &x, &y);
  auto split = SplitData(x, y, 0.3, 1);
  ASSERT_TRUE(split.ok());
  LogisticRegression model;
  SgdConfig cfg;
  cfg.epochs = 30;
  ASSERT_TRUE(model.Fit(split->x_train, split->y_train, cfg).ok());
  auto proba = model.PredictProba(split->x_test);
  ASSERT_TRUE(proba.ok());
  double acc = *Accuracy(*proba, split->y_test);
  EXPECT_GT(acc, 0.85);
}

TEST(LogRegTest, ErrorsOnMisuse) {
  LogisticRegression model;
  Matrix x(3, 2);
  EXPECT_FALSE(model.Fit(x, {1.0, 0.0}, {}).ok());  // size mismatch
  EXPECT_FALSE(model.PredictProba(x).ok());         // unfit
  ASSERT_TRUE(model.Fit(x, {1.0, 0.0, 1.0}, {}).ok());
  Matrix wrong(2, 5);
  EXPECT_FALSE(model.PredictProba(wrong).ok());  // width mismatch
  SgdConfig no_batch;
  no_batch.batch_size = 0;  // would never advance through the rows
  EXPECT_TRUE(model.Fit(x, {1.0, 0.0, 1.0}, no_batch).IsInvalidArgument());
}

TEST(LogRegTest, DeterministicGivenSeed) {
  Matrix x;
  std::vector<double> y;
  MakeBlobs(200, 5, &x, &y);
  LogisticRegression a, b;
  SgdConfig cfg;
  ASSERT_TRUE(a.Fit(x, y, cfg).ok());
  ASSERT_TRUE(b.Fit(x, y, cfg).ok());
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

TEST(MlpTest, SolvesXorWhereLogRegCannot) {
  Matrix x;
  std::vector<double> y;
  MakeXor(800, 7, &x, &y);
  auto split = SplitData(x, y, 0.25, 2);
  ASSERT_TRUE(split.ok());

  LogisticRegression linear;
  SgdConfig lin_cfg;
  lin_cfg.epochs = 40;
  ASSERT_TRUE(linear.Fit(split->x_train, split->y_train, lin_cfg).ok());
  double lin_acc =
      *Accuracy(*linear.PredictProba(split->x_test), split->y_test);

  Mlp mlp;
  MlpConfig cfg;
  cfg.hidden_units = 12;
  cfg.sgd.epochs = 80;
  cfg.sgd.learning_rate = 0.3;
  ASSERT_TRUE(mlp.Fit(split->x_train, split->y_train, cfg).ok());
  double mlp_acc = *Accuracy(*mlp.PredictProba(split->x_test), split->y_test);

  EXPECT_LT(lin_acc, 0.7);   // linear model fails on XOR
  EXPECT_GT(mlp_acc, 0.85);  // MLP solves it
}

TEST(MlpTest, LossHistoryDecreases) {
  Matrix x;
  std::vector<double> y;
  MakeBlobs(400, 9, &x, &y);
  Mlp mlp;
  MlpConfig cfg;
  cfg.sgd.epochs = 30;
  ASSERT_TRUE(mlp.Fit(x, y, cfg).ok());
  const auto& hist = mlp.loss_history();
  ASSERT_EQ(hist.size(), 30u);
  EXPECT_LT(hist.back(), hist.front());
  EXPECT_DOUBLE_EQ(hist.back(), mlp.final_loss());
}

TEST(MlpTest, ErrorsOnMisuse) {
  Mlp mlp;
  Matrix x(2, 2);
  EXPECT_FALSE(mlp.PredictProba(x).ok());
  MlpConfig cfg;
  cfg.hidden_units = 0;
  EXPECT_FALSE(mlp.Fit(x, {0.0, 1.0}, cfg).ok());
  MlpConfig no_batch;
  no_batch.sgd.batch_size = 0;  // would never advance through the rows
  EXPECT_TRUE(mlp.Fit(x, {0.0, 1.0}, no_batch).IsInvalidArgument());
}

TEST(AdaBoostTest, LearnsAxisAlignedConcept) {
  // Concept: y = 1 iff x0 > 0.3 (single stump suffices).
  Pcg32 rng(11);
  Matrix x(500, 3);
  std::vector<double> y(500);
  for (size_t i = 0; i < 500; ++i) {
    for (size_t j = 0; j < 3; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = x.At(i, 0) > 0.3 ? 1.0 : 0.0;
  }
  AdaBoost model;
  ASSERT_TRUE(model.Fit(x, y, {}).ok());
  double acc = *Accuracy(*model.PredictProba(x), y);
  EXPECT_GT(acc, 0.95);
}

TEST(AdaBoostTest, BoostingImprovesOverSingleStump) {
  // Diagonal concept needs several stumps.
  Pcg32 rng(13);
  Matrix x(600, 2);
  std::vector<double> y(600);
  for (size_t i = 0; i < 600; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    y[i] = x.At(i, 0) + x.At(i, 1) > 0 ? 1.0 : 0.0;
  }
  AdaBoost one_round, many_rounds;
  AdaBoostConfig cfg1;
  cfg1.rounds = 1;
  AdaBoostConfig cfg2;
  cfg2.rounds = 40;
  ASSERT_TRUE(one_round.Fit(x, y, cfg1).ok());
  ASSERT_TRUE(many_rounds.Fit(x, y, cfg2).ok());
  double acc1 = *Accuracy(*one_round.PredictProba(x), y);
  double acc2 = *Accuracy(*many_rounds.PredictProba(x), y);
  EXPECT_GT(acc2, acc1 + 0.05);
}

TEST(AdaBoostTest, ErrorsOnMisuse) {
  AdaBoost model;
  Matrix x(2, 1);
  EXPECT_FALSE(model.PredictProba(x).ok());
  AdaBoostConfig cfg;
  cfg.rounds = 0;
  EXPECT_FALSE(model.Fit(x, {0.0, 1.0}, cfg).ok());
}

TEST(SplitDataTest, SizesAndDeterminism) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (size_t i = 0; i < 10; ++i) {
    x.At(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i);
  }
  auto a = SplitData(x, y, 0.3, 42);
  auto b = SplitData(x, y, 0.3, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->x_train.rows(), 7u);
  EXPECT_EQ(a->x_test.rows(), 3u);
  EXPECT_EQ(a->y_train, b->y_train);
  EXPECT_FALSE(SplitData(x, y, 0.0, 1).ok());
  EXPECT_FALSE(SplitData(x, y, 1.0, 1).ok());
  // Train/test partition covers every label exactly once.
  std::vector<double> all = a->y_train;
  all.insert(all.end(), a->y_test.begin(), a->y_test.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, y);
}

}  // namespace
}  // namespace mlcask::ml
