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

// PredictProba's rows per ForwardBlock call: Fit's default mini-batch.
constexpr size_t kPredictRows = 32;

// The kernels below work on a block of rows with the same weights, so every
// sum can stay in a register across the block. Each sum still adds the
// scalar code's terms, in its order, one rounding per operation; only
// independent sums (units, inputs, rows) share lanes or run interleaved.
// A lane type is `double` (one unit) or `V2` (two adjacent units).
template <typename T>
struct Lane;

template <>
struct Lane<double> {
  static constexpr size_t kUnits = 1;
  static double Load(const double* p) { return *p; }
  static void Store(double* p, double v) { *p = v; }
  static double Splat(double x) { return x; }
};

template <>
struct Lane<V2> {
  static constexpr size_t kUnits = 2;
  static V2 Load(const double* p) { return LoadV2(p); }
  static void Store(double* p, V2 v) { StoreV2(p, v); }
  static V2 Splat(double x) { return SplatV2(x); }
};

// Writes each of the `in` values of `row` twice, so a lane load of either
// type reads the value splatted.
void SplatRow(const double* row, size_t in, double* xs) {
  for (size_t j = 0; j < in; ++j) xs[2 * j] = xs[2 * j + 1] = row[j];
}

// z[q][k] = b[k] + w[0][k]*x_q[0] + w[1][k]*x_q[1] + ... in input order,
// for kRows rows q and kVecs lanes of units k: kRows * kVecs sums in flight
// per pass over the inputs. `w`, `b` and `z` start at the tile's first
// unit; rows are `hidden` apart in `z` and `w`.
template <typename T, size_t kRows, size_t kVecs>
inline void PreActivationTile(const double* xs, size_t in, const double* w,
                              const double* b, size_t hidden, double* z) {
  using L = Lane<T>;
  T acc[kRows][kVecs];
#pragma GCC unroll 4
  for (size_t q = 0; q < kRows; ++q) {
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) acc[q][v] = L::Load(b + v * L::kUnits);
  }
  for (size_t j = 0; j < in; ++j) {
    T wj[kVecs];
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      wj[v] = L::Load(w + j * hidden + v * L::kUnits);
    }
#pragma GCC unroll 4
    for (size_t q = 0; q < kRows; ++q) {
      const T xq = L::Load(xs + 2 * (q * in + j));
#pragma GCC unroll 4
      for (size_t v = 0; v < kVecs; ++v) acc[q][v] += wj[v] * xq;
    }
  }
#pragma GCC unroll 4
  for (size_t q = 0; q < kRows; ++q) {
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      L::Store(z + q * hidden + v * L::kUnits, acc[q][v]);
    }
  }
}

// Every unit of kRows rows: four units (two V2 lanes) per tile, then two,
// then one.
template <size_t kRows>
void PreActivationRows(const double* xs, size_t in, const double* w,
                       const double* b, size_t hidden, double* z) {
  size_t u = 0;
  for (; u + 4 <= hidden; u += 4) {
    PreActivationTile<V2, kRows, 2>(xs, in, w + u, b + u, hidden, z + u);
  }
  if (u + 2 <= hidden) {
    PreActivationTile<V2, kRows, 1>(xs, in, w + u, b + u, hidden, z + u);
    u += 2;
  }
  if (u < hidden) {
    PreActivationTile<double, kRows, 1>(xs, in, w + u, b + u, hidden, z + u);
  }
}

// p[q] = sigmoid(b2 + w2[0]*h_q[0] + w2[1]*h_q[1] + ...), the kRows rows'
// sums interleaved.
template <size_t kRows>
void OutputRows(const double* h, size_t hidden, const double* w2, double b2,
                double* p) {
  double z[kRows];
#pragma GCC unroll 4
  for (size_t q = 0; q < kRows; ++q) z[q] = b2;
  for (size_t u = 0; u < hidden; ++u) {
#pragma GCC unroll 4
    for (size_t q = 0; q < kRows; ++q) z[q] += w2[u] * h[q * hidden + u];
  }
#pragma GCC unroll 4
  for (size_t q = 0; q < kRows; ++q) p[q] = Sigmoid(z[q]);
}

// g[i][k] = 0 + delta_0[k]*x_0[i] + delta_1[k]*x_1[i] + ... over the block's
// rows in order, for kInputs inputs i and kVecs lanes of units k. `xs`
// starts at the tile's first input, `delta` and `g` at its first unit, `g`
// at its first input's row.
template <typename T, size_t kInputs, size_t kVecs>
inline void WeightGradTile(const double* xs, size_t in, const double* delta,
                           size_t hidden, size_t rows, double* g) {
  using L = Lane<T>;
  T acc[kInputs][kVecs] = {};
  for (size_t r = 0; r < rows; ++r) {
    T d[kVecs];
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      d[v] = L::Load(delta + r * hidden + v * L::kUnits);
    }
#pragma GCC unroll 4
    for (size_t i = 0; i < kInputs; ++i) {
      const T x = L::Load(xs + 2 * (r * in + i));
#pragma GCC unroll 4
      for (size_t v = 0; v < kVecs; ++v) acc[i][v] += d[v] * x;
    }
  }
#pragma GCC unroll 4
  for (size_t i = 0; i < kInputs; ++i) {
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      L::Store(g + i * hidden + v * L::kUnits, acc[i][v]);
    }
  }
}

template <size_t kInputs>
void WeightGradInputs(const double* xs, size_t in, const double* delta,
                      size_t hidden, size_t rows, double* g) {
  size_t u = 0;
  for (; u + 4 <= hidden; u += 4) {
    WeightGradTile<V2, kInputs, 2>(xs, in, delta + u, hidden, rows, g + u);
  }
  if (u + 2 <= hidden) {
    WeightGradTile<V2, kInputs, 1>(xs, in, delta + u, hidden, rows, g + u);
    u += 2;
  }
  if (u < hidden) {
    WeightGradTile<double, kInputs, 1>(xs, in, delta + u, hidden, rows,
                                       g + u);
  }
}

// grad_w2[k] = 0 + delta2_0*h_0[k] + delta2_1*h_1[k] + ... and grad_b1[k] =
// 0 + delta_0[k] + delta_1[k] + ... over the block's rows in order, for
// kVecs lanes of units k starting at the tile's first unit.
template <typename T, size_t kVecs>
inline void OutputGradTile(const double* delta2, const double* h,
                           const double* delta, size_t hidden, size_t rows,
                           double* grad_w2, double* grad_b1) {
  using L = Lane<T>;
  T w2[kVecs] = {}, b1[kVecs] = {};
  for (size_t r = 0; r < rows; ++r) {
    const T d2 = L::Splat(delta2[r]);
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      w2[v] += d2 * L::Load(h + r * hidden + v * L::kUnits);
      b1[v] += L::Load(delta + r * hidden + v * L::kUnits);
    }
  }
#pragma GCC unroll 4
  for (size_t v = 0; v < kVecs; ++v) {
    L::Store(grad_w2 + v * L::kUnits, w2[v]);
    L::Store(grad_b1 + v * L::kUnits, b1[v]);
  }
}

}  // namespace

void Mlp::ForwardBlock(const double* xs, size_t rows, double* h,
                       double* p) const {
  const size_t in = input_dim_, hidden = hidden_;
  const double* w = w1_.data();
  const double* b = b1_.data();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    PreActivationRows<4>(xs + 2 * r * in, in, w, b, hidden, h + r * hidden);
  }
  if (r + 2 <= rows) {
    PreActivationRows<2>(xs + 2 * r * in, in, w, b, hidden, h + r * hidden);
    r += 2;
  }
  if (r < rows) {
    PreActivationRows<1>(xs + 2 * r * in, in, w, b, hidden, h + r * hidden);
  }
  // One call for the whole block: a wide kernel runs full vectors across
  // row boundaries.
  TanhInPlace(h, rows * hidden);
  for (r = 0; r + 4 <= rows; r += 4) {
    OutputRows<4>(h + r * hidden, hidden, w2_.data(), b2_, p + r);
  }
  for (; r < rows; ++r) {
    OutputRows<1>(h + r * hidden, hidden, w2_.data(), b2_, p + r);
  }
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
  const size_t in = input_dim_, hidden = hidden_;

  Pcg32 rng(config.sgd.seed);
  auto init = [&](size_t count, double scale) {
    std::vector<double> v(count);
    for (double& w : v) w = rng.NextGaussian() * scale;
    return v;
  };
  double scale1 = 1.0 / std::sqrt(static_cast<double>(in));
  double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden));
  // Drawn unit by unit (the RNG order fixes the bits), stored input-major.
  const std::vector<double> w1_by_unit = init(hidden * in, scale1);
  w1_.resize(w1_by_unit.size());
  for (size_t u = 0; u < hidden; ++u) {
    for (size_t j = 0; j < in; ++j) {
      w1_[j * hidden + u] = w1_by_unit[u * in + j];
    }
  }
  b1_.assign(hidden, 0.0);
  w2_ = init(hidden, scale2);
  b2_ = 0.0;
  loss_history_.clear();

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // One mini-batch as a block: its rows splatted, its activations, the
  // output deltas (p - y, written over p) and the hidden deltas.
  const size_t block = std::min(n, config.sgd.batch_size);
  std::vector<double> xs(2 * block * in), h(block * hidden), p(block),
      delta(block * hidden);
  std::vector<double> grad_w1(in * hidden), grad_w2(hidden), grad_b1(hidden);

  const double lr = config.sgd.learning_rate;
  const double l2 = config.sgd.l2;
  for (int epoch = 0; epoch < config.sgd.epochs; ++epoch) {
    rng.Shuffle(&order);
    double loss_sum = 0;
    for (size_t start = 0; start < n; start += config.sgd.batch_size) {
      const size_t end = std::min(n, start + config.sgd.batch_size);
      const size_t rows = end - start;
      for (size_t r = 0; r < rows; ++r) {
        SplatRow(x.Row(order[start + r]), in, xs.data() + 2 * r * in);
      }
      ForwardBlock(xs.data(), rows, h.data(), p.data());
      double grad_b2 = 0;
      for (size_t r = 0; r < rows; ++r) {
        const double y_i = y[order[start + r]];
        double pc = std::clamp(p[r], 1e-12, 1.0 - 1e-12);
        loss_sum += y_i > 0.5 ? -std::log(pc) : -std::log(1.0 - pc);
        p[r] -= y_i;  // delta2
        grad_b2 += p[r];
      }
      // Backward: delta1[u] = delta2*w2[u]*(1 - h[u]*h[u]) per row, two
      // units per lane pair.
      for (size_t r = 0; r < rows; ++r) {
        const double* hr = h.data() + r * hidden;
        double* dr = delta.data() + r * hidden;
        const V2 delta2 = SplatV2(p[r]);
        size_t u = 0;
        for (; u + 2 <= hidden; u += 2) {
          const V2 hu = LoadV2(hr + u);
          StoreV2(dr + u,
                  delta2 * LoadV2(w2_.data() + u) * (SplatV2(1.0) - hu * hu));
        }
        if (u < hidden) dr[u] = p[r] * w2_[u] * (1.0 - hr[u] * hr[u]);
      }
      // The gradients, each a sum over the batch's rows in row order.
      size_t u = 0;
      for (; u + 4 <= hidden; u += 4) {
        OutputGradTile<V2, 2>(p.data(), h.data() + u, delta.data() + u,
                              hidden, rows, grad_w2.data() + u,
                              grad_b1.data() + u);
      }
      if (u + 2 <= hidden) {
        OutputGradTile<V2, 1>(p.data(), h.data() + u, delta.data() + u,
                              hidden, rows, grad_w2.data() + u,
                              grad_b1.data() + u);
        u += 2;
      }
      if (u < hidden) {
        OutputGradTile<double, 1>(p.data(), h.data() + u, delta.data() + u,
                                  hidden, rows, grad_w2.data() + u,
                                  grad_b1.data() + u);
      }
      size_t j = 0;
      for (; j + 4 <= in; j += 4) {
        WeightGradInputs<4>(xs.data() + 2 * j, in, delta.data(), hidden, rows,
                            grad_w1.data() + j * hidden);
      }
      for (; j < in; ++j) {
        WeightGradInputs<1>(xs.data() + 2 * j, in, delta.data(), hidden, rows,
                            grad_w1.data() + j * hidden);
      }
      double scale = lr / static_cast<double>(rows);
      for (size_t k = 0; k < w1_.size(); ++k) {
        w1_[k] -= scale * grad_w1[k] + lr * l2 * w1_[k];
      }
      for (size_t k = 0; k < hidden; ++k) {
        b1_[k] -= scale * grad_b1[k];
        w2_[k] -= scale * grad_w2[k] + lr * l2 * w2_[k];
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
  const size_t n = x.rows(), in = input_dim_;
  std::vector<double> out(n);
  const size_t block = std::min(n, kPredictRows);
  std::vector<double> xs(2 * block * in), h(block * hidden_);
  for (size_t start = 0; start < n; start += kPredictRows) {
    const size_t rows = std::min(kPredictRows, n - start);
    for (size_t r = 0; r < rows; ++r) {
      SplatRow(x.Row(start + r), in, xs.data() + 2 * r * in);
    }
    ForwardBlock(xs.data(), rows, h.data(), out.data() + start);
  }
  return out;
}

}  // namespace mlcask::ml
