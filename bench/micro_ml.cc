// Micro benchmarks for the ML kernels that dominate a replayed merge, at the
// shapes the `merge` workload trains on: MLP and AdaBoost fits on each
// instantiation of the training kernels, MLP predictions, the MLP's
// hidden-layer tanh on each kernel, an HMM fit plus smoothing pass, and
// Zernike features of a batch of digit images through the
// `zernike_features` library entry point.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "ml/adaboost.h"
#include "ml/hmm.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/tanh_internal.h"
#include "ml/train_internal.h"
#include "pipeline/library_registry.h"
#include "sim/libraries.h"

namespace mlcask::ml {
namespace {

// Gaussian features and labels that follow the first two features, so the
// models have something to learn.
void MakeTrainingSet(size_t n, size_t d, uint64_t seed, Matrix* x,
                     std::vector<double>* y) {
  Pcg32 rng(seed);
  *x = Matrix(n, d);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x->At(i, j) = rng.NextGaussian();
    double s = x->At(i, 0) + (d > 1 ? 0.5 * x->At(i, 1) : 0.0) +
               0.7 * rng.NextGaussian();
    (*y)[i] = s > 0 ? 1.0 : 0.0;
  }
}

// The training kernels' instantiation with `lanes` doubles per vector (2 or
// 8), or nullptr after skipping the benchmark when the CPU cannot run it.
const train_internal::Kernels* KernelsOrSkip(benchmark::State& state,
                                             int64_t lanes) {
  const train_internal::Kernels* kernels =
      lanes == 8 ? train_internal::EightLane() : &train_internal::TwoLane();
  if (kernels == nullptr) {
    state.SkipWithError(
        "eight lanes: CPU lacks AVX-512F or DQ, or not an x86-64 GCC build");
    return nullptr;
  }
  state.SetLabel(kernels->name);
  return kernels;
}

// Mlp::Fit on one instantiation of the training kernels, at the `merge`
// workload's shapes (mini-batch 32). Args: rows, features, hidden units,
// epochs, lanes (2 or 8).
void BM_MlpFit(benchmark::State& state) {
  const train_internal::Kernels* kernels = KernelsOrSkip(state, state.range(4));
  if (kernels == nullptr) return;
  Matrix x;
  std::vector<double> y;
  MakeTrainingSet(static_cast<size_t>(state.range(0)),
                  static_cast<size_t>(state.range(1)), 7, &x, &y);
  MlpConfig cfg;
  cfg.hidden_units = static_cast<size_t>(state.range(2));
  cfg.sgd.epochs = static_cast<int>(state.range(3));
  cfg.sgd.learning_rate = 0.2;
  for (auto _ : state) {
    MlpWeights weights;
    std::vector<double> loss_history;
    kernels->mlp_fit(x, y, cfg, &weights, &loss_history);
    benchmark::DoNotOptimize(loss_history.data());
  }
}
BENCHMARK(BM_MlpFit)
    ->ArgNames({"rows", "in", "hidden", "epochs", "lanes"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int64_t lanes : {2, 8}) {
        b->Args({63, 13, 16, 12, lanes});
        b->Args({84, 12, 22, 15, lanes});
        b->Args({126, 7, 18, 13, lanes});
        b->Args({84, 11, 34, 20, lanes});
      }
    })
    ->Unit(benchmark::kMicrosecond);

// One PredictProba over the training rows of a fitted model. Args: rows,
// features, hidden units.
void BM_MlpPredictProba(benchmark::State& state) {
  Matrix x;
  std::vector<double> y;
  MakeTrainingSet(static_cast<size_t>(state.range(0)),
                  static_cast<size_t>(state.range(1)), 7, &x, &y);
  MlpConfig cfg;
  cfg.hidden_units = static_cast<size_t>(state.range(2));
  cfg.sgd.epochs = 2;
  cfg.sgd.learning_rate = 0.2;
  Mlp model;
  if (!model.Fit(x, y, cfg).ok()) {
    state.SkipWithError("fit");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba(x));
  }
}
BENCHMARK(BM_MlpPredictProba)
    ->Args({84, 12, 22})
    ->Args({126, 7, 18})
    ->Unit(benchmark::kMicrosecond);

// tanh over `width` N(0, 1.2) pre-activations per iteration: one hidden
// layer's row (18 or 22 units) or one 32-row x 22-unit mini-batch block
// (704). Args: width, kernel (0 = a std::tanh loop, 1 = four lanes, 2 =
// eight lanes). A kernel the CPU cannot run skips with its reason.
void BM_Tanh(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  void (*kernel)(double*, size_t) = nullptr;
  const char* label = "std::tanh loop";
  switch (state.range(1)) {
#if defined(MLCASK_TANH_X86_KERNELS)
    case 1:
      if (!cpu::HasFourLane()) {
        state.SkipWithError("four lanes: CPU lacks AVX2 or FMA");
        return;
      }
      kernel = tanh_internal::TanhFourLane;
      label = "four-lane avx2+fma";
      break;
    case 2:
      if (!cpu::HasEightLane()) {
        state.SkipWithError("eight lanes: CPU lacks AVX-512F or DQ");
        return;
      }
      kernel = tanh_internal::TanhEightLane;
      label = "eight-lane avx512f+dq";
      break;
#else
    case 1:
    case 2:
      state.SkipWithError("vector kernels: not an x86-64 glibc build");
      return;
#endif
    default:
      break;
  }
  // About 8K values of input, whatever the width.
  const size_t rows = std::max<size_t>(1, 8192 / width);
  Pcg32 rng(3);
  std::vector<double> input(rows * width);
  for (double& v : input) v = 1.2 * rng.NextGaussian();
  std::vector<double> h(width);
  size_t r = 0;
  for (auto _ : state) {
    const double* row = input.data() + (r++ % rows) * width;
    std::copy(row, row + width, h.begin());
    if (kernel != nullptr) {
      kernel(h.data(), width);
    } else {
      for (double& v : h) v = std::tanh(v);
    }
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(label);
  state.counters["per_value"] = benchmark::Counter(
      static_cast<double>(state.iterations() * width),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Tanh)->ArgsProduct({{18, 22, 704}, {0, 1, 2}});

// AdaBoost::Fit on one instantiation of the training kernels, at the
// `merge` workload's shapes (16 thresholds per feature). Args: rows,
// features, rounds, lanes (2 or 8).
void BM_AdaBoostFit(benchmark::State& state) {
  const train_internal::Kernels* kernels = KernelsOrSkip(state, state.range(3));
  if (kernels == nullptr) return;
  Matrix x;
  std::vector<double> y;
  MakeTrainingSet(static_cast<size_t>(state.range(0)),
                  static_cast<size_t>(state.range(1)), 11, &x, &y);
  AdaBoostConfig cfg;
  cfg.rounds = static_cast<int>(state.range(2));
  for (auto _ : state) {
    std::vector<DecisionStump> stumps;
    double final_round_error = 0;
    kernels->adaboost_fit(x, y, cfg, &stumps, &final_round_error);
    benchmark::DoNotOptimize(final_round_error);
  }
}
BENCHMARK(BM_AdaBoostFit)
    ->ArgNames({"rows", "features", "rounds", "lanes"})
    ->ArgsProduct({{42}, {24, 28}, {30, 60}, {2, 8}})
    ->Unit(benchmark::kMicrosecond);

// Args: sequence length, states, EM iterations.
void BM_HmmFitSmooth(benchmark::State& state) {
  const size_t t_len = static_cast<size_t>(state.range(0));
  Pcg32 rng(5);
  std::vector<double> seq(t_len);
  double level = 0;
  for (double& v : seq) {
    if (rng.Bernoulli(0.2)) level = rng.Uniform(-2, 2);
    v = level + 0.5 * rng.NextGaussian();
  }
  HmmConfig cfg;
  cfg.num_states = static_cast<size_t>(state.range(1));
  cfg.em_iterations = static_cast<int>(state.range(2));
  for (auto _ : state) {
    GaussianHmm hmm;
    benchmark::DoNotOptimize(hmm.Fit(seq, cfg));
    benchmark::DoNotOptimize(hmm.Smooth(seq));
  }
}
BENCHMARK(BM_HmmFitSmooth)->Args({12, 3, 10})->Unit(benchmark::kMicrosecond);

// Args: images, side, max order.
void BM_ZernikeFeatures(benchmark::State& state) {
  pipeline::LibraryRegistry registry;
  if (!sim::RegisterWorkloadLibraries(&registry).ok()) {
    state.SkipWithError("registry");
    return;
  }
  auto gen = registry.Get("gen_digits");
  auto zernike = registry.Get("zernike_features");
  if (!gen.ok() || !zernike.ok()) {
    state.SkipWithError("libraries");
    return;
  }
  Json gen_params = Json::Object();
  gen_params.Set("rows", Json::Int(state.range(0)));
  gen_params.Set("side", Json::Int(state.range(1)));
  pipeline::ExecInput gen_in;
  gen_in.params = &gen_params;
  auto images = (**gen)(gen_in);
  if (!images.ok()) {
    state.SkipWithError("gen_digits");
    return;
  }
  Json params = Json::Object();
  params.Set("max_order", Json::Int(state.range(2)));
  pipeline::ExecInput in;
  in.input = &images->table;
  in.inputs = {&images->table};
  in.params = &params;
  for (auto _ : state) {
    benchmark::DoNotOptimize((**zernike)(in));
  }
}
BENCHMARK(BM_ZernikeFeatures)->Args({120, 16, 6})->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mlcask::ml

BENCHMARK_MAIN();
