#include "sim/libraries.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strings.h"
#include "data/generators.h"
#include "ml/adaboost.h"
#include "ml/autolearn.h"
#include "ml/embedding.h"
#include "ml/hmm.h"
#include "ml/logreg.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/train_eval.h"
#include "ml/zernike.h"

namespace mlcask::sim {

namespace {

using data::Column;
using data::ColumnType;
using data::Table;
using pipeline::ExecInput;
using pipeline::ExecOutput;

int64_t Variant(const ExecInput& in) { return in.params->GetInt("variant", 0); }

Status RequireInput(const ExecInput& in, const char* impl) {
  if (in.input == nullptr) {
    return Status::InvalidArgument(std::string(impl) +
                                   " requires an upstream input table");
  }
  return Status::Ok();
}

/// Collects the feature matrix (all double columns except `label`) plus the
/// label column (double or int named "label").
StatusOr<std::pair<ml::Matrix, std::vector<double>>> FeaturesAndLabel(
    const Table& t) {
  std::vector<std::string> feature_cols;
  for (const Column& c : t.columns()) {
    if (c.type == ColumnType::kDouble && c.name != "label") {
      feature_cols.push_back(c.name);
    }
  }
  if (feature_cols.empty()) {
    return Status::InvalidArgument("no double feature columns in table");
  }
  std::vector<double> label;
  if (t.HasColumn("label")) {
    const Column* lc = *t.GetColumn("label");
    if (lc->type == ColumnType::kDouble) {
      label = lc->doubles;
    } else if (lc->type == ColumnType::kInt) {
      label.reserve(lc->ints.size());
      for (int64_t v : lc->ints) label.push_back(static_cast<double>(v));
    }
  }
  if (label.empty()) {
    return Status::InvalidArgument("table has no usable 'label' column");
  }
  MLCASK_ASSIGN_OR_RETURN(std::vector<double> rm, t.ToRowMajor(feature_cols));
  return std::make_pair(
      ml::Matrix::FromRowMajor(t.num_rows(), feature_cols.size(), std::move(rm)),
      std::move(label));
}

/// Renames the workload-specific outcome column to the canonical "label".
Status CanonicalizeLabel(Table* t, const std::string& from) {
  MLCASK_ASSIGN_OR_RETURN(const Column* src, t->GetColumn(from));
  std::vector<int64_t> vals = src->ints;
  MLCASK_RETURN_IF_ERROR(t->DropColumn(from));
  return t->AddIntColumn("label", std::move(vals));
}

// ---------------------------------------------------------------------------
// Dataset sources
// ---------------------------------------------------------------------------

StatusOr<ExecOutput> GenReadmission(const ExecInput& in) {
  size_t rows = static_cast<size_t>(in.params->GetInt("rows", 1000));
  uint64_t seed = static_cast<uint64_t>(in.params->GetInt("seed", 1));
  int schema_version = static_cast<int>(in.params->GetInt("schema_version", 0));
  double missing = in.params->GetDouble("missing_rate", 0.08);
  MLCASK_ASSIGN_OR_RETURN(
      Table t, data::GenerateReadmissionData(rows, seed, schema_version, missing));
  MLCASK_RETURN_IF_ERROR(CanonicalizeLabel(&t, "readmit_30d"));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> GenDpm(const ExecInput& in) {
  size_t patients = static_cast<size_t>(in.params->GetInt("patients", 80));
  size_t visits = static_cast<size_t>(in.params->GetInt("visits", 12));
  uint64_t seed = static_cast<uint64_t>(in.params->GetInt("seed", 1));
  MLCASK_ASSIGN_OR_RETURN(Table t, data::GenerateDpmData(patients, visits, seed));
  MLCASK_RETURN_IF_ERROR(CanonicalizeLabel(&t, "progression"));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> GenReviews(const ExecInput& in) {
  size_t rows = static_cast<size_t>(in.params->GetInt("rows", 600));
  uint64_t seed = static_cast<uint64_t>(in.params->GetInt("seed", 1));
  MLCASK_ASSIGN_OR_RETURN(Table t, data::GenerateReviews(rows, seed));
  MLCASK_RETURN_IF_ERROR(CanonicalizeLabel(&t, "sentiment"));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> GenDigits(const ExecInput& in) {
  size_t rows = static_cast<size_t>(in.params->GetInt("rows", 400));
  size_t side = static_cast<size_t>(in.params->GetInt("side", 16));
  uint64_t seed = static_cast<uint64_t>(in.params->GetInt("seed", 1));
  MLCASK_ASSIGN_OR_RETURN(Table t, data::GenerateDigits(rows, side, seed));
  MLCASK_RETURN_IF_ERROR(t.DropColumn("digit"));
  MLCASK_RETURN_IF_ERROR(CanonicalizeLabel(&t, "is_ge5"));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

// ---------------------------------------------------------------------------
// Pre-processing libraries
// ---------------------------------------------------------------------------

StatusOr<ExecOutput> CleanseImpute(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "cleanse_impute"));
  std::string strategy = in.params->GetString("strategy", "mean");
  if (strategy != "mean" && strategy != "zero") {
    return Status::InvalidArgument("cleanse_impute: unknown strategy '" +
                                   strategy + "'");
  }
  Table t;
  for (const Column& c : in.input->columns()) {
    switch (c.type) {
      case ColumnType::kDouble: {
        std::vector<double> vals = c.doubles;
        double fill = 0.0;
        if (strategy == "mean") {
          double sum = 0;
          size_t n = 0;
          for (double v : vals) {
            if (!std::isnan(v)) {
              sum += v;
              ++n;
            }
          }
          fill = n > 0 ? sum / static_cast<double>(n) : 0.0;
        }
        for (double& v : vals) {
          if (std::isnan(v)) v = fill;
        }
        MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(c.name, std::move(vals)));
        break;
      }
      case ColumnType::kString: {
        std::vector<std::string> vals = c.strings;
        // Fill blank diagnosis codes with the modal code.
        std::map<std::string, size_t> freq;
        for (const std::string& s : vals) {
          if (!s.empty()) freq[s] += 1;
        }
        std::string modal = "D000";
        size_t best = 0;
        for (const auto& [code, count] : freq) {
          if (count > best) {
            best = count;
            modal = code;
          }
        }
        for (std::string& s : vals) {
          if (s.empty()) s = modal;
        }
        MLCASK_RETURN_IF_ERROR(t.AddStringColumn(c.name, std::move(vals)));
        break;
      }
      case ColumnType::kInt: {
        MLCASK_RETURN_IF_ERROR(t.AddIntColumn(c.name, c.ints));
        break;
      }
    }
  }
  for (const auto& [k, v] : in.input->meta()) t.SetMeta(k, v);
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> ExtractEhrFeatures(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "extract_ehr_features"));
  bool use_code_freq = in.params->GetBool("use_code_freq", true);
  int64_t variant = Variant(in);

  Table t;
  size_t fi = 0;
  // Standardize numeric columns into features f0..fk.
  for (const Column& c : in.input->columns()) {
    if (c.name == "label") continue;
    if (c.type == ColumnType::kDouble) {
      // Standardize over the non-missing values; missing entries map to 0
      // (the column mean) so an un-cleansed input degrades gracefully
      // instead of poisoning every feature with NaN.
      std::vector<double> vals = c.doubles;
      double mean = 0;
      size_t present = 0;
      for (double v : vals) {
        if (!std::isnan(v)) {
          mean += v;
          ++present;
        }
      }
      mean /= present > 0 ? static_cast<double>(present) : 1.0;
      double sd = 0;
      for (double v : vals) {
        if (!std::isnan(v)) sd += (v - mean) * (v - mean);
      }
      sd = std::sqrt(sd / (present > 0 ? static_cast<double>(present) : 1.0));
      if (sd < 1e-12) sd = 1.0;
      for (double& v : vals) v = std::isnan(v) ? 0.0 : (v - mean) / sd;
      MLCASK_RETURN_IF_ERROR(
          t.AddDoubleColumn(StrFormat("f%zu", fi++), std::move(vals)));
    } else if (c.type == ColumnType::kInt && c.name != "patient_id") {
      std::vector<double> vals;
      vals.reserve(c.ints.size());
      for (int64_t v : c.ints) vals.push_back(static_cast<double>(v));
      MLCASK_RETURN_IF_ERROR(
          t.AddDoubleColumn(StrFormat("f%zu", fi++), std::move(vals)));
    }
  }
  // Frequency-encode the diagnosis code (variant > 0 adds a squared term,
  // the kind of small feature-engineering change an increment ships).
  if (use_code_freq && in.input->HasColumn("diag_code")) {
    const Column* dc = *in.input->GetColumn("diag_code");
    std::map<std::string, double> freq;
    for (const std::string& s : dc->strings) freq[s] += 1.0;
    for (auto& [code, count] : freq) {
      count /= static_cast<double>(dc->strings.size());
    }
    std::vector<double> enc;
    enc.reserve(dc->strings.size());
    for (const std::string& s : dc->strings) enc.push_back(freq[s]);
    if (variant > 0) {
      std::vector<double> sq = enc;
      for (double& v : sq) v = v * v * static_cast<double>(variant);
      MLCASK_RETURN_IF_ERROR(
          t.AddDoubleColumn(StrFormat("f%zu", fi++), std::move(sq)));
    }
    MLCASK_RETURN_IF_ERROR(
        t.AddDoubleColumn(StrFormat("f%zu", fi++), std::move(enc)));
  }
  // Pass through the grouping key so downstream HMM smoothing can segment
  // per-patient sequences (it is an int column, so models ignore it).
  if (in.input->HasColumn("patient_id")) {
    MLCASK_ASSIGN_OR_RETURN(const Column* pid, in.input->GetColumn("patient_id"));
    MLCASK_RETURN_IF_ERROR(t.AddIntColumn("patient_id", pid->ints));
  }
  // Carry the label through.
  MLCASK_ASSIGN_OR_RETURN(const Column* label, in.input->GetColumn("label"));
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label->ints));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> HmmSmooth(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "hmm_smooth"));
  size_t num_states =
      static_cast<size_t>(in.params->GetInt("num_states", 3));
  int em_iterations = static_cast<int>(in.params->GetInt("em_iterations", 8));
  int64_t variant = Variant(in);
  // Later variants run one extra EM iteration per variant step.
  em_iterations += static_cast<int>(variant);

  // Group rows into per-patient sequences when the id column exists;
  // otherwise treat the whole column as one sequence.
  std::vector<std::pair<size_t, size_t>> groups;
  if (in.input->HasColumn("patient_id")) {
    const Column* pid = *in.input->GetColumn("patient_id");
    size_t start = 0;
    for (size_t i = 1; i <= pid->ints.size(); ++i) {
      if (i == pid->ints.size() || pid->ints[i] != pid->ints[start]) {
        groups.emplace_back(start, i);
        start = i;
      }
    }
  } else {
    groups.emplace_back(0, in.input->num_rows());
  }

  Table t;
  for (const Column& c : in.input->columns()) {
    if (c.type == ColumnType::kDouble && c.name != "label") {
      std::vector<double> smoothed = c.doubles;
      for (const auto& [start, end] : groups) {
        std::vector<double> seq(c.doubles.begin() + static_cast<long>(start),
                                c.doubles.begin() + static_cast<long>(end));
        ml::GaussianHmm hmm;
        ml::HmmConfig cfg;
        cfg.num_states = num_states;
        cfg.em_iterations = em_iterations;
        cfg.seed = in.seed;
        if (seq.size() >= num_states * 2 && hmm.Fit(seq, cfg).ok()) {
          auto sm = hmm.Smooth(seq);
          if (sm.ok()) {
            std::copy(sm->begin(), sm->end(),
                      smoothed.begin() + static_cast<long>(start));
          }
        }
      }
      MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(c.name, std::move(smoothed)));
    } else if (c.type == ColumnType::kDouble) {
      MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(c.name, c.doubles));
    } else if (c.type == ColumnType::kInt) {
      MLCASK_RETURN_IF_ERROR(t.AddIntColumn(c.name, c.ints));
    } else {
      MLCASK_RETURN_IF_ERROR(t.AddStringColumn(c.name, c.strings));
    }
  }
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> CorpusProcess(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "corpus_process"));
  MLCASK_ASSIGN_OR_RETURN(const Column* reviews, in.input->GetColumn("review"));
  int64_t variant = Variant(in);

  std::vector<std::string> normalized;
  std::vector<double> token_count;
  normalized.reserve(reviews->strings.size());
  token_count.reserve(reviews->strings.size());
  for (const std::string& r : reviews->strings) {
    std::vector<std::string> tokens = ml::Tokenize(r);
    // Variant 1+ drops single-character tokens (a plausible cleanup change).
    if (variant > 0) {
      tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                                  [](const std::string& t) {
                                    return t.size() <= 1;
                                  }),
                   tokens.end());
    }
    token_count.push_back(static_cast<double>(tokens.size()));
    normalized.push_back(StrJoin(tokens, " "));
  }
  Table t;
  MLCASK_RETURN_IF_ERROR(t.AddStringColumn("review", std::move(normalized)));
  MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn("token_count", std::move(token_count)));
  MLCASK_ASSIGN_OR_RETURN(const Column* label, in.input->GetColumn("label"));
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label->ints));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> TrainEmbedding(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "train_embedding"));
  MLCASK_ASSIGN_OR_RETURN(const Column* reviews, in.input->GetColumn("review"));
  ml::EmbeddingConfig cfg;
  cfg.dims = static_cast<size_t>(in.params->GetInt("dims", 12));
  cfg.window = static_cast<size_t>(in.params->GetInt("window", 2));
  cfg.seed = in.seed;
  cfg.power_iterations =
      static_cast<int>(in.params->GetInt("power_iterations", 10));
  int64_t variant = Variant(in);
  cfg.dims += static_cast<size_t>(std::max<int64_t>(0, variant));

  ml::WordEmbedding emb;
  MLCASK_RETURN_IF_ERROR(emb.Fit(reviews->strings, cfg));

  Table t;
  std::vector<std::vector<double>> features(emb.dims());
  for (auto& f : features) f.reserve(reviews->strings.size());
  for (const std::string& r : reviews->strings) {
    std::vector<double> vec = emb.Embed(r);
    for (size_t k = 0; k < emb.dims(); ++k) features[k].push_back(vec[k]);
  }
  for (size_t k = 0; k < features.size(); ++k) {
    MLCASK_RETURN_IF_ERROR(
        t.AddDoubleColumn(StrFormat("emb%zu", k), std::move(features[k])));
  }
  if (in.input->HasColumn("token_count")) {
    MLCASK_ASSIGN_OR_RETURN(const Column* tc, in.input->GetColumn("token_count"));
    MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn("token_count", tc->doubles));
  }
  MLCASK_ASSIGN_OR_RETURN(const Column* label, in.input->GetColumn("label"));
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label->ints));
  t.SetMeta("vocab_size", std::to_string(emb.vocab_size()));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> PoolFeatures(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "pool_features"));
  bool use_token_count = in.params->GetBool("use_token_count", true);
  int64_t variant = Variant(in);
  Table t;
  for (const Column& c : in.input->columns()) {
    if (c.type == ColumnType::kDouble && c.name != "label") {
      if (c.name == "token_count" && !use_token_count) continue;
      std::vector<double> vals = c.doubles;
      double mean = 0;
      for (double v : vals) mean += v;
      mean /= static_cast<double>(vals.size());
      double sd = 0;
      for (double v : vals) sd += (v - mean) * (v - mean);
      sd = std::sqrt(sd / static_cast<double>(vals.size()));
      if (sd < 1e-12) sd = 1.0;
      for (double& v : vals) v = (v - mean) / sd;
      // Variant 1+ additionally clips outliers at ±3σ.
      if (variant > 0) {
        for (double& v : vals) v = std::clamp(v, -3.0, 3.0);
      }
      MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(c.name, std::move(vals)));
    }
  }
  MLCASK_ASSIGN_OR_RETURN(const Column* label, in.input->GetColumn("label"));
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label->ints));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> AutolearnSelect(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "autolearn_select"));
  size_t keep = static_cast<size_t>(in.params->GetInt("keep_top_k", 24));
  keep += static_cast<size_t>(std::max<int64_t>(0, Variant(in)) * 2);

  MLCASK_ASSIGN_OR_RETURN(const Column* label_col, in.input->GetColumn("label"));
  std::vector<double> y;
  y.reserve(label_col->ints.size());
  for (int64_t v : label_col->ints) y.push_back(static_cast<double>(v));

  // Rank existing double columns by |corr with label| and keep the best.
  std::vector<std::pair<double, const Column*>> ranked;
  for (const Column& c : in.input->columns()) {
    if (c.type == ColumnType::kDouble && c.name != "label") {
      ranked.emplace_back(std::fabs(ml::PearsonCorrelation(c.doubles, y)), &c);
    }
  }
  if (ranked.empty()) {
    return Status::InvalidArgument("autolearn_select: no feature columns");
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second->name < b.second->name;
  });
  if (ranked.size() > keep) ranked.resize(keep);

  Table t;
  for (const auto& [score, col] : ranked) {
    (void)score;
    MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(col->name, col->doubles));
  }
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label_col->ints));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> ZernikeFeatures(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "zernike_features"));
  int max_order = static_cast<int>(in.params->GetInt("max_order", 6));
  int64_t variant = Variant(in);
  max_order += static_cast<int>(std::min<int64_t>(variant, 4));

  // Infer side from the shape meta ("16x16").
  auto it = in.input->meta().find("shape");
  if (it == in.input->meta().end()) {
    return Status::InvalidArgument("zernike_features: input lacks shape meta");
  }
  size_t side = 0;
  {
    std::vector<std::string> parts = StrSplit(it->second, 'x');
    uint64_t s = 0;
    if (parts.size() != 2 || !ParseUint(parts[0], &s)) {
      return Status::InvalidArgument("zernike_features: bad shape meta");
    }
    side = static_cast<size_t>(s);
  }

  // The pixel-independent terms (radial polynomials, angles) are shared by
  // every image of the table.
  MLCASK_ASSIGN_OR_RETURN(ml::ZernikeBasis basis,
                          ml::ZernikeExtractor(max_order).MakeBasis(side));
  const size_t rows = in.input->num_rows();
  std::vector<std::vector<double>> features(basis.NumFeatures(),
                                            std::vector<double>(rows));
  std::vector<double> pixels(side * side), f(basis.NumFeatures());
  // Pre-resolve pixel columns to avoid per-row lookups.
  std::vector<const Column*> px_cols(side * side);
  for (size_t k = 0; k < side * side; ++k) {
    MLCASK_ASSIGN_OR_RETURN(px_cols[k],
                            in.input->GetColumn(StrFormat("px%zu", k)));
  }
  for (size_t i = 0; i < rows; ++i) {
    for (size_t k = 0; k < side * side; ++k) pixels[k] = px_cols[k]->doubles[i];
    basis.Apply(pixels.data(), f.data());
    for (size_t k = 0; k < f.size(); ++k) features[k][i] = f[k];
  }

  Table t;
  for (size_t k = 0; k < features.size(); ++k) {
    MLCASK_RETURN_IF_ERROR(
        t.AddDoubleColumn(StrFormat("z%zu", k), std::move(features[k])));
  }
  MLCASK_ASSIGN_OR_RETURN(const Column* label, in.input->GetColumn("label"));
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label->ints));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

StatusOr<ExecOutput> AutolearnFeatures(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "autolearn_features"));
  MLCASK_ASSIGN_OR_RETURN(auto xy, FeaturesAndLabel(*in.input));
  ml::AutolearnConfig cfg;
  cfg.keep_top_k = static_cast<size_t>(in.params->GetInt("keep_top_k", 24));
  cfg.base_pool = static_cast<size_t>(in.params->GetInt("base_pool", 10));
  int64_t variant = Variant(in);
  cfg.keep_top_k += static_cast<size_t>(std::max<int64_t>(0, variant) * 2);
  MLCASK_ASSIGN_OR_RETURN(ml::AutolearnResult result,
                          GenerateAndSelectFeatures(xy.first, xy.second, cfg));

  Table t;
  for (size_t k = 0; k < result.features.cols(); ++k) {
    std::vector<double> col(result.features.rows());
    for (size_t i = 0; i < result.features.rows(); ++i) {
      col[i] = result.features.At(i, k);
    }
    MLCASK_RETURN_IF_ERROR(
        t.AddDoubleColumn(StrFormat("g%zu", k), std::move(col)));
  }
  std::vector<int64_t> label(xy.second.size());
  for (size_t i = 0; i < xy.second.size(); ++i) {
    label[i] = xy.second[i] > 0.5 ? 1 : 0;
  }
  MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", std::move(label)));
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

/// Joins several predecessor outputs for DAG pipelines: feature (double)
/// columns from every input are concatenated (renamed on collision), and a
/// single "label" column is taken from the first input that has one.
StatusOr<ExecOutput> ConcatFeatures(const ExecInput& in) {
  if (in.inputs.empty()) {
    return Status::InvalidArgument("concat_features requires >= 1 input");
  }
  Table t;
  size_t branch = 0;
  for (const Table* input : in.inputs) {
    for (const Column& c : input->columns()) {
      if (c.type != ColumnType::kDouble || c.name == "label") continue;
      std::string name = c.name;
      if (t.HasColumn(name)) {
        name = "b" + std::to_string(branch) + "_" + name;
      }
      MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(name, c.doubles));
    }
    ++branch;
  }
  for (const Table* input : in.inputs) {
    if (input->HasColumn("label")) {
      MLCASK_ASSIGN_OR_RETURN(const Column* label, input->GetColumn("label"));
      MLCASK_RETURN_IF_ERROR(t.AddIntColumn("label", label->ints));
      break;
    }
  }
  if (!t.HasColumn("label")) {
    return Status::InvalidArgument("concat_features: no input carries a label");
  }
  ExecOutput out;
  out.table = std::move(t);
  return out;
}

// ---------------------------------------------------------------------------
// Model libraries
// ---------------------------------------------------------------------------

/// Shared train/eval scaffold: split, fit, score on the held-out set, and
/// emit a small predictions table. Reports the full metric set (all
/// score-oriented, higher better) so the merge can optimize any of them.
template <typename FitPredict>
StatusOr<ExecOutput> TrainAndScore(const ExecInput& in, FitPredict fit_predict) {
  MLCASK_ASSIGN_OR_RETURN(auto xy, FeaturesAndLabel(*in.input));
  MLCASK_ASSIGN_OR_RETURN(ml::TrainTestSplit split,
                          ml::SplitData(xy.first, xy.second, 0.3, in.seed));
  MLCASK_ASSIGN_OR_RETURN(std::vector<double> proba, fit_predict(split));
  MLCASK_ASSIGN_OR_RETURN(double acc, ml::Accuracy(proba, split.y_test));
  MLCASK_ASSIGN_OR_RETURN(double auc, ml::AreaUnderRoc(proba, split.y_test));
  MLCASK_ASSIGN_OR_RETURN(double logloss, ml::LogLoss(proba, split.y_test));

  Table t;
  MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn("prediction", std::move(proba)));
  MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn("label", std::move(split.y_test)));
  ExecOutput out;
  out.table = std::move(t);
  out.score = acc;
  out.metric = "accuracy";
  out.metrics["accuracy"] = acc;
  out.metrics["auc"] = auc;
  // Score-oriented transform of an error metric, as in the paper's
  // score = 1/MSE example.
  out.metrics["inv_logloss"] = 1.0 / (logloss + 1e-12);
  return out;
}

StatusOr<ExecOutput> TrainMlp(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "train_mlp"));
  ml::MlpConfig cfg;
  cfg.hidden_units = static_cast<size_t>(in.params->GetInt("hidden", 16));
  cfg.sgd.epochs = static_cast<int>(in.params->GetInt("epochs", 15));
  cfg.sgd.learning_rate = in.params->GetDouble("lr", 0.2);
  cfg.sgd.seed = in.seed;
  int64_t variant = Variant(in);
  // Successive model increments grow capacity and training budget a little.
  cfg.hidden_units += static_cast<size_t>(std::max<int64_t>(0, variant) * 2);
  cfg.sgd.epochs += static_cast<int>(variant);

  return TrainAndScore(in, [&](ml::TrainTestSplit& split)
                               -> StatusOr<std::vector<double>> {
    ml::Mlp model;
    MLCASK_RETURN_IF_ERROR(model.Fit(split.x_train, split.y_train, cfg));
    return model.PredictProba(split.x_test);
  });
}

StatusOr<ExecOutput> TrainLogReg(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "train_logreg"));
  ml::SgdConfig cfg;
  cfg.epochs = static_cast<int>(in.params->GetInt("epochs", 25));
  cfg.learning_rate = in.params->GetDouble("lr", 0.15);
  cfg.seed = in.seed;
  cfg.epochs += static_cast<int>(Variant(in));

  return TrainAndScore(in, [&](ml::TrainTestSplit& split)
                               -> StatusOr<std::vector<double>> {
    ml::LogisticRegression model;
    MLCASK_RETURN_IF_ERROR(model.Fit(split.x_train, split.y_train, cfg));
    return model.PredictProba(split.x_test);
  });
}

StatusOr<ExecOutput> TrainAdaBoost(const ExecInput& in) {
  MLCASK_RETURN_IF_ERROR(RequireInput(in, "train_adaboost"));
  ml::AdaBoostConfig cfg;
  cfg.rounds = static_cast<int>(in.params->GetInt("rounds", 30));
  cfg.rounds += static_cast<int>(Variant(in) * 5);

  return TrainAndScore(in, [&](ml::TrainTestSplit& split)
                               -> StatusOr<std::vector<double>> {
    ml::AdaBoost model;
    MLCASK_RETURN_IF_ERROR(model.Fit(split.x_train, split.y_train, cfg));
    return model.PredictProba(split.x_test);
  });
}

}  // namespace

Status RegisterWorkloadLibraries(pipeline::LibraryRegistry* registry) {
  MLCASK_RETURN_IF_ERROR(registry->Register("gen_readmission", GenReadmission));
  MLCASK_RETURN_IF_ERROR(registry->Register("gen_dpm", GenDpm));
  MLCASK_RETURN_IF_ERROR(registry->Register("gen_reviews", GenReviews));
  MLCASK_RETURN_IF_ERROR(registry->Register("gen_digits", GenDigits));
  MLCASK_RETURN_IF_ERROR(registry->Register("cleanse_impute", CleanseImpute));
  MLCASK_RETURN_IF_ERROR(
      registry->Register("extract_ehr_features", ExtractEhrFeatures));
  MLCASK_RETURN_IF_ERROR(registry->Register("hmm_smooth", HmmSmooth));
  MLCASK_RETURN_IF_ERROR(registry->Register("corpus_process", CorpusProcess));
  MLCASK_RETURN_IF_ERROR(registry->Register("train_embedding", TrainEmbedding));
  MLCASK_RETURN_IF_ERROR(registry->Register("pool_features", PoolFeatures));
  MLCASK_RETURN_IF_ERROR(
      registry->Register("zernike_features", ZernikeFeatures));
  MLCASK_RETURN_IF_ERROR(
      registry->Register("autolearn_features", AutolearnFeatures));
  MLCASK_RETURN_IF_ERROR(
      registry->Register("autolearn_select", AutolearnSelect));
  MLCASK_RETURN_IF_ERROR(registry->Register("concat_features", ConcatFeatures));
  MLCASK_RETURN_IF_ERROR(registry->Register("train_mlp", TrainMlp));
  MLCASK_RETURN_IF_ERROR(registry->Register("train_logreg", TrainLogReg));
  MLCASK_RETURN_IF_ERROR(registry->Register("train_adaboost", TrainAdaBoost));
  return Status::Ok();
}

}  // namespace mlcask::sim
