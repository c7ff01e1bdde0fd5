#ifndef MLCASK_ML_ZERNIKE_H_
#define MLCASK_ML_ZERNIKE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace mlcask::ml {

class ZernikeBasis;

/// Zernike moment magnitudes |Z_nm| for a square grayscale image — the
/// rotation-invariant shape features the paper's Autolearn pipeline extracts
/// from digit images ("image classification of digits using Zernike moments
/// as features").
class ZernikeExtractor {
 public:
  /// `max_order`: highest radial order n; features are all (n, m) with
  /// n <= max_order, |m| <= n, n - |m| even (m >= 0 suffices for magnitudes).
  explicit ZernikeExtractor(int max_order = 8);

  /// Number of features produced per image.
  size_t NumFeatures() const { return moments_.size(); }

  /// Computes features for a `side` x `side` image given in row-major order
  /// with values in [0, 1].
  StatusOr<std::vector<double>> Extract(const std::vector<double>& pixels,
                                        size_t side) const;

  /// Everything of `Extract` that does not depend on pixel values, for
  /// `side` x `side` images: build it once to extract a batch of images.
  StatusOr<ZernikeBasis> MakeBasis(size_t side) const;

  /// Radial polynomial R_nm(rho) — exposed for testing.
  static double Radial(int n, int m, double rho);

 private:
  int max_order_;
  std::vector<std::pair<int, int>> moments_;
};

/// The pixel-independent terms of every Zernike moment for one image side:
/// the pixels inside the unit disk in scan order, and at each of them every
/// moment's radial value R_nm(rho), cos(m theta) and sin(m theta). Built by
/// `ZernikeExtractor::MakeBasis`; immutable once built.
class ZernikeBasis {
 public:
  size_t NumFeatures() const { return orders_.size(); }

  /// Writes the NumFeatures() moment magnitudes of one `side` x `side`
  /// row-major image to `features`; bit for bit what `Extract` returns.
  void Apply(const double* pixels, double* features) const;

 private:
  friend class ZernikeExtractor;

  std::vector<int> orders_;    // n of each moment, in feature order
  std::vector<size_t> disk_;   // in-disk pixel indices, scan order
  // Per in-disk pixel p and moment k, at [p * NumFeatures() + k].
  std::vector<double> radial_, cos_, sin_;
};

}  // namespace mlcask::ml

#endif  // MLCASK_ML_ZERNIKE_H_
