#include "ml/zernike.h"

#include <cmath>

#include "ml/vec2.h"

namespace mlcask::ml {

namespace {

double Factorial(int n) {
  double f = 1;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

}  // namespace

ZernikeExtractor::ZernikeExtractor(int max_order) : max_order_(max_order) {
  for (int n = 0; n <= max_order_; ++n) {
    for (int m = 0; m <= n; ++m) {
      if ((n - m) % 2 == 0) {
        moments_.emplace_back(n, m);
      }
    }
  }
}

double ZernikeExtractor::Radial(int n, int m, double rho) {
  double sum = 0;
  for (int s = 0; s <= (n - m) / 2; ++s) {
    double num = (s % 2 == 0 ? 1.0 : -1.0) * Factorial(n - s);
    double den = Factorial(s) * Factorial((n + m) / 2 - s) *
                 Factorial((n - m) / 2 - s);
    sum += num / den * std::pow(rho, n - 2 * s);
  }
  return sum;
}

StatusOr<ZernikeBasis> ZernikeExtractor::MakeBasis(size_t side) const {
  if (side == 0) return Status::InvalidArgument("image side must be positive");
  const double center = (static_cast<double>(side) - 1.0) / 2.0;
  const double radius = static_cast<double>(side) / 2.0;

  ZernikeBasis basis;
  for (const auto& nm : moments_) basis.orders_.push_back(nm.first);
  for (size_t yy = 0; yy < side; ++yy) {
    for (size_t xx = 0; xx < side; ++xx) {
      double dx = (static_cast<double>(xx) - center) / radius;
      double dy = (static_cast<double>(yy) - center) / radius;
      double rho = std::sqrt(dx * dx + dy * dy);
      if (rho > 1.0) continue;  // unit disk support
      double theta = std::atan2(dy, dx);
      basis.disk_.push_back(yy * side + xx);
      for (const auto& [n, m] : moments_) {
        basis.radial_.push_back(Radial(n, m, rho));
        basis.cos_.push_back(std::cos(m * theta));
        basis.sin_.push_back(std::sin(m * theta));
      }
    }
  }
  return basis;
}

void ZernikeBasis::Apply(const double* pixels, double* features) const {
  // Each moment sums re += px * R * cos and im -= px * R * sin over the
  // nonzero in-disk pixels in scan order. Pixels are the outer loop, so a
  // zero pixel is skipped once for all moments; the moments (independent
  // sums) share the vector lanes.
  const size_t km = orders_.size();
  std::vector<double> acc(2 * km, 0.0);
  double* re = acc.data();
  double* im = acc.data() + km;
  for (size_t p = 0; p < disk_.size(); ++p) {
    const double px = pixels[disk_[p]];
    if (px == 0.0) continue;
    const double* r = radial_.data() + p * km;
    const double* c = cos_.data() + p * km;
    const double* s = sin_.data() + p * km;
    const V2 pv = SplatV2(px);
    size_t k = 0;
    for (; k + 2 <= km; k += 2) {
      const V2 pr = pv * LoadV2(r + k);
      StoreV2(re + k, LoadV2(re + k) + pr * LoadV2(c + k));
      StoreV2(im + k, LoadV2(im + k) - pr * LoadV2(s + k));
    }
    if (k < km) {
      const double pr = px * r[k];
      re[k] += pr * c[k];
      im[k] -= pr * s[k];
    }
  }
  for (size_t k = 0; k < km; ++k) {
    double norm = (orders_[k] + 1.0) / M_PI;
    double re_k = re[k] * norm;
    double im_k = im[k] * norm;
    features[k] = std::sqrt(re_k * re_k + im_k * im_k);
  }
}

StatusOr<std::vector<double>> ZernikeExtractor::Extract(
    const std::vector<double>& pixels, size_t side) const {
  if (side == 0 || pixels.size() != side * side) {
    return Status::InvalidArgument("pixel buffer is not side*side");
  }
  MLCASK_ASSIGN_OR_RETURN(ZernikeBasis basis, MakeBasis(side));
  std::vector<double> out(basis.NumFeatures());
  basis.Apply(pixels.data(), out.data());
  return out;
}

}  // namespace mlcask::ml
