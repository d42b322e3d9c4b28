#include "md/spline.h"

#include <stdexcept>

namespace lmp::md {

UniformSpline::UniformSpline(double x0, double dx, std::span<const double> y)
    : x0_(x0), dx_(dx), n_(static_cast<int>(y.size())) {
  if (n_ < 3) throw std::invalid_argument("spline needs >= 3 samples");
  if (dx <= 0) throw std::invalid_argument("spline spacing must be > 0");
  x_max_ = x0_ + dx_ * static_cast<double>(n_ - 1);
  const double h2 = dx_ * dx_;
  h2_6_ = h2 / 6.0;
  dx_6_ = dx_ / 6.0;

  // Solve the tridiagonal natural-spline system for second derivatives.
  // Uniform spacing collapses the coefficients to constants.
  const auto n = static_cast<std::size_t>(n_);
  std::vector<double> m(n, 0.0);
  std::vector<double> c(n, 0.0);  // scratch
  std::vector<double> d(n, 0.0);
  // Interior equations: m[i-1] + 4 m[i] + m[i+1] = 6 (y[i-1]-2y[i]+y[i+1])/dx^2
  for (std::size_t i = 1; i + 1 < n; ++i) {
    d[i] = 6.0 * (y[i - 1] - 2.0 * y[i] + y[i + 1]) / h2;
  }
  // Thomas algorithm with natural BCs (m[0] = m[n-1] = 0).
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double w = 4.0 - (i > 1 ? c[i - 1] : 0.0);
    c[i] = 1.0 / w;
    d[i] = (d[i] - (i > 1 ? d[i - 1] : 0.0)) / w;
  }
  for (std::size_t i = n - 2; i >= 1; --i) m[i] = d[i] - c[i] * m[i + 1];

  knots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    knots_[i] = {y[i], m[i], i + 1 < n ? (y[i + 1] - y[i]) / dx_ : 0.0};
  }
}

}  // namespace lmp::md
