#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace lmp::md {

/// Natural cubic spline over a *uniform* grid — the interpolation engine
/// behind the tabulated EAM functionals (LAMMPS interpolates funcfl
/// tables the same way, with uniform dr/drho spacing).
///
/// Evaluation is header-inline and split in two steps so a caller can
/// share one lookup between tables on the same grid:
///
///   segment(x, t)            clamp x into [x_min, x_max], return the knot
///                            interval i in [0, n-2] and t in [0, 1]
///                            (up to rounding at the knots)
///   eval_at(i, t)            the cubic on that interval
///
/// The result depends on x only through (i, t), so any spline with the
/// same x0, dx and sample count may be evaluated at a segment another
/// one located. value / derivative / eval are segment + eval_at.
///
/// Each knot stores {y, m, slope} contiguously (m: the second
/// derivative, slope = (y[i+1] - y[i]) / dx), and dx*dx/6 and dx/6 are
/// precomputed. Each constant is the same IEEE operation on the same
/// operands the per-call form evaluated, so the results are bitwise
/// those of computing them at every call.
class UniformSpline {
 public:
  UniformSpline() = default;

  /// Build from samples y[i] = f(x0 + i*dx). Needs >= 3 points.
  UniformSpline(double x0, double dx, std::span<const double> y);

  double x_min() const { return x0_; }
  double x_max() const { return x_max_; }

  /// Locate x's knot interval, clamping to the table ends (matching
  /// LAMMPS' behaviour of clamping rho beyond the tabulated range).
  int segment(double x, double& t) const {
    const double xc = std::clamp(x, x0_, x_max_);
    int i = static_cast<int>((xc - x0_) / dx_);
    i = std::clamp(i, 0, n_ - 2);
    t = (xc - (x0_ + dx_ * i)) / dx_;
    return i;
  }

  /// Value and derivative on segment i at fraction t.
  void eval_at(int i, double t, double& val, double& deriv) const {
    const Knot& k0 = knots_[static_cast<std::size_t>(i)];
    const Knot& k1 = knots_[static_cast<std::size_t>(i) + 1];
    const double a = 1.0 - t;
    val = a * k0.y + t * k1.y + h2_6_ * ((a * a * a - a) * k0.m + (t * t * t - t) * k1.m);
    deriv = k0.slope + dx_6_ * ((3.0 * t * t - 1.0) * k1.m - (3.0 * a * a - 1.0) * k0.m);
  }

  /// Interpolated value, clamped to the table ends (the derivative work
  /// is dead once inlined).
  double value(double x) const {
    double v, dv;
    eval(x, v, dv);
    return v;
  }

  /// Interpolated derivative, clamped likewise.
  double derivative(double x) const {
    double v, dv;
    eval(x, v, dv);
    return dv;
  }

  /// Value and derivative in one lookup.
  void eval(double x, double& val, double& deriv) const {
    double t;
    const int i = segment(x, t);
    eval_at(i, t, val, deriv);
  }

 private:
  struct Knot {
    double y;
    double m;      ///< second derivative at the knot
    double slope;  ///< (y[i+1] - y[i]) / dx; 0 on the last knot
  };

  double x0_ = 0.0;
  double dx_ = 1.0;
  double x_max_ = 0.0;
  double h2_6_ = 0.0;  ///< (dx*dx) / 6
  double dx_6_ = 0.0;  ///< dx / 6
  int n_ = 0;
  std::vector<Knot> knots_;
};

}  // namespace lmp::md
