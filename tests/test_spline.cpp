#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "md/spline.h"

namespace lmp::md {
namespace {

TEST(UniformSpline, ReproducesKnots) {
  const std::vector<double> y{1.0, 4.0, 2.0, 8.0, 5.0};
  const UniformSpline s(0.0, 1.0, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(s.value(static_cast<double>(i)), y[i], 1e-12);
  }
}

TEST(UniformSpline, ExactForLinearFunctions) {
  std::vector<double> y;
  for (int i = 0; i < 8; ++i) y.push_back(3.0 + 2.0 * i);
  const UniformSpline s(0.0, 1.0, y);
  for (double x = 0.0; x <= 7.0; x += 0.13) {
    EXPECT_NEAR(s.value(x), 3.0 + 2.0 * x, 1e-10);
    EXPECT_NEAR(s.derivative(x), 2.0, 1e-10);
  }
}

TEST(UniformSpline, ApproximatesSmoothFunction) {
  const int n = 200;
  const double dx = 2.0 * M_PI / (n - 1);
  std::vector<double> y;
  for (int i = 0; i < n; ++i) y.push_back(std::sin(i * dx));
  const UniformSpline s(0.0, dx, y);
  for (double x = 0.3; x < 2.0 * M_PI - 0.3; x += 0.1) {
    EXPECT_NEAR(s.value(x), std::sin(x), 1e-5);
    EXPECT_NEAR(s.derivative(x), std::cos(x), 1e-3);
  }
}

TEST(UniformSpline, ClampsBeyondTable) {
  const std::vector<double> y{0.0, 1.0, 4.0};
  const UniformSpline s(0.0, 1.0, y);
  EXPECT_NEAR(s.value(-5.0), s.value(0.0), 1e-12);
  EXPECT_NEAR(s.value(99.0), s.value(2.0), 1e-12);
}

TEST(UniformSpline, EvalMatchesValueAndDerivative) {
  const std::vector<double> y{2.0, -1.0, 3.0, 0.5};
  const UniformSpline s(1.0, 0.5, y);
  double v, d;
  s.eval(1.7, v, d);
  EXPECT_DOUBLE_EQ(v, s.value(1.7));
  EXPECT_DOUBLE_EQ(d, s.derivative(1.7));
}

TEST(UniformSpline, SegmentRangeAndClamping) {
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) y.push_back(std::exp(-0.3 * i) * std::cos(0.7 * i));
  const double x0 = 0.05, dx = 0.0125;
  const UniformSpline s(x0, dx, y);
  const int n = static_cast<int>(y.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  // Below the table: the first segment at t = 0, and the same bits as at x_min.
  for (const double x : {x0 - 1.0, x0 - 1e-12}) {
    double t;
    EXPECT_EQ(s.segment(x, t), 0) << "x=" << x;
    EXPECT_EQ(t, 0.0) << "x=" << x;
    EXPECT_EQ(bits(s.value(x)), bits(s.value(s.x_min()))) << "x=" << x;
  }
  // Above the table: the last segment at t = 1 (up to the rounding of
  // x_max), and the same bits as at x_max.
  for (const double x : {s.x_max() + 1e-12, s.x_max() + 3.0}) {
    double t;
    EXPECT_EQ(s.segment(x, t), n - 2) << "x=" << x;
    EXPECT_NEAR(t, 1.0, 1e-12) << "x=" << x;
    EXPECT_EQ(bits(s.derivative(x)), bits(s.derivative(s.x_max()))) << "x=" << x;
  }
  // Inside: a point a fraction into segment k lands in segment k.
  for (int k = 0; k + 1 < n; ++k) {
    for (const double frac : {0.001, 0.25, 0.5, 0.999}) {
      const double x = x0 + dx * k + frac * dx;
      double t;
      EXPECT_EQ(s.segment(x, t), k) << "x=" << x;
      EXPECT_NEAR(t, frac, 1e-9) << "x=" << x;
    }
  }
  // On a knot, rounding may give the segment on either side of it.
  for (int k = 0; k < n; ++k) {
    const double x = x0 + dx * k;
    double t;
    const int i = s.segment(x, t);
    ASSERT_GE(i, 0);
    ASSERT_LE(i, n - 2);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0 + 1e-12);
    EXPECT_NEAR(i + t, static_cast<double>(k), 1e-9) << "x=" << x;
  }
}

TEST(UniformSpline, DerivativeMatchesFiniteDifference) {
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.1 * i;
    y.push_back(x * x * std::exp(-x));
  }
  const UniformSpline s(0.0, 0.1, y);
  const double h = 1e-6;
  for (double x = 0.5; x < 4.0; x += 0.37) {
    const double fd = (s.value(x + h) - s.value(x - h)) / (2 * h);
    EXPECT_NEAR(s.derivative(x), fd, 1e-5);
  }
}

TEST(UniformSpline, ContinuousAtKnots) {
  const std::vector<double> y{0.0, 3.0, -2.0, 5.0, 1.0};
  const UniformSpline s(0.0, 1.0, y);
  for (double k = 1.0; k <= 3.0; k += 1.0) {
    const double eps = 1e-9;
    EXPECT_NEAR(s.value(k - eps), s.value(k + eps), 1e-7);
    EXPECT_NEAR(s.derivative(k - eps), s.derivative(k + eps), 1e-5);
  }
}

TEST(UniformSpline, InvalidInputsThrow) {
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(UniformSpline(0.0, 1.0, two), std::invalid_argument);
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_THROW(UniformSpline(0.0, 0.0, three), std::invalid_argument);
}

TEST(UniformSpline, RangeAccessors) {
  const std::vector<double> y{1, 2, 3, 4};
  const UniformSpline s(2.0, 0.5, y);
  EXPECT_DOUBLE_EQ(s.x_min(), 2.0);
  EXPECT_DOUBLE_EQ(s.x_max(), 3.5);
}

}  // namespace
}  // namespace lmp::md
