// Tests for the ULA model and steering vectors (paper Eq. 2/4
// conventions).
#include "rf/array.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

namespace dwatch::rf {
namespace {

TEST(SteeringPhase, ReferenceElementIsZero) {
  EXPECT_DOUBLE_EQ(steering_phase(1, 0.7, 0.16, 0.32), 0.0);
}

TEST(SteeringPhase, HalfWavelengthBroadside) {
  // Broadside (theta = pi/2): no phase progression.
  EXPECT_NEAR(steering_phase(5, kPi / 2, 0.16, 0.32), 0.0, 1e-12);
}

TEST(SteeringPhase, HalfWavelengthEndfire) {
  // Endfire (theta = 0), d = lambda/2: pi per element.
  EXPECT_NEAR(steering_phase(2, 0.0, 0.16, 0.32), kPi, 1e-12);
  EXPECT_NEAR(steering_phase(3, 0.0, 0.16, 0.32), 2 * kPi, 1e-12);
}

TEST(SteeringVector, UnitMagnitudeAndFirstElementOne) {
  const linalg::CVector a = steering_vector(8, 1.1, 0.1625, 0.325);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_NEAR(std::abs(a[0] - linalg::Complex{1.0}), 0.0, 1e-12);
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_NEAR(std::abs(a[m]), 1.0, 1e-12);
  }
}

TEST(SteeringVector, MatchesPaperFormula) {
  const double theta = deg2rad(40.0);
  const linalg::CVector a = steering_vector(4, theta, 0.1625, 0.325);
  for (std::size_t m = 1; m <= 4; ++m) {
    const double w = static_cast<double>(m - 1) * kTwoPi * 0.5 *
                     std::cos(theta);
    EXPECT_NEAR(std::abs(a[m - 1] - std::polar(1.0, -w)), 0.0, 1e-12);
  }
}

TEST(UniformLinearArray, ValidatesConstruction) {
  EXPECT_THROW(UniformLinearArray({0, 0, 1}, {1, 0}, 1),
               std::invalid_argument);
  EXPECT_THROW(UniformLinearArray({0, 0, 1}, {1, 0}, 8, -0.1),
               std::invalid_argument);
  EXPECT_THROW(UniformLinearArray({0, 0, 1}, {0, 0}, 8),
               std::invalid_argument);
  EXPECT_THROW(UniformLinearArray({0, 0, 1}, {1, 0}, 8,
                                  kDefaultElementSpacing, -1.0),
               std::invalid_argument);
}

TEST(UniformLinearArray, ElementPositionsCentredOnAxis) {
  const UniformLinearArray ula({0, 0, 1.25}, {1, 0}, 8);
  const Vec3 p1 = ula.element_position(1);
  const Vec3 p8 = ula.element_position(8);
  EXPECT_NEAR(p1.x, -3.5 * ula.spacing(), 1e-12);
  EXPECT_NEAR(p8.x, 3.5 * ula.spacing(), 1e-12);
  EXPECT_NEAR(p1.y, 0.0, 1e-12);
  EXPECT_NEAR(p1.z, 1.25, 1e-12);
  EXPECT_NEAR(ula.aperture(), 7 * ula.spacing(), 1e-12);
  EXPECT_THROW((void)ula.element_position(0), std::out_of_range);
  EXPECT_THROW((void)ula.element_position(9), std::out_of_range);
}

TEST(UniformLinearArray, AxisIsNormalized) {
  const UniformLinearArray ula({0, 0, 1}, {3, 4}, 4);
  EXPECT_NEAR(ula.axis().norm(), 1.0, 1e-12);
  EXPECT_NEAR(ula.axis().x, 0.6, 1e-12);
}

TEST(UniformLinearArray, BroadsideArrivalAngleIsNinety) {
  const UniformLinearArray ula({0, 0, 1.0}, {1, 0}, 8);
  EXPECT_NEAR(ula.arrival_angle({0.0, 5.0, 1.0}), kPi / 2, 1e-12);
}

TEST(UniformLinearArray, EndfireConventions) {
  const UniformLinearArray ula({0, 0, 1.0}, {1, 0}, 8);
  // Source along -axis => theta = 0 (reference direction is -axis).
  EXPECT_NEAR(ula.arrival_angle({-5.0, 0.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(ula.arrival_angle({5.0, 0.0, 1.0}), kPi, 1e-12);
}

TEST(UniformLinearArray, ElevationShrinksEffectiveAngleTowardBroadside) {
  const UniformLinearArray ula({0, 0, 1.0}, {1, 0}, 8);
  const double flat = ula.arrival_angle({-4.0, 3.0, 1.0});
  const double high = ula.arrival_angle({-4.0, 3.0, 3.0});
  // Elevated source: cos(theta) magnitude shrinks => closer to pi/2.
  EXPECT_GT(std::abs(flat - kPi / 2), std::abs(high - kPi / 2));
}

TEST(UniformLinearArray, PlanarAngleIgnoresHeight) {
  const UniformLinearArray ula({1, 2, 1.3}, {0, 1}, 8);
  const double a1 = ula.arrival_angle_planar({4.0, 6.0});
  const double a2 = ula.arrival_angle({4.0, 6.0, 1.3});
  EXPECT_NEAR(a1, a2, 1e-12);
}

TEST(UniformLinearArray, PlanarAngleIsTheLiftedAngleBitForBit) {
  // The planar bearing skips the lifted z term, which is exactly +0: it
  // must return the 3-D angle's bits, on and off the axis line.
  const UniformLinearArray ula({3.5, 0.15, 1.25}, {0.6, 0.8}, 8);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> coord(-2.0, 9.0);
  std::vector<Vec2> points{{3.5 + 0.6, 0.15 + 0.8}, {3.5 - 1.2, 0.15 - 1.6},
                           {3.5, 0.15 + 1e-9}, {3.5 + 4.2, 0.15 + 5.6}};
  for (int k = 0; k < 2000; ++k) points.push_back({coord(rng), coord(rng)});
  for (const Vec2 p : points) {
    const double planar = ula.arrival_angle_planar(p);
    const double lifted = ula.arrival_angle(lift(p, 1.25));
    EXPECT_EQ(std::memcmp(&planar, &lifted, sizeof planar), 0)
        << p.x << "," << p.y << ": " << planar << " vs " << lifted;
  }
  EXPECT_THROW((void)ula.arrival_angle_planar({3.5, 0.15}), std::domain_error);
}

TEST(UniformLinearArray, SteeringMatchesFreeFunction) {
  const UniformLinearArray ula({0, 0, 1}, {1, 0}, 6);
  const linalg::CVector a = ula.steering(0.8);
  const linalg::CVector b =
      steering_vector(6, 0.8, ula.spacing(), ula.lambda());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12);
  }
}

/// Consistency sweep: synthesizing a plane wave from angle theta and
/// correlating against the steering vector at theta must be maximal at
/// theta (the whole AoA stack rests on this convention agreeing).
class ConventionTest : public ::testing::TestWithParam<double> {};

TEST_P(ConventionTest, SteeringVectorMatchesGeometry) {
  const double theta_deg = GetParam();
  const UniformLinearArray ula({0, 0, 1.0}, {1, 0}, 8);
  // Pick a far-away source at that arrival angle (in-plane).
  const double theta = deg2rad(theta_deg);
  // Reference direction is -axis = (-1, 0); rotate by +theta.
  const Vec2 dir{-std::cos(theta), std::sin(theta)};
  const Vec3 source = lift(dir * 500.0, 1.0);
  EXPECT_NEAR(ula.arrival_angle(source), theta, 1e-3);

  // Phase at element m from exact distances ~ steering vector phase.
  const linalg::CVector a = ula.steering(theta);
  const double d1 = distance(source, ula.element_position(1));
  for (std::size_t m = 2; m <= 8; ++m) {
    const double dm = distance(source, ula.element_position(m));
    const double geo_phase = -kTwoPi * (dm - d1) / ula.lambda();
    const double steer_phase = std::arg(a[m - 1]);
    EXPECT_NEAR(std::remainder(geo_phase - steer_phase, kTwoPi), 0.0, 2e-2)
        << "element " << m << " at theta " << theta_deg;
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, ConventionTest,
                         ::testing::Values(10.0, 30.0, 45.0, 60.0, 90.0,
                                           120.0, 150.0, 170.0));

}  // namespace
}  // namespace dwatch::rf
