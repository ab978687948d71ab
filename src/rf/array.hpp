// Uniform linear array (ULA) model and steering vectors.
//
// Matches the paper's Section 2.2 conventions exactly:
//   omega(m, theta) = (m-1) * (2*pi*d/lambda) * cos(theta)
//   a(theta)        = [1, e^{-j omega(2,theta)}, ..., e^{-j omega(M,theta)}]^T
// where theta in [0, pi] is measured against the array's reference
// direction. The reference direction is the negative of the element-index
// axis so that a source at theta produces exactly the signal model of
// paper Eq. (2) at the elements.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/complex_matrix.hpp"
#include "rf/constants.hpp"
#include "rf/geometry.hpp"

namespace dwatch::rf {

/// Steering phase omega(m, theta) for 1-based element index m (paper Eq. 2).
[[nodiscard]] double steering_phase(std::size_t m_one_based, double theta,
                                    double spacing, double lambda);

/// Steering vector a(theta) for an M-element ULA (paper Eq. 4).
[[nodiscard]] linalg::CVector steering_vector(std::size_t num_elements,
                                              double theta, double spacing,
                                              double lambda);

/// Physical placement + electrical parameters of one ULA.
///
/// Elements are placed at `center + axis * ((m-1) - (M-1)/2) * spacing`
/// horizontally at height `center.z`; `axis` must be a horizontal unit
/// vector (the ULA is horizontal as in the paper's deployments).
class UniformLinearArray {
 public:
  /// Throws std::invalid_argument for fewer than 2 elements, non-positive
  /// spacing/lambda, or a zero axis.
  UniformLinearArray(Vec3 center, Vec2 axis, std::size_t num_elements,
                     double spacing = kDefaultElementSpacing,
                     double carrier_hz = kDefaultCarrierHz);

  [[nodiscard]] const Vec3& center() const noexcept { return center_; }
  [[nodiscard]] Vec2 axis() const noexcept { return axis_; }
  [[nodiscard]] std::size_t num_elements() const noexcept {
    return num_elements_;
  }
  [[nodiscard]] double spacing() const noexcept { return spacing_; }
  [[nodiscard]] double carrier_hz() const noexcept { return carrier_hz_; }
  [[nodiscard]] double lambda() const noexcept { return lambda_; }
  [[nodiscard]] double aperture() const noexcept {
    return spacing_ * static_cast<double>(num_elements_ - 1);
  }

  /// World position of 1-based element m.
  [[nodiscard]] Vec3 element_position(std::size_t m_one_based) const;

  /// Arrival angle theta in [0, pi] of a signal coming FROM `source`
  /// (or from the last reflector before the array), measured in the
  /// paper's convention so that synthesized element phases follow
  /// x_m = s * e^{-j omega(m, theta)}.
  [[nodiscard]] double arrival_angle(const Vec3& source) const;

  /// Same, for a point in the floor plane at array height (the 2-D
  /// assumption the localizer makes; differs from the 3-D truth when tags
  /// and array are at different heights — paper Fig. 18). Bit-identical
  /// to arrival_angle(lift(source_xy, center().z)); throws
  /// std::domain_error at the array's own center.
  [[nodiscard]] double arrival_angle_planar(Vec2 source_xy) const;

  /// a(theta) for this array.
  [[nodiscard]] linalg::CVector steering(double theta) const;

 private:
  Vec3 center_;
  Vec2 axis_;
  std::size_t num_elements_;
  double spacing_;
  double carrier_hz_;
  double lambda_;
};

}  // namespace dwatch::rf
