// Steering manifold cache: keying, sharing, and exact equivalence of the
// cached (batched) spectrum paths against the per-angle reference.
#include "core/steering_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/covariance.hpp"
#include "core/music.hpp"
#include "core/pmusic.hpp"
#include "rf/array.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"

namespace dwatch::core {
namespace {

constexpr double kSpacing = 0.1625;
constexpr double kLambda = 0.325;

linalg::CMatrix synth_snapshots(std::size_t elements,
                                const std::vector<double>& angles,
                                std::uint64_t seed) {
  const rf::UniformLinearArray array({0, 0, 1.0}, {1, 0}, elements, kSpacing);
  std::vector<rf::PropagationPath> paths;
  std::vector<double> scale;
  for (const double a : angles) {
    rf::PropagationPath p;
    p.kind = rf::PathKind::kDirect;
    p.vertices = {{-10, 0, 1.0}, array.center()};
    p.length = 10.0;
    p.aoa = a;
    p.gain = {1.0, 0.0};
    paths.push_back(p);
    scale.push_back(1.0);
  }
  rf::SnapshotOptions opts;
  opts.num_snapshots = 32;
  opts.noise_sigma = rf::noise_sigma_for_snr(paths, 1.0, 30.0);
  rf::Rng rng(seed);
  return rf::synthesize_snapshots(array, paths, scale, opts, rng);
}

TEST(SteeringManifold, MatchesSteeringVectorExactly) {
  const SteeringManifold manifold(8, kSpacing, kLambda, 181);
  ASSERT_EQ(manifold.elements(), 8u);
  ASSERT_EQ(manifold.grid_points(), 181u);
  for (std::size_t i = 0; i < manifold.grid_points(); i += 17) {
    const linalg::CVector a =
        rf::steering_vector(8, manifold.theta_at(i), kSpacing, kLambda);
    for (std::size_t m = 0; m < 8; ++m) {
      EXPECT_EQ(manifold.soa().at(m, i), a[m])
          << "element " << m << " grid " << i;
    }
  }
}

TEST(SteeringManifold, GridMatchesAngularSpectrum) {
  const SteeringManifold manifold(4, kSpacing, kLambda, 361);
  const AngularSpectrum reference(361);
  for (std::size_t i = 0; i < 361; i += 31) {
    EXPECT_DOUBLE_EQ(manifold.theta_at(i), reference.theta_at(i));
  }
}

TEST(SteeringManifold, RejectsBadArguments) {
  EXPECT_THROW(SteeringManifold(0, kSpacing, kLambda, 10),
               std::invalid_argument);
  EXPECT_THROW(SteeringManifold(4, kSpacing, kLambda, 1),
               std::invalid_argument);
  EXPECT_THROW(SteeringManifold(4, -1.0, kLambda, 10),
               std::invalid_argument);
  EXPECT_THROW(SteeringManifold(4, kSpacing, 0.0, 10),
               std::invalid_argument);
}

TEST(SteeringCache, SharesOneManifoldPerKey) {
  SteeringCache cache;
  const auto a = cache.get(8, kSpacing, kLambda, 361);
  const auto b = cache.get(8, kSpacing, kLambda, 361);
  EXPECT_EQ(a.get(), b.get());  // identical object, not a rebuild
  EXPECT_EQ(cache.size(), 1u);

  // Any key component change is a different manifold.
  EXPECT_NE(cache.get(6, kSpacing, kLambda, 361).get(), a.get());
  EXPECT_NE(cache.get(8, kSpacing * 1.5, kLambda, 361).get(), a.get());
  EXPECT_NE(cache.get(8, kSpacing, kLambda * 1.5, 361).get(), a.get());
  EXPECT_NE(cache.get(8, kSpacing, kLambda, 181).get(), a.get());
  EXPECT_EQ(cache.size(), 5u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(a->elements(), 8u);  // outstanding handle survives clear()
}

/// The tentpole equivalence guarantee: MUSIC spectra computed through
/// the cached manifold (noise_spectrum) match the per-angle
/// spectrum_value reference to 1e-12.
TEST(SteeringCache, MusicSpectrumMatchesUncachedPath) {
  const linalg::CMatrix x =
      synth_snapshots(8, {rf::deg2rad(60.0), rf::deg2rad(115.0)}, 7);
  const MusicEstimator music(kSpacing, kLambda);
  const MusicResult result = music.estimate(x);

  for (std::size_t i = 0; i < result.spectrum.size(); ++i) {
    const double reference =
        music.spectrum_value(result.noise_subspace, result.spectrum.theta_at(i));
    EXPECT_NEAR(result.spectrum[i], reference,
                1e-12 * std::max(1.0, std::abs(reference)))
        << "grid point " << i;
  }
}

/// Same guarantee for the P-MUSIC beamforming power spectrum (Eq. 13):
/// batched quadratic form vs per-angle steering_vector + matvec.
TEST(SteeringCache, PowerSpectrumMatchesUncachedPath) {
  const linalg::CMatrix x =
      synth_snapshots(8, {rf::deg2rad(45.0), rf::deg2rad(100.0)}, 11);
  const linalg::CMatrix r = sample_correlation(x);
  const PMusicEstimator pmusic(kSpacing, kLambda);
  const AngularSpectrum pb = pmusic.power_spectrum(r);

  for (std::size_t i = 0; i < pb.size(); ++i) {
    const linalg::CVector a =
        rf::steering_vector(r.rows(), pb.theta_at(i), kSpacing, kLambda);
    const linalg::CVector ra = linalg::matvec(r, a);
    const double reference =
        std::max(linalg::inner_product(a, ra).real(), 0.0) /
        static_cast<double>(r.rows() * r.rows());
    EXPECT_NEAR(pb[i], reference, 1e-12 * std::max(1.0, reference))
        << "grid point " << i;
  }
}

}  // namespace
}  // namespace dwatch::core
