// Golden-spectrum regression: fixed-seed MUSIC and P-MUSIC spectra for
// 4- and 8-element arrays, compared sample-by-sample against checked-in
// reference data with a 1e-9 drift budget. Every spectrum is computed
// on both the scalar backend and the detected SIMD backend, which must
// agree bit for bit; this is the test that drives the scalar kernels
// through MusicEstimator and PMusicEstimator.
//
// The point is to pin the NUMERICS: an eigensolver tweak, a correlation
// refactor, or an optimization pass that silently shifts spectra by more
// than noise shows up here before it shows up as a localization
// regression. Inputs are synthesized with pure arithmetic and a local
// LCG — no std:: distributions, whose sequences are
// implementation-defined and would make the goldens non-portable.
//
// Regenerating after an INTENDED numeric change:
//   DWATCH_REGEN_GOLDEN=1 ./core_tests --gtest_filter='GoldenSpectrum*'
// then commit the rewritten files under tests/core/golden/.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/music.hpp"
#include "core/pmusic.hpp"
#include "linalg/complex_matrix.hpp"
#include "linalg/simd_kernels.hpp"
#include "rf/constants.hpp"

namespace dwatch::core {
namespace {

constexpr double kSpacing = 0.163;        // m, the repo's default ULA pitch
constexpr double kLambda = 2.0 * kSpacing;  // half-wavelength array
constexpr double kDriftBudget = 1e-9;

/// Minimal deterministic generator: 64-bit LCG (MMIX constants), top 53
/// bits as a uniform double in [0, 1). Identical on every platform.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  double uniform() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

/// Two coherent sources + weak noise, all arithmetic deterministic.
linalg::CMatrix golden_snapshots(std::size_t num_elements,
                                 std::uint64_t seed) {
  const double thetas[2] = {0.7, 1.9};     // rad
  const double amplitudes[2] = {1.0, 0.45};
  const std::size_t num_snapshots = 16;
  Lcg lcg(seed);
  linalg::CMatrix x(num_elements, num_snapshots);
  for (std::size_t n = 0; n < num_snapshots; ++n) {
    // One tag symbol per snapshot, shared by both paths (coherent
    // backscatter, the case spatial smoothing exists for).
    const double symbol_phase = rf::kTwoPi * lcg.uniform();
    for (std::size_t m = 0; m < num_elements; ++m) {
      std::complex<double> v{0.0, 0.0};
      for (int k = 0; k < 2; ++k) {
        const double steer = rf::kTwoPi * kSpacing *
                             static_cast<double>(m) * std::cos(thetas[k]) /
                             kLambda;
        v += amplitudes[k] *
             std::complex<double>(std::cos(steer + symbol_phase),
                                  std::sin(steer + symbol_phase));
      }
      v += std::complex<double>(1e-3 * (lcg.uniform() - 0.5),
                                1e-3 * (lcg.uniform() - 0.5));
      x(m, n) = v;
    }
  }
  return x;
}

std::string golden_path(const std::string& name) {
  return std::string(DWATCH_GOLDEN_DIR) + "/" + name + ".txt";
}

std::vector<double> load_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  std::vector<double> values;
  double v = 0.0;
  while (in >> v) values.push_back(v);
  return values;
}

void store_golden(const std::string& name, const std::vector<double>& values) {
  std::ofstream out(golden_path(name));
  out.precision(17);
  for (const double v : values) out << v << "\n";
}

void check_against_golden(const std::string& name,
                          const AngularSpectrum& spectrum) {
  if (std::getenv("DWATCH_REGEN_GOLDEN") != nullptr) {
    store_golden(name, spectrum.values());
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  const std::vector<double> golden = load_golden(name);
  ASSERT_EQ(golden.size(), spectrum.size())
      << "missing or stale golden file " << golden_path(name)
      << " (regenerate with DWATCH_REGEN_GOLDEN=1)";
  double worst = 0.0;
  std::size_t worst_idx = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double drift = std::abs(spectrum[i] - golden[i]);
    if (drift > worst) {
      worst = drift;
      worst_idx = i;
    }
  }
  EXPECT_LE(worst, kDriftBudget)
      << name << " drifted at sample " << worst_idx << " (theta = "
      << spectrum.theta_at(worst_idx) << " rad): golden "
      << golden[worst_idx] << " vs computed " << spectrum[worst_idx];
}

/// Forces a SIMD backend for one scope, restoring the unforced state.
struct ScopedBackend {
  explicit ScopedBackend(linalg::simd::Backend b) {
    linalg::simd::set_backend_override(b);
  }
  ~ScopedBackend() { linalg::simd::clear_backend_override(); }
};

/// Computes `spectrum_of()` on the scalar backend and on the detected
/// one, asserts the two are bit-identical, and checks each against the
/// golden file `name`.
template <typename Fn>
void check_on_both_backends(const std::string& name, Fn&& spectrum_of) {
  namespace simd = linalg::simd;
  const simd::Backend backends[2] = {simd::Backend::kScalar,
                                     simd::detected_backend()};
  std::vector<AngularSpectrum> spectra;
  for (const simd::Backend backend : backends) {
    const ScopedBackend scope(backend);
    spectra.push_back(spectrum_of());
  }
  ASSERT_EQ(spectra[0].size(), spectra[1].size());
  EXPECT_EQ(std::memcmp(spectra[0].values().data(),
                        spectra[1].values().data(),
                        spectra[0].size() * sizeof(double)),
            0)
      << name << ": scalar and " << simd::backend_name(backends[1])
      << " spectra differ";
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(simd::backend_name(backends[i]));
    check_against_golden(name, spectra[i]);
  }
}

class GoldenSpectrum : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenSpectrum, MusicSpectrumIsStable) {
  const std::size_t m = GetParam();
  const MusicEstimator music(kSpacing, kLambda);
  check_on_both_backends("music" + std::to_string(m), [&] {
    return music.estimate(golden_snapshots(m, 0xD0A0 + m)).spectrum;
  });
}

TEST_P(GoldenSpectrum, PMusicSpectrumIsStable) {
  const std::size_t m = GetParam();
  const PMusicEstimator pmusic(kSpacing, kLambda);
  check_on_both_backends("pmusic" + std::to_string(m), [&] {
    return pmusic.estimate(golden_snapshots(m, 0xD0A0 + m)).omega;
  });
}

INSTANTIATE_TEST_SUITE_P(Arrays, GoldenSpectrum, ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return std::to_string(i.param) + "elements";
                         });

TEST(GoldenSpectrum, InputSynthesisIsSelfConsistent) {
  // The generator itself must be reproducible, or golden comparisons
  // would chase noise: two independent syntheses are bit-identical.
  const linalg::CMatrix a = golden_snapshots(8, 0xD0A8);
  const linalg::CMatrix b = golden_snapshots(8, 0xD0A8);
  for (std::size_t m = 0; m < a.rows(); ++m) {
    for (std::size_t n = 0; n < a.cols(); ++n) {
      EXPECT_EQ(a(m, n), b(m, n));
    }
  }
}

}  // namespace
}  // namespace dwatch::core
