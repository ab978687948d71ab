// Frozen oracles for the two exact rewrites on the observation path:
//
//  * the snapshot fill: observation_to_snapshots() against the
//    map-of-rounds fill it replaced, on seeded reports with partial
//    rounds, duplicate samples and out-of-order, non-contiguous round
//    numbers — matrices memcmp-equal, exceptions identical;
//  * the windowed detection: prepare() + power_at() + detect() against
//    the full 361-bin PB spectrum and the find_peaks-per-call detector
//    they replaced — drops memcmp-equal on the scalar and (when the CPU
//    has it) the vector backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/change_detector.hpp"
#include "core/covariance.hpp"
#include "core/pipeline.hpp"
#include "core/pmusic.hpp"
#include "core/steering_cache.hpp"
#include "linalg/simd_kernels.hpp"
#include "rfid/llrp.hpp"

namespace dwatch::core {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A sample's value by its definition, not through the dequantization
/// tables the fill under test reads.
linalg::Complex direct_value(const rfid::PhaseSample& s) {
  return std::polar(rfid::dequantize_rssi(s.rssi_q),
                    rfid::dequantize_phase(s.phase_q));
}

// ------------------------------------------------------ snapshot fill

/// The map-based fill as it stood before the flat rewrite.
linalg::CMatrix snapshots_oracle(const rfid::TagObservation& obs,
                                 std::size_t num_elements) {
  if (num_elements == 0) {
    throw std::invalid_argument("observation_to_snapshots: M == 0");
  }
  std::map<std::uint32_t, std::vector<std::optional<linalg::Complex>>> rounds;
  for (const rfid::PhaseSample& s : obs.samples) {
    if (s.element_id == 0 || s.element_id > num_elements) {
      throw std::invalid_argument(
          "observation_to_snapshots: element id out of range");
    }
    auto& row = rounds[s.round];
    if (row.empty()) row.resize(num_elements);
    row[s.element_id - 1] = direct_value(s);
  }
  std::vector<const std::vector<std::optional<linalg::Complex>>*> complete;
  for (const auto& [round, row] : rounds) {
    bool full = true;
    for (const auto& v : row) {
      if (!v) {
        full = false;
        break;
      }
    }
    if (full) complete.push_back(&row);
  }
  if (complete.empty()) {
    throw std::invalid_argument(
        "observation_to_snapshots: no complete round");
  }
  linalg::CMatrix x(num_elements, complete.size());
  for (std::size_t n = 0; n < complete.size(); ++n) {
    for (std::size_t m = 0; m < num_elements; ++m) {
      x(m, n) = *(*complete[n])[m];
    }
  }
  return x;
}

/// What one fill call produced: a matrix or an exception message.
struct FillOutcome {
  std::optional<linalg::CMatrix> matrix;
  std::string error;
};

template <typename Fill>
FillOutcome run_fill(Fill fill, const rfid::TagObservation& obs,
                     std::size_t m) {
  FillOutcome out;
  try {
    out.matrix = fill(obs, m);
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same_fill(const rfid::TagObservation& obs, std::size_t m,
                      const std::string& label) {
  const FillOutcome want = run_fill(snapshots_oracle, obs, m);
  const FillOutcome got = run_fill(observation_to_snapshots, obs, m);
  ASSERT_EQ(got.matrix.has_value(), want.matrix.has_value()) << label;
  EXPECT_EQ(got.error, want.error) << label;
  if (!want.matrix) return;
  ASSERT_EQ(got.matrix->rows(), want.matrix->rows()) << label;
  ASSERT_EQ(got.matrix->cols(), want.matrix->cols()) << label;
  EXPECT_EQ(std::memcmp(got.matrix->data().data(), want.matrix->data().data(),
                        want.matrix->size() * sizeof(linalg::Complex)),
            0)
      << label;
}

rfid::PhaseSample random_sample(std::mt19937_64& rng, std::uint16_t element,
                                std::uint32_t round) {
  std::uniform_int_distribution<int> phase(0, 65535);
  std::uniform_int_distribution<int> rssi(-7000, -2000);
  return rfid::PhaseSample{element, round,
                           static_cast<std::uint16_t>(phase(rng)),
                           static_cast<std::int16_t>(rssi(rng))};
}

/// A seeded report over `m` elements: non-contiguous round numbers,
/// some rounds missing samples, some samples repeated with new values,
/// and the whole list shuffled when `shuffle` is set.
rfid::TagObservation random_report(std::uint64_t seed, std::size_t m,
                                   bool shuffle) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> num_rounds(1, 14);
  std::uniform_int_distribution<std::uint32_t> gap(1, 40);
  std::bernoulli_distribution drop(0.08);
  std::bernoulli_distribution dup(0.1);
  rfid::TagObservation obs;
  obs.epc = rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(seed));
  std::uint32_t round = static_cast<std::uint32_t>(rng() % 1000);
  const int rounds = num_rounds(rng);
  for (int r = 0; r < rounds; ++r) {
    round += gap(rng);
    for (std::size_t e = 1; e <= m; ++e) {
      if (drop(rng)) continue;
      const auto element = static_cast<std::uint16_t>(e);
      obs.samples.push_back(random_sample(rng, element, round));
      if (dup(rng)) obs.samples.push_back(random_sample(rng, element, round));
    }
  }
  if (shuffle) std::shuffle(obs.samples.begin(), obs.samples.end(), rng);
  return obs;
}

TEST(SnapshotFillOracle, SeededReportsMatchTheMapFill) {
  std::size_t complete_reports = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    for (const std::size_t m : {std::size_t{4}, std::size_t{8}}) {
      const bool shuffle = seed % 2 == 1;
      const rfid::TagObservation obs = random_report(seed, m, shuffle);
      expect_same_fill(obs, m, "seed " + std::to_string(seed) + " m " +
                                   std::to_string(m));
      if (run_fill(snapshots_oracle, obs, m).matrix) ++complete_reports;
    }
  }
  // Most reports keep at least one complete round; some lose them all.
  EXPECT_GT(complete_reports, 600u);
  EXPECT_LT(complete_reports, 800u);
}

TEST(SnapshotFillOracle, SingleCompleteRoundAmongPartialOnes) {
  std::mt19937_64 rng(7);
  rfid::TagObservation obs;
  for (std::uint16_t e = 1; e <= 3; ++e) {
    obs.samples.push_back(random_sample(rng, e, 900));  // partial
  }
  for (std::uint16_t e = 4; e >= 1; --e) {
    obs.samples.push_back(random_sample(rng, e, 17));  // complete, reversed
  }
  obs.samples.push_back(random_sample(rng, 2, 5));  // partial, earlier
  expect_same_fill(obs, 4, "single");
  ASSERT_EQ(observation_to_snapshots(obs, 4).cols(), 1u);
}

TEST(SnapshotFillOracle, LastDuplicateWins) {
  std::mt19937_64 rng(11);
  rfid::TagObservation obs;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint16_t e = 1; e <= 4; ++e) {
      obs.samples.push_back(random_sample(rng, e, 3));
      obs.samples.push_back(random_sample(rng, e, 1));
    }
  }
  expect_same_fill(obs, 4, "duplicates");
  const linalg::CMatrix x = observation_to_snapshots(obs, 4);
  ASSERT_EQ(x.cols(), 2u);
  // Column 0 is round 1; its element 4 value is the last one written.
  const linalg::Complex last = direct_value(obs.samples.back());
  EXPECT_TRUE(same_bits(x(3, 0).real(), last.real()));
  EXPECT_TRUE(same_bits(x(3, 0).imag(), last.imag()));
}

TEST(SnapshotFillOracle, ExceptionsMatch) {
  std::mt19937_64 rng(3);
  rfid::TagObservation complete;
  for (std::uint16_t e = 1; e <= 4; ++e) {
    complete.samples.push_back(random_sample(rng, e, 0));
  }
  expect_same_fill(complete, 0, "M == 0");
  expect_same_fill(rfid::TagObservation{}, 4, "no samples");

  for (const std::uint16_t bad : {std::uint16_t{0}, std::uint16_t{5}}) {
    rfid::TagObservation obs = complete;
    obs.samples.push_back(random_sample(rng, bad, 0));
    expect_same_fill(obs, 4, "element " + std::to_string(bad));
    // An out-of-range id throws even when it comes first.
    obs.samples.insert(obs.samples.begin(), random_sample(rng, bad, 9));
    expect_same_fill(obs, 4, "leading element " + std::to_string(bad));
  }

  rfid::TagObservation partial;
  for (std::uint32_t round = 0; round < 6; ++round) {
    for (std::uint16_t e = 1; e <= 4; ++e) {
      if (e != 1 + round % 4) {
        partial.samples.push_back(random_sample(rng, e, round));
      }
    }
  }
  expect_same_fill(partial, 4, "no complete round");
  EXPECT_THROW((void)observation_to_snapshots(partial, 4),
               std::invalid_argument);
}

// -------------------------------------------------- windowed detection

/// PMusicEstimator::power_spectrum as it stood: every grid column.
AngularSpectrum power_spectrum_oracle(const linalg::CMatrix& r,
                                      double spacing, double lambda,
                                      std::size_t grid_points) {
  const std::size_t m = r.rows();
  const auto manifold =
      SteeringCache::instance().get(m, spacing, lambda, grid_points);
  const std::vector<double> quad =
      linalg::simd::batched_quadratic_form(r, manifold->soa());
  AngularSpectrum pb(grid_points);
  for (std::size_t i = 0; i < pb.size(); ++i) {
    pb[i] = std::max(quad[i], 0.0) / static_cast<double>(m * m);
  }
  return pb;
}

/// SpectrumChangeDetector::detect as it stood: find_peaks on the
/// baseline every call, then the windowed maximum on the full online
/// spectrum.
std::vector<PathDrop> detect_oracle(const ChangeDetectorOptions& options,
                                    const AngularSpectrum& baseline,
                                    const AngularSpectrum& online) {
  std::vector<PathDrop> drops;
  for (const Peak& peak : find_peaks(baseline, options.peaks)) {
    if (peak.value <= 0.0) continue;
    std::size_t lo = online.index_of(peak.theta - options.angle_window);
    std::size_t hi = online.index_of(peak.theta + options.angle_window);
    if (lo > hi) std::swap(lo, hi);
    const std::size_t center = online.index_of(peak.theta);
    lo = std::min(lo, center);
    hi = std::max(hi, center);
    hi = std::min(hi, online.size() - 1);
    double now = 0.0;
    for (std::size_t i = lo; i <= hi; ++i) now = std::max(now, online[i]);
    const double drop = (peak.value - now) / peak.value;
    if (drop >= options.min_drop_fraction) {
      drops.push_back(PathDrop{
          .theta = peak.theta,
          .drop_fraction = std::min(drop, 1.0),
          .baseline_power = peak.value,
          .online_power = now,
      });
    }
  }
  return drops;
}

void expect_same_drops(const std::vector<PathDrop>& got,
                       const std::vector<PathDrop>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].theta, want[i].theta)) << label << " " << i;
    EXPECT_TRUE(same_bits(got[i].drop_fraction, want[i].drop_fraction))
        << label << " " << i;
    EXPECT_TRUE(same_bits(got[i].baseline_power, want[i].baseline_power))
        << label << " " << i;
    EXPECT_TRUE(same_bits(got[i].online_power, want[i].online_power))
        << label << " " << i;
  }
}

class ScopedBackend {
 public:
  explicit ScopedBackend(linalg::simd::Backend b) {
    linalg::simd::set_backend_override(b);
  }
  ~ScopedBackend() { linalg::simd::clear_backend_override(); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
};

std::vector<linalg::simd::Backend> backends() {
  std::vector<linalg::simd::Backend> out{linalg::simd::Backend::kScalar};
  if (linalg::simd::detected_backend() != linalg::simd::Backend::kScalar) {
    out.push_back(linalg::simd::detected_backend());
  }
  return out;
}

constexpr double kSpacing = 0.16;
constexpr double kLambda = 0.326;

linalg::CMatrix random_snapshots(std::mt19937_64& rng, std::size_t m,
                                 std::size_t n) {
  std::normal_distribution<double> g(0.0, 1.0);
  linalg::CMatrix x(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < n; ++k) x(i, k) = {g(rng), g(rng)};
  }
  return x;
}

/// A random Hermitian matrix that need not be positive semidefinite, so
/// some quadratic forms are negative and exercise the clamp at 0.
linalg::CMatrix random_hermitian(std::mt19937_64& rng, std::size_t m) {
  std::normal_distribution<double> g(0.0, 1.0);
  linalg::CMatrix r(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    r(i, i) = {g(rng), 0.0};
    for (std::size_t j = i + 1; j < m; ++j) {
      r(i, j) = {g(rng), g(rng)};
      r(j, i) = std::conj(r(i, j));
    }
  }
  return r;
}

/// Hand-made baselines for the edge cases of the window rule.
std::vector<std::pair<std::string, AngularSpectrum>> edge_baselines() {
  const std::size_t n = AngularSpectrum::kDefaultPoints;
  std::vector<std::pair<std::string, AngularSpectrum>> out;
  AngularSpectrum edges(n);  // peaks on bin 0 and bin 360
  for (std::size_t i = 0; i < n; ++i) edges[i] = 0.01;
  edges[0] = 1.0;
  edges[1] = 0.5;
  edges[n - 1] = 0.8;
  edges[n - 2] = 0.3;
  out.emplace_back("edges", edges);
  AngularSpectrum close(n);  // two peaks 3.5 deg apart: windows overlap
  for (std::size_t i = 0; i < n; ++i) close[i] = 0.02;
  close[100] = 1.0;
  close[107] = 0.9;
  close[200] = 0.4;
  out.emplace_back("overlap", close);
  AngularSpectrum zero(n);  // max 0: zero-valued peaks, skipped
  for (std::size_t i = 0; i < n; i += 2) zero[i] = -1.0;
  out.emplace_back("zero peaks", zero);
  AngularSpectrum negative(n);  // max < 0: find_peaks finds nothing
  for (std::size_t i = 0; i < n; ++i) {
    negative[i] = -2.0 - std::sin(0.05 * static_cast<double>(i));
  }
  out.emplace_back("no peaks", negative);
  return out;
}

/// Runs the windowed path and the oracle on one (baseline, R) pair and
/// checks drops and every evaluated PB value bit for bit.
void expect_windowed_matches(const SpectrumChangeDetector& det,
                             const PMusicEstimator& pm,
                             const AngularSpectrum& baseline,
                             const linalg::CMatrix& r,
                             const std::string& label) {
  const AngularSpectrum full = power_spectrum_oracle(
      r, kSpacing, kLambda, pm.options().music.grid_points);
  const DetectionWindows windows = det.prepare(baseline);
  const std::vector<double> at = pm.power_at(r, windows.bins);
  ASSERT_EQ(at.size(), windows.bins.size()) << label;
  for (std::size_t k = 0; k < at.size(); ++k) {
    ASSERT_TRUE(same_bits(at[k], full[windows.bins[k]]))
        << label << " bin " << windows.bins[k];
  }
  const std::vector<PathDrop> want =
      detect_oracle(det.options(), baseline, full);
  expect_same_drops(det.detect(windows, at), want, label + " windowed");
  expect_same_drops(det.detect(baseline, full), want, label + " composed");
}

TEST(WindowedDetectionOracle, DropsMatchTheFullSpectrumDetector) {
  std::size_t total_drops = 0;
  for (const linalg::simd::Backend backend : backends()) {
    const ScopedBackend scope(backend);
    const std::string name = linalg::simd::backend_name(backend);
    for (const std::size_t m : {std::size_t{4}, std::size_t{8}}) {
      const PMusicEstimator pm(kSpacing, kLambda);
      for (const double window_deg : {2.0, 6.0}) {
        ChangeDetectorOptions options;
        options.angle_window = rf::deg2rad(window_deg);
        const SpectrumChangeDetector det(options);
        std::mt19937_64 rng(100 * m + static_cast<std::uint64_t>(window_deg));
        for (int trial = 0; trial < 40; ++trial) {
          const std::string label = name + " m" + std::to_string(m) + " w" +
                                    std::to_string(window_deg) + " t" +
                                    std::to_string(trial);
          // Baseline: the P-MUSIC spectrum of random snapshots, or a
          // random Hermitian R's PB (negative forms clamp to 0).
          const AngularSpectrum baseline =
              trial % 2 == 0
                  ? pm.estimate(random_snapshots(rng, m, 12)).omega
                  : power_spectrum_oracle(random_hermitian(rng, m), kSpacing,
                                          kLambda, 361);
          const linalg::CMatrix r =
              trial % 3 == 0 ? random_hermitian(rng, m)
                             : sample_correlation(random_snapshots(rng, m, 9));
          expect_windowed_matches(det, pm, baseline, r, label);
          total_drops += detect_oracle(options, baseline,
                                       power_spectrum_oracle(r, kSpacing,
                                                             kLambda, 361))
                             .size();
        }
        for (const auto& [edge_name, baseline] : edge_baselines()) {
          const linalg::CMatrix r = random_hermitian(rng, m);
          expect_windowed_matches(det, pm, baseline, r,
                                  name + " " + edge_name);
        }
      }
    }
  }
  EXPECT_GT(total_drops, 50u) << "the trials must produce drops to compare";
}

TEST(WindowedDetectionOracle, EdgeBaselinesPrepareTheExpectedWindows) {
  const SpectrumChangeDetector det;
  const auto baselines = edge_baselines();
  const DetectionWindows edges = det.prepare(baselines[0].second);
  ASSERT_EQ(edges.windows.size(), 2u);
  EXPECT_EQ(edges.windows[0].lo, 0u);  // clamped below the grid
  EXPECT_EQ(edges.windows[1].hi, 360u);  // clamped above it
  const DetectionWindows overlap = det.prepare(baselines[1].second);
  ASSERT_GE(overlap.windows.size(), 2u);
  EXPECT_LE(overlap.windows[1].lo, overlap.windows[0].hi);
  std::size_t bins = 0;
  for (const auto& w : overlap.windows) bins += w.hi - w.lo + 1;
  EXPECT_EQ(overlap.bins.size(), bins);  // shared bins repeat
  EXPECT_TRUE(det.prepare(baselines[2].second).windows.empty());
  EXPECT_TRUE(det.prepare(baselines[3].second).windows.empty());
}

TEST(WindowedDetectionOracle, MismatchedValuesAndBinsThrow) {
  const SpectrumChangeDetector det;
  const DetectionWindows windows = det.prepare(edge_baselines()[0].second);
  const std::vector<double> short_values(windows.bins.size() - 1, 0.0);
  EXPECT_THROW((void)det.detect(windows, short_values),
               std::invalid_argument);
  const PMusicEstimator pm(kSpacing, kLambda);
  const std::vector<std::size_t> past_grid{361};
  EXPECT_THROW((void)pm.power_at(linalg::CMatrix::identity(4), past_grid),
               std::out_of_range);
  EXPECT_TRUE(pm.power_at(linalg::CMatrix::identity(4), {}).empty());
}

}  // namespace
}  // namespace dwatch::core
