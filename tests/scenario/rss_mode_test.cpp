// RSS-only degraded mode through the scenario engine: the phase-health
// gate, the forced path, and the unit behaviour of phase_coherence and
// the RTI-style link evidence the Localizer runs the fallback on.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/localizer.hpp"
#include "core/rss.hpp"
#include "linalg/complex_matrix.hpp"
#include "rf/array.hpp"
#include "rf/noise.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace dwatch::scenario {
namespace {

// ----------------------------------------------------- phase_coherence

linalg::CMatrix coherent_snapshots(std::size_t elements, std::size_t rounds) {
  linalg::CMatrix x(elements, rounds);
  for (std::size_t m = 0; m < elements; ++m) {
    for (std::size_t n = 0; n < rounds; ++n) {
      x(m, n) = std::polar(1.0, 0.3 * static_cast<double>(m));
    }
  }
  return x;
}

TEST(PhaseCoherenceTest, HealthyHardwareScoresNearOne) {
  const double score = core::phase_coherence(coherent_snapshots(8, 16));
  EXPECT_NEAR(score, 1.0, 1e-9);
}

TEST(PhaseCoherenceTest, ScrambledPhaseScoresLow) {
  rf::Rng rng(99);
  linalg::CMatrix x(8, 64);
  for (std::size_t m = 0; m < 8; ++m) {
    for (std::size_t n = 0; n < 64; ++n) {
      x(m, n) = std::polar(1.0, rng.uniform(0.0, 2.0 * 3.14159265358979));
    }
  }
  const double score = core::phase_coherence(x);
  // Random phase walks shrink the circular mean toward 1/sqrt(N).
  EXPECT_LT(score, 0.5);
}

TEST(PhaseCoherenceTest, SingleElementIsTriviallyCoherent) {
  EXPECT_DOUBLE_EQ(core::phase_coherence(coherent_snapshots(1, 16)), 1.0);
}

// ------------------------------------------- Localizer on RSS links

/// Localizer over arrays centered at `centers` on a 0.25 m grid (RSS
/// evidence reads only the centers).
core::Localizer rss_localizer(const std::vector<rf::Vec2>& centers,
                              core::SearchBounds bounds,
                              core::LocalizerOptions options = {}) {
  std::vector<rf::UniformLinearArray> arrays;
  for (const rf::Vec2& c : centers) {
    arrays.emplace_back(rf::Vec3{c.x, c.y, 1.25}, rf::Vec2{1.0, 0.0}, 8);
  }
  options.grid_step = 0.25;
  return core::Localizer(std::move(arrays), bounds, options);
}

TEST(RssLocalizerTest, TwoCrossingShadowedLinksPinTheBody) {
  // Array 0 at (0,5) hears tag (10,5); array 1 at (5,0) hears tag
  // (5,10). A body at (5,5) stands on both links, so both report a
  // drop and the evidence product peaks at the crossing.
  const std::vector<rf::Vec2> centers{{0.0, 5.0}, {5.0, 0.0}};
  const core::SearchBounds bounds{{0.0, 0.0}, {10.0, 10.0}};
  const core::Localizer localizer = rss_localizer(centers, bounds);
  const std::vector<core::RssLink> links{
      {0, {10.0, 5.0}, 0.5},
      {1, {5.0, 10.0}, 0.5},
  };
  const std::vector<std::uint8_t> excluded(centers.size(), 0);
  const core::LocationEstimate estimate = localizer.localize(links, excluded);
  EXPECT_TRUE(estimate.valid);
  EXPECT_NEAR(estimate.position.x, 5.0, 0.5);
  EXPECT_NEAR(estimate.position.y, 5.0, 0.5);
}

TEST(RssLocalizerTest, HillClimbingModeAppliesToLinks) {
  // One localizer, one search mode for both evidence kinds: with hill
  // climbing configured, RSS fixes climb too and land on the crossing.
  const std::vector<rf::Vec2> centers{{0.0, 5.0}, {5.0, 0.0}};
  const core::SearchBounds bounds{{0.0, 0.0}, {10.0, 10.0}};
  core::LocalizerOptions options;
  options.hill_climbing = true;
  const core::Localizer localizer = rss_localizer(centers, bounds, options);
  const std::vector<core::RssLink> links{
      {0, {10.0, 5.0}, 0.5},
      {1, {5.0, 10.0}, 0.5},
  };
  const std::vector<std::uint8_t> excluded(centers.size(), 0);
  const core::LocationEstimate climbed = localizer.localize(links, excluded);
  ASSERT_TRUE(climbed.valid);
  EXPECT_NEAR(climbed.position.x, 5.0, 0.25);
  EXPECT_NEAR(climbed.position.y, 5.0, 0.25);
}

TEST(RssLocalizerTest, ExcludedArrayDoesNotRescaleHealthyWeights) {
  // Two healthy crossing links at 0.2 plus a third array that is
  // excluded. Its strong 1.0 link must not enter the weight normalizer:
  // scaled by 1.0 instead of 0.2, the healthy evidence would fall below
  // the consensus floor and the fix would vanish.
  const std::vector<rf::Vec2> centers{{0.0, 5.0}, {5.0, 0.0}, {10.0, 0.0}};
  const core::SearchBounds bounds{{0.0, 0.0}, {10.0, 10.0}};
  const core::Localizer localizer = rss_localizer(centers, bounds);
  const std::vector<std::uint8_t> excluded{0, 0, 1};
  std::vector<core::RssLink> links{
      {0, {10.0, 5.0}, 0.2},
      {1, {5.0, 10.0}, 0.2},
  };
  const core::LocationEstimate healthy = localizer.localize(links, excluded);
  ASSERT_TRUE(healthy.valid);
  EXPECT_NEAR(healthy.position.x, 5.0, 0.25);
  EXPECT_NEAR(healthy.position.y, 5.0, 0.25);

  links.push_back({2, {0.0, 10.0}, 1.0});
  const core::LocationEstimate with_dead =
      localizer.localize(links, excluded);
  EXPECT_TRUE(with_dead.valid);
  EXPECT_EQ(with_dead.position.x, healthy.position.x);
  EXPECT_EQ(with_dead.position.y, healthy.position.y);
  EXPECT_EQ(with_dead.likelihood, healthy.likelihood);
}

TEST(RssLocalizerTest, StrayLinkOrFlagCountThrows) {
  // A link naming an array the localizer does not have would enter the
  // weight normalizer (rescaling every healthy weight) while no array
  // reads it, so every entry point refuses it; so too an excluded-flag
  // span that is not one flag per array.
  const std::vector<rf::Vec2> centers{{0.0, 5.0}, {5.0, 0.0}};
  const core::SearchBounds bounds{{0.0, 0.0}, {10.0, 10.0}};
  const core::Localizer localizer = rss_localizer(centers, bounds);
  const std::vector<core::RssLink> stray{
      {0, {10.0, 5.0}, 0.2},
      {1, {5.0, 10.0}, 0.2},
      {2, {0.0, 10.0}, 1.0},
  };
  const std::vector<std::uint8_t> healthy(centers.size(), 0);
  EXPECT_THROW((void)localizer.localize(stray, healthy),
               std::invalid_argument);
  EXPECT_THROW((void)localizer.localize_best_effort(stray, healthy),
               std::invalid_argument);
  EXPECT_THROW((void)localizer.localize_multi(stray, healthy, 2),
               std::invalid_argument);
  EXPECT_THROW((void)localizer.likelihood_grid(stray, healthy),
               std::invalid_argument);
  const std::vector<core::RssLink> links(stray.begin(), stray.begin() + 2);
  const std::vector<std::uint8_t> short_flags{0};
  const std::vector<std::uint8_t> long_flags{0, 0, 1};
  EXPECT_THROW((void)localizer.localize(links, short_flags),
               std::invalid_argument);
  EXPECT_THROW((void)localizer.localize(links, long_flags),
               std::invalid_argument);
  EXPECT_TRUE(localizer.localize(links, healthy).valid);
}

TEST(RssLocalizerTest, MultiSkipsMaximaShortOfConsensus) {
  // Array 0 has a strong link along y = 5 that no other array sees, and
  // a weak link that crosses array 1's weak link near (7.27, 1.36). The
  // strong ridge outranks the crossing but only array 0 supports it; as
  // in the phase path, those maxima are skipped without taking a slot,
  // and the crossing (both arrays) is the one target reported.
  const std::vector<rf::Vec2> centers{{0.0, 5.0}, {5.0, 0.0}};
  const core::SearchBounds bounds{{0.0, 0.0}, {10.0, 10.0}};
  core::LocalizerOptions options;
  options.consensus_floor = 0.15;
  const core::Localizer localizer = rss_localizer(centers, bounds, options);
  const std::vector<core::RssLink> links{
      {0, {10.0, 5.0}, 1.0},
      {0, {10.0, 0.0}, 0.2},
      {1, {10.0, 3.0}, 0.2},
  };
  const std::vector<std::uint8_t> excluded(centers.size(), 0);
  const auto targets = localizer.localize_multi(links, excluded, 2, 0.25, 0.35);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_TRUE(targets[0].valid);
  EXPECT_EQ(targets[0].consensus, 2u);
  EXPECT_NEAR(targets[0].position.x, 7.27, 0.3);
  EXPECT_NEAR(targets[0].position.y, 1.36, 0.3);
}

TEST(RssLocalizerTest, ThrowsOnEmptyCentersOrDegenerateBounds) {
  const core::SearchBounds bounds{{0.0, 0.0}, {10.0, 10.0}};
  EXPECT_THROW((void)rss_localizer({}, bounds), std::invalid_argument);
  EXPECT_THROW((void)rss_localizer({{1.0, 1.0}}, {{5.0, 5.0}, {5.0, 5.0}}),
               std::invalid_argument);
}

// --------------------------------------------- the scenario-level gate

TEST(RssScenarioTest, ForcedModeTakesEveryFixOnTheRssPath) {
  const ScenarioSpec* spec = find_scenario("library_rss_forced");
  ASSERT_NE(spec, nullptr);
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPass) << result.detail;
  EXPECT_EQ(result.metrics.rss_epochs, result.metrics.epochs);
  for (const EpochRecord& rec : result.records) {
    EXPECT_TRUE(rec.fix.result.confidence.rss_mode);
  }
}

TEST(RssScenarioTest, ScrambledPhaseTripsTheAutoFallback) {
  const ScenarioSpec* spec = find_scenario("hall_rss_auto_scramble");
  ASSERT_NE(spec, nullptr);
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPass) << result.detail;
  // Every epoch's phases are scrambled, so every fix falls back.
  EXPECT_EQ(result.metrics.rss_epochs, result.metrics.epochs);
  for (const EpochRecord& rec : result.records) {
    EXPECT_TRUE(rec.fix.result.confidence.rss_mode);
    EXPECT_LT(rec.fix.result.confidence.phase_health,
              spec->rss.auto_health_threshold);
  }
}

TEST(RssScenarioTest, HealthyPhaseNeverFallsBack) {
  const ScenarioSpec* spec = find_scenario("library_static_human");
  ASSERT_NE(spec, nullptr);
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(*spec);
  EXPECT_EQ(result.metrics.rss_epochs, 0u);
  for (const EpochRecord& rec : result.records) {
    EXPECT_FALSE(rec.fix.result.confidence.rss_mode);
    EXPECT_GT(rec.fix.result.confidence.phase_health, 0.8);
  }
}

TEST(RssScenarioTest, ScrambleWithoutFallbackStaysOnPhasePath) {
  // Negative control: the same scrambled hall, but with the RSS options
  // left inert. The pipeline must NOT silently switch paths.
  const ScenarioSpec* base = find_scenario("hall_rss_auto_scramble");
  ASSERT_NE(base, nullptr);
  ScenarioSpec spec = *base;
  spec.name = "hall_scramble_no_fallback";
  spec.rss = core::RssOnlyOptions{};
  spec.budget.rmse_m = 100.0;  // outcome is not the point here
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(spec);
  EXPECT_EQ(result.metrics.rss_epochs, 0u);
  for (const EpochRecord& rec : result.records) {
    EXPECT_FALSE(rec.fix.result.confidence.rss_mode);
  }
}

}  // namespace
}  // namespace dwatch::scenario
