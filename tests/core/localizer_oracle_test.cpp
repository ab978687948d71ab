// The localizer against its frozen oracle (localizer_oracle.hpp), on the
// serial path: the likelihood grid byte for byte at every stride, single
// probes, the evidence kernel, and the full grid and hill-climbing
// searches including each fix's consensus count. The pooled grid is
// checked in localizer_pool_test.cpp, under ThreadSanitizer too.
#include <gtest/gtest.h>

#include <random>

#include "localizer_oracle.hpp"

namespace dwatch::core {
namespace {

TEST(LocalizerOracle, GridIsByteEqualToOracle) {
  oracle::for_each_case(6, [](const oracle::Search& s, const auto& ev) {
    oracle::expect_same_grid(oracle::localizer_for(s).likelihood_grid(ev),
                             s.grid(ev));
  });
}

TEST(LocalizerOracle, ProbesAndEvidenceMatchOracle) {
  oracle::for_each_case(6, [](const oracle::Search& s, const auto& ev) {
    if (s.stride != 1) return;  // single probes do not read the stride
    const Localizer loc = oracle::localizer_for(s);
    const double norm = oracle::norm(ev);
    ASSERT_EQ(Localizer::global_drop_norm(ev), norm);
    std::mt19937_64 rng(8);
    std::uniform_real_distribution<double> x(-0.5, 7.5);
    std::uniform_real_distribution<double> y(-0.5, 10.5);
    std::uniform_real_distribution<double> theta(-0.2, rf::kPi + 0.2);
    for (int k = 0; k < 400; ++k) {
      const rf::Vec2 p{x(rng), y(rng)};
      const double want = s.likelihood_at(p, ev, norm);
      EXPECT_TRUE(oracle::same_bytes(loc.likelihood_at(p, ev), want));
      const double t = theta(rng);
      for (const AngularEvidence& e : ev) {
        EXPECT_TRUE(oracle::same_bytes(
            loc.evidence_at(e, t, norm),
            oracle::evidence_at(s.opts, e, t, norm)));
      }
    }
    // Array centers themselves are too close to be a target.
    for (const auto& a : s.arrays) {
      EXPECT_EQ(loc.likelihood_at(a.center().xy(), ev), 0.0);
    }
  });
}

TEST(LocalizerOracle, NoPowerDropMeansNoEvidence) {
  oracle::Search s;
  std::vector<AngularEvidence> ev = oracle::random_evidence(3);
  for (AngularEvidence& e : ev) {
    for (PathDrop& d : e.drops) d.online_power = d.baseline_power;
  }
  const Localizer loc = oracle::localizer_for(s);
  ASSERT_EQ(Localizer::global_drop_norm(ev), 0.0);
  oracle::expect_same_grid(loc.likelihood_grid(ev), s.grid(ev));
  EXPECT_TRUE(oracle::same_estimate(loc.localize(ev), s.localize(ev)));
}

TEST(LocalizerOracle, GridSearchMatchesOracle) {
  oracle::for_each_case(6, [](const oracle::Search& s, const auto& ev) {
    const LocationEstimate got = oracle::localizer_for(s).localize(ev);
    const LocationEstimate want = s.localize(ev);
    EXPECT_TRUE(oracle::same_estimate(got, want))
        << got.position.x << "," << got.position.y << " L=" << got.likelihood
        << " consensus " << got.consensus << " vs oracle " << want.position.x
        << "," << want.position.y << " L=" << want.likelihood << " consensus "
        << want.consensus;
  });
}

TEST(LocalizerOracle, HillClimbingMatchesOracle) {
  oracle::for_each_case(6, [](oracle::Search s, const auto& ev) {
    s.opts.hill_climbing = true;
    const LocationEstimate got = oracle::localizer_for(s).localize(ev);
    const LocationEstimate want = s.localize(ev);
    EXPECT_TRUE(oracle::same_estimate(got, want))
        << got.position.x << "," << got.position.y << " L=" << got.likelihood
        << " consensus " << got.consensus << " vs oracle " << want.position.x
        << "," << want.position.y << " L=" << want.likelihood << " consensus "
        << want.consensus;
  });
}

}  // namespace
}  // namespace dwatch::core
