// The localizer against its frozen oracle (localizer_oracle.hpp), on the
// serial path: the likelihood grid byte for byte at every stride, single
// probes, the evidence kernel, the full grid and hill-climbing searches
// including each fix's consensus count, and the branch-and-bound grid
// search against the full scan of every cell on the geometries that
// stress its block bounds. The pooled localizer is checked in
// localizer_pool_test.cpp, under ThreadSanitizer too.
#include <gtest/gtest.h>

#include <random>
#include <vector>

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

// ----------------------------------------- branch-and-bound grid search

PathDrop drop(double theta, double power_drop) {
  PathDrop d;
  d.theta = theta;
  d.baseline_power = power_drop;
  return d;
}

/// The grid point (ix, iy) exactly as the localizer computes it.
rf::Vec2 cell(const oracle::Search& s, std::size_t ix, std::size_t iy) {
  return {s.bounds.min.x + s.step() * static_cast<double>(ix),
          s.bounds.min.y + s.step() * static_cast<double>(iy)};
}

/// Every array sees `target` with a strong drop at exactly its bearing,
/// plus one weaker decoy drop.
std::vector<AngularEvidence> pointing_at(const oracle::Search& s,
                                         rf::Vec2 target) {
  std::vector<AngularEvidence> ev(s.arrays.size());
  for (std::size_t i = 0; i < s.arrays.size(); ++i) {
    ev[i].drops.push_back(
        drop(s.arrays[i].arrival_angle_planar(target), 1.0));
    ev[i].drops.push_back(drop(0.4 + 0.5 * static_cast<double>(i), 0.45));
  }
  return ev;
}

void expect_search_matches(const oracle::Search& s,
                           std::span<const AngularEvidence> ev) {
  oracle::expect_search_matches(s, oracle::localizer_for(s), ev);
}

TEST(LocalizerOracle, SearchMatchesFullScan) {
  oracle::for_each_case(6, [](const oracle::Search& s, const auto& ev) {
    expect_search_matches(s, ev);
  });
}

TEST(LocalizerOracle, SearchMatchesFullScanWithWidenedDrops) {
  oracle::for_each_case(3, [](const oracle::Search& s, auto ev) {
    for (AngularEvidence& e : ev) {
      for (PathDrop& d : e.drops) d.sigma_scale = 2.5;
    }
    expect_search_matches(s, ev);
  });
}

TEST(LocalizerOracle, SearchDropBearingOnABlockEdge) {
  // Targets on a block's left edge, on its corner and inside its last
  // row: the drop bearings equal the bearings of block-edge cells.
  for (const std::size_t stride : {1, 2, 4}) {
    oracle::Search s;
    s.stride = stride;
    for (const auto& [ix, iy] : {std::pair<std::size_t, std::size_t>{24, 19},
                                 {31, 39}, {13, 23}}) {
      SCOPED_TRACE(::testing::Message() << "stride " << stride << " cell "
                                        << ix << "," << iy);
      expect_search_matches(s, pointing_at(s, cell(s, ix, iy)));
    }
  }
}

TEST(LocalizerOracle, SearchWithArraysInsideTheBounds) {
  // One array in the middle of the room on a diagonal axis, one centred
  // exactly on a block-corner cell (its own bearing there is undefined).
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    s.arrays.emplace_back(rf::Vec3{3.5, 5.1, 1.25}, rf::Vec2{1, 1}, 8);
    s.arrays.emplace_back(rf::Vec3{4.0, 4.0, 1.25}, rf::Vec2{0, 1}, 8);
    expect_search_matches(s, pointing_at(s, {2.3, 6.1}));
    expect_search_matches(s, pointing_at(s, {4.6, 4.4}));
  }
}

TEST(LocalizerOracle, SearchBearingAlongAnAxisRay) {
  // The target sits on array 0's +axis ray (bearing pi) and on array
  // 1's -axis ray (bearing 0), on a cell inside a block and on a block
  // corner; the blocks around it straddle both rays.
  for (const rf::Vec2 target : {rf::Vec2{3.0, 5.0}, rf::Vec2{4.0, 4.0}}) {
    for (const std::size_t stride : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << "stride " << stride << " target "
                                        << target.x << "," << target.y);
      oracle::Search s;
      s.stride = stride;
      s.arrays = {
          rf::UniformLinearArray({0.5, target.y, 1.25}, {1, 0}, 8),
          rf::UniformLinearArray({target.x, 9.5, 1.25}, {0, 1}, 8),
          rf::UniformLinearArray({6.85, 2.0, 1.25}, {0, 1}, 8),
      };
      ASSERT_EQ(s.arrays[0].arrival_angle_planar(target), rf::kPi);
      ASSERT_EQ(s.arrays[1].arrival_angle_planar(target), 0.0);
      expect_search_matches(s, pointing_at(s, target));
    }
  }
}

TEST(LocalizerOracle, SearchOnTheAllEpsilonPlateau) {
  // No power drop anywhere: every cell away from the arrays is epsilon^n
  // and a local maximum, so the search must evaluate everything.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    std::vector<AngularEvidence> ev = oracle::random_evidence(3);
    for (AngularEvidence& e : ev) {
      for (PathDrop& d : e.drops) d.online_power = d.baseline_power;
    }
    expect_search_matches(s, ev);
  }
}

TEST(LocalizerOracle, SearchWithFewerThanMaxCandidatesMaxima) {
  // Wide kernels over a 1.5 m square leave a smooth surface with a
  // handful of maxima: T never forms and every block is evaluated.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    s.bounds = {{2.0, 3.0}, {3.5, 4.5}};
    s.opts.kernel_sigma = rf::deg2rad(30.0);
    std::vector<AngularEvidence> ev(s.arrays.size());
    for (std::size_t i = 0; i < s.arrays.size(); ++i) {
      ev[i].drops.push_back(
          drop(s.arrays[i].arrival_angle_planar({2.7, 3.9}), 1.0));
    }
    ASSERT_LT(s.grid_candidates(ev).size(), Localizer::kMaxCandidates);
    expect_search_matches(s, ev);
  }
}

TEST(LocalizerOracle, SearchWithTiesAtTheThreshold) {
  // Needle kernels: a peak and a few cells next to the bearing lines
  // rise above epsilon^4; everywhere else every evidence term rounds
  // away against epsilon, leaving thousands of maxima tied at T.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    s.opts.kernel_sigma = 1e-5;
    std::vector<AngularEvidence> ev(s.arrays.size());
    for (std::size_t i = 0; i < s.arrays.size(); ++i) {
      ev[i].drops.push_back(
          drop(s.arrays[i].arrival_angle_planar({5.1, 2.2}), 1.0));
    }
    const std::vector<LocationEstimate> all = s.grid_candidates(ev);
    ASSERT_GT(all.size(), Localizer::kMaxCandidates);
    ASSERT_EQ(all[Localizer::kMaxCandidates - 1].likelihood,
              all[Localizer::kMaxCandidates].likelihood);
    expect_search_matches(s, ev);
  }
}

TEST(LocalizerOracle, SearchInAPartialLastBlock) {
  // The target in the last, partial block of the room (141 x 201 cells
  // at stride 1), and a search region smaller than one block.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    expect_search_matches(s, pointing_at(s, {6.93, 9.96}));
    oracle::Search small = s;
    small.bounds = {{2.0, 3.0}, {2.3, 3.33}};
    expect_search_matches(small, pointing_at(small, {2.12, 3.2}));
  }
}

}  // namespace
}  // namespace dwatch::core
