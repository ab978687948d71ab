// The localizer against its frozen oracle (localizer_oracle.hpp), on the
// serial path: the likelihood grid byte for byte at every stride, single
// probes, the evidence kernel, the full grid and hill-climbing searches
// including each fix's consensus count, and the branch-and-bound grid
// search against the full scan of every cell on the geometries that
// stress its block bounds and its per-block kernel lists. The pooled
// localizer is checked in localizer_pool_test.cpp, under
// ThreadSanitizer too.
#include <gtest/gtest.h>

#include <cstdint>
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

// ------------------------------------------------- per-block kernel lists

/// Seeded evidence for the per-block kernel lists: per array 0 to 14
/// drops, some of them in clusters that share a bearing to within a few
/// milliradians and a weight to about 1e-9 relative, some at bearings 0
/// and pi exactly, about half widened (sigma_scale 1 to 4), plus one
/// drop at a random target's bearing. One array in five is excluded.
std::vector<AngularEvidence> pruning_evidence(
    std::uint64_t seed, const std::vector<rf::UniformLinearArray>& arrays,
    const SearchBounds& bounds) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * unit(rng);
  };
  const rf::Vec2 target{uniform(bounds.min.x, bounds.max.x),
                        uniform(bounds.min.y, bounds.max.y)};
  std::vector<AngularEvidence> ev(arrays.size());
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const auto count = static_cast<std::size_t>(uniform(0.0, 15.0));
    while (ev[i].drops.size() < count) {
      PathDrop d;
      d.theta = uniform(0.0, rf::kPi);
      d.baseline_power = uniform(0.05, 2.0);
      d.sigma_scale = unit(rng) < 0.5 ? 1.0 : uniform(1.0, 4.0);
      const double kind = unit(rng);
      if (kind < 0.1) d.theta = 0.0;
      if (kind > 0.9) d.theta = rf::kPi;
      ev[i].drops.push_back(d);
      if (kind > 0.3 && kind < 0.6) {
        // A cluster: near-equal bearings and weights.
        const auto size = static_cast<std::size_t>(uniform(2.0, 5.0));
        for (std::size_t k = 1; k < size; ++k) {
          PathDrop c = d;
          c.theta = std::clamp(d.theta + uniform(-3e-3, 3e-3), 0.0, rf::kPi);
          c.baseline_power = d.baseline_power * (1.0 + 1e-9 * uniform(-1, 1));
          ev[i].drops.push_back(c);
        }
      }
    }
    if (unit(rng) < 0.8) {
      const rf::Vec2 r = target - arrays[i].center().xy();
      if (r.x != 0.0 || r.y != 0.0) {
        PathDrop d;
        d.theta = arrays[i].arrival_angle_planar(target) + uniform(-0.01, 0.01);
        d.baseline_power = uniform(1.0, 2.0);
        ev[i].drops.push_back(d);
      }
    }
    ev[i].excluded = !ev[i].drops.empty() && unit(rng) < 0.2;
  }
  return ev;
}

/// The search against one full scan, the cheap way for a long sweep: the
/// candidates are a byte-equal prefix of the scan's list holding its
/// first kMaxCandidates entries, and the localize() fix is byte-equal to
/// the oracle's consensus pick from that list.
void expect_candidates_and_fix(const oracle::Search& s,
                               std::span<const AngularEvidence> ev) {
  const Localizer loc = oracle::localizer_for(s);
  const std::vector<LocationEstimate> want = s.grid_candidates(ev);
  const std::vector<LocationEstimate> got = loc.grid_candidates(ev);
  ASSERT_GE(got.size(), std::min(want.size(), Localizer::kMaxCandidates));
  ASSERT_LE(got.size(), want.size());
  const std::vector<LocationEstimate> prefix(
      want.begin(), want.begin() + static_cast<std::ptrdiff_t>(got.size()));
  EXPECT_TRUE(oracle::same_estimates(got, prefix));
  const std::size_t need = s.min_arrays(ev);
  const LocationEstimate fix =
      oracle::Search::usable(ev) < need ? LocationEstimate{}
                                        : s.select(want, ev, need);
  EXPECT_TRUE(oracle::same_estimate(loc.localize(ev), fix));
}

TEST(LocalizerOracle, PrunedListsMatchFullScanOnASeededSweep) {
  // 200 evidence sets, each at strides 1, 2 and 4, over a random part of
  // the room; every other set adds an array inside the bounds, and the
  // kernel width and power exponent vary with the seed.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    oracle::Search base;
    const double x0 = 3.0 * unit(rng);
    const double y0 = 4.0 * unit(rng);
    base.bounds = {{x0, y0},
                   {x0 + 1.0 + (6.0 - x0) * unit(rng),
                    y0 + 1.0 + (9.0 - y0) * unit(rng)}};
    if (seed % 2 == 0) {
      base.arrays.emplace_back(
          rf::Vec3{x0 + 1.0, y0 + 0.7, 1.25},
          rf::Vec2{unit(rng) - 0.5, unit(rng) - 0.5}, 8);
    }
    base.opts.kernel_sigma = rf::deg2rad(seed % 3 == 0 ? 2.0 : 6.0);
    base.opts.power_exponent = seed % 4 == 1 ? 0.5 : 1.0;
    const std::vector<AngularEvidence> ev =
        pruning_evidence(seed, base.arrays, base.bounds);
    for (const std::size_t stride : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " stride "
                                        << stride);
      oracle::Search s = base;
      s.stride = stride;
      expect_candidates_and_fix(s, ev);
    }
  }
}

TEST(LocalizerOracle, PrunedListsWithNearEqualClustersAndAxisBearings) {
  // Every array carries a cluster of drops at the target's bearing whose
  // weights differ by about 1e-9 relative, a second cluster at a decoy
  // bearing, and drops at bearings 0 and pi exactly; the target sits on
  // array 0's +axis ray. The drop weights tie to within the lists' 1e-9
  // margin, so a list that kept the wrong kernel would show in the bits.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    s.arrays = {
        rf::UniformLinearArray({0.5, 4.0, 1.25}, {1, 0}, 8),
        rf::UniformLinearArray({3.5, 9.85, 1.25}, {1, 0}, 8),
        rf::UniformLinearArray({6.85, 5.0, 1.25}, {0, 1}, 8),
        rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
    };
    const rf::Vec2 target{3.0, 4.0};
    ASSERT_EQ(s.arrays[0].arrival_angle_planar(target), rf::kPi);
    std::vector<AngularEvidence> ev(s.arrays.size());
    for (std::size_t i = 0; i < s.arrays.size(); ++i) {
      const double bearing = s.arrays[i].arrival_angle_planar(target);
      for (int k = 0; k < 4; ++k) {
        PathDrop hit = drop(bearing - 1e-4 * k, 1.0 + 1e-9 * k);
        PathDrop decoy = drop(0.3 + 0.6 * static_cast<double>(i) + 1e-4 * k,
                              0.8 * (1.0 - 1e-9 * k));
        ev[i].drops.push_back(hit);
        ev[i].drops.push_back(decoy);
      }
      ev[i].drops.push_back(drop(0.0, 0.6));
      ev[i].drops.push_back(drop(rf::kPi, 0.6 * (1.0 + 1e-9)));
    }
    expect_search_matches(s, ev);
    for (AngularEvidence& e : ev) {
      for (PathDrop& d : e.drops) d.sigma_scale = 3.0;
    }
    expect_search_matches(s, ev);
  }
}

TEST(LocalizerOracle, PrunedListsWithArraysInsideTheBounds) {
  // Widened drops around three arrays inside the room, one of them on a
  // lattice point: their near blocks test each cell, the rest none.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    s.arrays.emplace_back(rf::Vec3{2.0, 2.0, 1.25}, rf::Vec2{1, 2}, 8);
    s.arrays.emplace_back(rf::Vec3{5.13, 7.41, 1.25}, rf::Vec2{1, 0}, 8);
    s.arrays.emplace_back(rf::Vec3{3.2, 3.95, 1.25}, rf::Vec2{0, 1}, 8);
    for (const std::uint64_t seed : {11, 12, 13}) {
      std::vector<AngularEvidence> ev =
          pruning_evidence(seed, s.arrays, s.bounds);
      for (AngularEvidence& e : ev) {
        for (PathDrop& d : e.drops) d.sigma_scale *= 2.0;
      }
      expect_search_matches(s, ev);
    }
  }
}

TEST(LocalizerOracle, PrunedListsOnAFleetShapedGrid) {
  // The fleet zone shape: two 4-element arrays on the edges of a 4 x 4 m
  // zone at 0.5 m steps, a 9 x 9 grid. One drop per array skips the list
  // pass; several drops per array go through it.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    s.arrays = {rf::UniformLinearArray({2.0, 0.1, 1.2}, {1, 0}, 4),
                rf::UniformLinearArray({0.1, 3.0, 1.2}, {0, 1}, 4)};
    s.bounds = {{0.0, 0.0}, {4.0, 4.0}};
    s.opts.grid_step = 0.5;
    std::vector<AngularEvidence> ev(2);
    for (std::size_t i = 0; i < 2; ++i) {
      ev[i].drops.push_back(
          drop(s.arrays[i].arrival_angle_planar({2.6, 1.4}), 1.0));
    }
    expect_search_matches(s, ev);
    for (const std::uint64_t seed : {21, 22, 23, 24}) {
      expect_search_matches(s, pruning_evidence(seed, s.arrays, s.bounds));
    }
  }
}

TEST(LocalizerOracle, PrunedListsUnderEveryRelativeFloor) {
  // localize_multi reads the maxima down to relative_floor x the best,
  // which sets the search's threshold; each floor must give the oracle's
  // targets byte for byte.
  for (const std::size_t stride : {1, 2, 4}) {
    oracle::Search s;
    s.stride = stride;
    const Localizer loc = oracle::localizer_for(s);
    for (const std::uint64_t seed : {31, 32, 33}) {
      const std::vector<AngularEvidence> ev =
          pruning_evidence(seed, s.arrays, s.bounds);
      for (const double floor : {0.0, 0.05, 0.35, 0.7, 0.95, 1.0}) {
        SCOPED_TRACE(::testing::Message() << "stride " << stride << " seed "
                                          << seed << " floor " << floor);
        EXPECT_TRUE(oracle::same_estimates(
            loc.localize_multi(ev, 8, 0.25, floor),
            s.localize_multi(ev, 8, 0.25, floor)));
      }
    }
  }
}

}  // namespace
}  // namespace dwatch::core
