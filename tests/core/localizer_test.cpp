// Tests for likelihood localization with consensus outlier rejection.
#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rf/constants.hpp"

namespace dwatch::core {
namespace {

/// Four arrays on the edges of a 7 x 10 room, like the room deployments.
std::vector<rf::UniformLinearArray> room_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({3.5, 9.85, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
      rf::UniformLinearArray({6.85, 5.0, 1.25}, {0, 1}, 8),
  };
}

SearchBounds room_bounds() { return {{0.0, 0.0}, {7.0, 10.0}}; }

PathDrop drop_at(double theta, double power = 1.0,
                 std::uint32_t source = 0) {
  PathDrop d;
  d.theta = theta;
  d.drop_fraction = 0.9;
  d.baseline_power = power;
  d.online_power = 0.05 * power;
  d.source_id = source;
  return d;
}

/// Evidence pointing exactly at `target` from every array.
std::vector<AngularEvidence> evidence_for(
    const std::vector<rf::UniformLinearArray>& arrays, rf::Vec2 target,
    std::size_t num_arrays = 4) {
  std::vector<AngularEvidence> ev(arrays.size());
  for (std::size_t i = 0; i < num_arrays && i < arrays.size(); ++i) {
    ev[i].drops.push_back(
        drop_at(arrays[i].arrival_angle_planar(target), 1.0,
                static_cast<std::uint32_t>(100 + i)));
  }
  return ev;
}

Localizer default_localizer(LocalizerOptions opts = {}) {
  return Localizer(room_arrays(), room_bounds(), opts);
}

TEST(Localizer, ValidatesConstruction) {
  EXPECT_THROW(Localizer({}, room_bounds()), std::invalid_argument);
  EXPECT_THROW(Localizer(room_arrays(), {{1, 1}, {1, 2}}),
               std::invalid_argument);
  LocalizerOptions bad;
  bad.grid_step = 0.0;
  EXPECT_THROW(Localizer(room_arrays(), room_bounds(), bad),
               std::invalid_argument);
}

TEST(Localizer, EvidenceCountMismatchThrows) {
  const Localizer loc = default_localizer();
  const std::vector<AngularEvidence> wrong(2);
  EXPECT_THROW((void)loc.localize(wrong), std::invalid_argument);
  EXPECT_THROW((void)loc.likelihood_at({1, 1}, wrong),
               std::invalid_argument);
  // The entry points without their own check, with evidence usable
  // enough to reach the search.
  std::vector<AngularEvidence> short_ev(2);
  for (AngularEvidence& e : short_ev) e.drops.push_back(drop_at(1.0));
  EXPECT_THROW((void)loc.localize_multi(short_ev, 2), std::invalid_argument);
  EXPECT_THROW((void)loc.likelihood_grid(short_ev), std::invalid_argument);
  EXPECT_THROW((void)loc.consensus_select({}, short_ev, 2),
               std::invalid_argument);
}

TEST(Localizer, FourArrayConsensusPinpointsTarget) {
  const Localizer loc = default_localizer();
  const rf::Vec2 target{3.0, 4.0};
  const auto ev = evidence_for(room_arrays(), target);
  const LocationEstimate est = loc.localize(ev);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.consensus, 4u);
  EXPECT_NEAR(rf::distance(est.position, target), 0.0, 0.1);
}

TEST(Localizer, TwoArraysSuffice) {
  const Localizer loc = default_localizer();
  const rf::Vec2 target{2.0, 7.0};
  const auto ev = evidence_for(room_arrays(), target, 2);
  const LocationEstimate est = loc.localize(ev);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(rf::distance(est.position, target), 0.0, 0.15);
}

TEST(Localizer, OneArrayIsNotCovered) {
  const Localizer loc = default_localizer();
  const auto ev = evidence_for(room_arrays(), {3.0, 4.0}, 1);
  EXPECT_FALSE(loc.localize(ev).valid);
}

TEST(Localizer, NoEvidenceInvalid) {
  const Localizer loc = default_localizer();
  const std::vector<AngularEvidence> ev(4);
  EXPECT_FALSE(loc.localize(ev).valid);
  EXPECT_FALSE(loc.localize_best_effort(ev).valid);
}

TEST(Localizer, WrongAngleOutvotedByConsensus) {
  const Localizer loc = default_localizer();
  const auto arrays = room_arrays();
  const rf::Vec2 target{3.0, 4.0};
  auto ev = evidence_for(arrays, target);  // 4 true drops
  // Add a strong wrong-angle drop at one array (a ghost).
  ev[0].drops.push_back(drop_at(
      arrays[0].arrival_angle_planar({6.0, 8.0}), 1.2, 100));
  const LocationEstimate est = loc.localize(ev);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(rf::distance(est.position, target), 0.0, 0.15);
}

TEST(Localizer, PowerWeightingPrefersStrongDrop) {
  // Two 2-array candidate intersections; the stronger pair must win.
  const Localizer loc = default_localizer();
  const auto arrays = room_arrays();
  const rf::Vec2 strong{2.0, 3.0};
  const rf::Vec2 weak{5.0, 7.0};
  std::vector<AngularEvidence> ev(4);
  ev[0].drops.push_back(
      drop_at(arrays[0].arrival_angle_planar(strong), 1.0, 1));
  ev[2].drops.push_back(
      drop_at(arrays[2].arrival_angle_planar(strong), 1.0, 2));
  ev[1].drops.push_back(
      drop_at(arrays[1].arrival_angle_planar(weak), 0.05, 3));
  ev[3].drops.push_back(
      drop_at(arrays[3].arrival_angle_planar(weak), 0.05, 4));
  const LocationEstimate est = loc.localize(ev);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(rf::distance(est.position, strong), 0.0, 0.2);
}

TEST(Localizer, BestEffortFallsBackWithoutConsensus) {
  LocalizerOptions opts;
  opts.min_arrays = 3;  // strict: 2-array candidates won't reach consensus
  const Localizer loc = default_localizer(opts);
  const rf::Vec2 target{3.0, 4.0};
  const auto ev = evidence_for(room_arrays(), target, 2);
  EXPECT_FALSE(loc.localize(ev).valid);
  const LocationEstimate be = loc.localize_best_effort(ev);
  EXPECT_FALSE(be.valid);
  EXPECT_GT(be.likelihood, 0.0);
  EXPECT_NEAR(rf::distance(be.position, target), 0.0, 0.3);
}

TEST(Localizer, BestEffortPrefersConsensusOverTheTopPeak) {
  // Short of consensus, best effort answers with the highest-consensus
  // candidate among the first kMaxCandidates (its likelihood being above
  // 0), not with the likelihood maximum. Arrays 0 and 1 cross strong
  // drops at `top` (consensus 2); arrays 0, 1 and 2 cross weak ones at
  // `agreed` (consensus 3). No candidate reaches 4.
  LocalizerOptions opts;
  opts.min_arrays = 4;
  const Localizer loc = default_localizer(opts);
  const auto arrays = room_arrays();
  const rf::Vec2 top{5.0, 7.0};
  const rf::Vec2 agreed{2.0, 3.0};
  std::vector<AngularEvidence> ev(arrays.size());
  for (std::size_t i = 0; i < 2; ++i) {
    ev[i].drops.push_back(drop_at(arrays[i].arrival_angle_planar(top), 1.0));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    ev[i].drops.push_back(
        drop_at(arrays[i].arrival_angle_planar(agreed), 0.3));
  }
  ev[3].drops.push_back(drop_at(arrays[3].arrival_angle_planar({6.0, 1.0}),
                                0.3));
  EXPECT_FALSE(loc.localize(ev).valid);
  const std::vector<LocationEstimate> found = loc.grid_candidates(ev);
  ASSERT_FALSE(found.empty());
  EXPECT_NEAR(rf::distance(found.front().position, top), 0.0, 0.2);
  const LocationEstimate be = loc.localize_best_effort(ev);
  EXPECT_FALSE(be.valid);
  EXPECT_EQ(be.consensus, 3u);
  EXPECT_NEAR(rf::distance(be.position, agreed), 0.0, 0.2);
  EXPECT_GT(be.likelihood, 0.0);
  EXPECT_LT(be.likelihood, found.front().likelihood);
}

TEST(Localizer, HillClimbingMatchesExhaustive) {
  LocalizerOptions grid_opts;
  LocalizerOptions hill_opts;
  hill_opts.hill_climbing = true;
  hill_opts.hill_climb_starts = 25;
  const Localizer grid_loc = default_localizer(grid_opts);
  const Localizer hill_loc = default_localizer(hill_opts);
  const rf::Vec2 target{4.2, 6.3};
  const auto ev = evidence_for(room_arrays(), target);
  const auto g = grid_loc.localize(ev);
  const auto h = hill_loc.localize(ev);
  ASSERT_TRUE(g.valid);
  ASSERT_TRUE(h.valid);
  EXPECT_NEAR(rf::distance(g.position, h.position), 0.0, 0.12);
}

TEST(Localizer, GridShapeAndContent) {
  LocalizerOptions opts;
  opts.grid_step = 0.5;
  const Localizer loc = default_localizer(opts);
  const auto ev = evidence_for(room_arrays(), {3.0, 4.0});
  const LikelihoodGrid grid = loc.likelihood_grid(ev);
  EXPECT_EQ(grid.nx, 15u);  // 7.0 / 0.5 + 1
  EXPECT_EQ(grid.ny, 21u);
  EXPECT_EQ(grid.values.size(), grid.nx * grid.ny);
  // Max near the target.
  double best = 0.0;
  rf::Vec2 best_p;
  for (std::size_t iy = 0; iy < grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      if (grid.at(ix, iy) > best) {
        best = grid.at(ix, iy);
        best_p = grid.point(ix, iy);
      }
    }
  }
  EXPECT_NEAR(rf::distance(best_p, {3.0, 4.0}), 0.0, 0.5);
}

TEST(Localizer, NearArrayPointsExcluded) {
  const Localizer loc = default_localizer();
  const auto ev = evidence_for(room_arrays(), {3.0, 4.0});
  EXPECT_DOUBLE_EQ(loc.likelihood_at({3.5, 0.15}, ev), 0.0);
}

TEST(LocalizerMulti, SeparatesTwoTargets) {
  const Localizer loc = default_localizer();
  const auto arrays = room_arrays();
  const rf::Vec2 t1{2.0, 3.0};
  const rf::Vec2 t2{5.0, 7.5};
  std::vector<AngularEvidence> ev(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ev[i].drops.push_back(drop_at(arrays[i].arrival_angle_planar(t1), 1.0,
                                  static_cast<std::uint32_t>(10 + i)));
    ev[i].drops.push_back(drop_at(arrays[i].arrival_angle_planar(t2), 0.9,
                                  static_cast<std::uint32_t>(20 + i)));
  }
  const auto hits = loc.localize_multi(ev, 3, 0.5);
  ASSERT_GE(hits.size(), 2u);
  const double d11 = rf::distance(hits[0].position, t1);
  const double d12 = rf::distance(hits[0].position, t2);
  EXPECT_LT(std::min(d11, d12), 0.25);
  const double d21 = rf::distance(hits[1].position, t1);
  const double d22 = rf::distance(hits[1].position, t2);
  EXPECT_LT(std::min(d21, d22), 0.25);
  // The two hits are not the same target.
  EXPECT_GT(rf::distance(hits[0].position, hits[1].position), 0.5);
}

TEST(LocalizerMulti, MinSeparationMergesCloseTargets) {
  const Localizer loc = default_localizer();
  const auto arrays = room_arrays();
  const rf::Vec2 t1{3.0, 5.0};
  const rf::Vec2 t2{3.15, 5.1};  // closer than min separation
  std::vector<AngularEvidence> ev(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ev[i].drops.push_back(drop_at(arrays[i].arrival_angle_planar(t1), 1.0,
                                  static_cast<std::uint32_t>(10 + i)));
    ev[i].drops.push_back(drop_at(arrays[i].arrival_angle_planar(t2), 1.0,
                                  static_cast<std::uint32_t>(20 + i)));
  }
  const auto hits = loc.localize_multi(ev, 3, 0.5);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(LocalizerMulti, ZeroTargetsRequested) {
  const Localizer loc = default_localizer();
  const auto ev = evidence_for(room_arrays(), {3.0, 4.0});
  EXPECT_TRUE(loc.localize_multi(ev, 0).empty());
}

TEST(Localizer, SelectMaxLikelihoodScansUnsortedCandidates) {
  // Regression: the best-effort fallback used to read candidates.front()
  // on the assumption the producer returned a sorted list. Feed an
  // UNSORTED list with the true maximum buried at the back and assert
  // the explicit max scan finds it anyway.
  std::vector<LocationEstimate> candidates{
      {{1.0, 1.0}, 0.4, 0, false},
      {{2.0, 2.0}, 0.1, 0, false},
      {{5.0, 9.0}, 0.7, 0, false},  // front() would have returned 0.4
  };
  const LocationEstimate top = Localizer::select_max_likelihood(candidates);
  EXPECT_DOUBLE_EQ(top.likelihood, 0.7);
  EXPECT_DOUBLE_EQ(top.position.x, 5.0);
  EXPECT_DOUBLE_EQ(top.position.y, 9.0);
  EXPECT_DOUBLE_EQ(Localizer::select_max_likelihood({}).likelihood, 0.0);
}

TEST(Localizer, CandidateOrderBreaksLikelihoodTiesByPosition) {
  // The total order must rank strictly through likelihood ties (grid
  // scan order: y, then x) — otherwise the kMaxCandidates cap would be
  // permutation-dependent again.
  const LocationEstimate a{{2.0, 3.0}, 0.5, 0, false};
  const LocationEstimate b{{1.0, 4.0}, 0.5, 0, false};
  const LocationEstimate c{{3.0, 3.0}, 0.5, 0, false};
  EXPECT_TRUE(Localizer::candidate_order(a, b));   // y 3 < 4
  EXPECT_FALSE(Localizer::candidate_order(b, a));
  EXPECT_TRUE(Localizer::candidate_order(a, c));   // tie y, x 2 < 3
  EXPECT_FALSE(Localizer::candidate_order(a, a));  // irreflexive
}

TEST(Localizer, BestEffortHonorsHillClimbingMode) {
  // Regression: the no-consensus fallback always re-searched with the
  // exhaustive grid even when the localizer was configured for hill
  // climbing. Mode is detectable from the answer itself: grid
  // candidates sit exactly on the 0.05 lattice, while hill-climb
  // positions step by whole grid_steps from the seed lattice. In this
  // room the x seeds (7 * (s + 0.5) / 4 = 0.875, 2.625, ...) are half a
  // step off the grid, so a hill-climb answer can NEVER have an
  // on-lattice x. (The y seeds happen to be grid multiples — 10 doesn't
  // have that property — so only x discriminates the mode.)
  LocalizerOptions opts;
  opts.min_arrays = 3;  // 2-array evidence cannot reach consensus
  opts.hill_climbing = true;
  const Localizer loc = default_localizer(opts);
  const rf::Vec2 target{3.0, 4.0};
  const auto ev = evidence_for(room_arrays(), target, 2);
  EXPECT_FALSE(loc.localize(ev).valid);

  const LocationEstimate be = loc.localize_best_effort(ev);
  EXPECT_FALSE(be.valid);
  ASSERT_GT(be.likelihood, 0.0);
  EXPECT_NEAR(rf::distance(be.position, target), 0.0, 0.3);
  const auto off_lattice = [](double v) {
    const double r = std::fmod(v, 0.05);
    return std::min(r, 0.05 - r) > 0.01;
  };
  EXPECT_TRUE(off_lattice(be.position.x));
}

TEST(Localizer, ConsensusSelectionIsOrderIndependent) {
  // Regression: the kMaxCandidates cap used to keep the FIRST 24
  // candidates in production order, so a permutation of the same list
  // could change which candidates were even scored. Bury the true
  // (highest-likelihood, consensus-backed) candidate behind 30 decoys
  // and check every rotation of the list selects the same fix.
  const Localizer loc = default_localizer();
  const rf::Vec2 target{3.0, 4.0};
  const auto ev = evidence_for(room_arrays(), target);

  std::vector<LocationEstimate> candidates;
  for (std::size_t i = 0; i < 30; ++i) {  // > kMaxCandidates decoys
    const rf::Vec2 p{0.5 + 0.1 * static_cast<double>(i), 9.5};
    candidates.push_back({p, loc.likelihood_at(p, ev), 0, false});
  }
  candidates.push_back({target, loc.likelihood_at(target, ev), 0, false});

  const LocationEstimate ref =
      loc.consensus_select(candidates, ev, loc.options().min_arrays);
  ASSERT_TRUE(ref.valid);
  EXPECT_NEAR(rf::distance(ref.position, target), 0.0, 1e-12);

  for (std::size_t shift = 1; shift < candidates.size(); shift += 7) {
    std::vector<LocationEstimate> rotated = candidates;
    std::rotate(rotated.begin(),
                rotated.begin() + static_cast<std::ptrdiff_t>(shift),
                rotated.end());
    const LocationEstimate got =
        loc.consensus_select(rotated, ev, loc.options().min_arrays);
    EXPECT_DOUBLE_EQ(got.position.x, ref.position.x);
    EXPECT_DOUBLE_EQ(got.position.y, ref.position.y);
    EXPECT_DOUBLE_EQ(got.likelihood, ref.likelihood);
    EXPECT_EQ(got.consensus, ref.consensus);
    EXPECT_EQ(got.valid, ref.valid);
  }
}

TEST(Localizer, GlobalDropNormIsMaxAbsoluteDrop) {
  std::vector<AngularEvidence> ev(2);
  ev[0].drops.push_back(drop_at(1.0, 2.0));   // drop = 2 - 0.1 = 1.9
  ev[1].drops.push_back(drop_at(1.5, 0.5));   // drop = 0.475
  EXPECT_NEAR(Localizer::global_drop_norm(ev), 1.9, 1e-12);
  EXPECT_DOUBLE_EQ(Localizer::global_drop_norm({}), 0.0);
}

}  // namespace
}  // namespace dwatch::core
