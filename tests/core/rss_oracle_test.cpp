// The Localizer on RSS links against the frozen full-scan RSS search in
// rss_oracle.hpp: heatmaps, candidate lists and every fix byte for byte,
// at grid strides 1/2/4, on seeded link sets and on hand-placed links
// that meet the branch-and-bound blocks at their edges and corners.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rss_oracle.hpp"

namespace dwatch::core {
namespace {

using rss_oracle::Case;
using rss_oracle::Search;

void expect_matches_at_every_stride(const Case& c) {
  rss_oracle::for_each_stride(c, [](const Search& s, const Case& cc) {
    rss_oracle::expect_search_matches(s, rss_oracle::localizer_for(s), cc);
  });
}

TEST(RssOracle, SeededLinkSetsMatchTheFullScan) {
  // Excluded arrays with the strongest link, silent arrays (no links or
  // only sub-floor ones), sub-floor links on every array, and a fifth
  // array inside the bounds on odd seeds.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_at_every_stride(rss_oracle::random_case(seed));
  }
}

TEST(RssOracle, SeededLinkSetsMatchUnderPowerExponentAndFloors) {
  for (std::uint64_t seed = 20; seed <= 23; ++seed) {
    const Case c = rss_oracle::random_case(seed);
    for (const double exponent : {0.5, 2.0}) {
      for (const double floor : {0.0, 0.15, 0.6}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " exponent "
                                          << exponent << " floor " << floor);
        rss_oracle::for_each_stride(c, [&](Search s, const Case& cc) {
          s.power_exponent = exponent;
          s.consensus_floor = floor;
          rss_oracle::expect_search_matches(s, rss_oracle::localizer_for(s),
                                            cc);
        });
      }
    }
  }
}

TEST(RssOracle, SegmentsAlongBlockEdgesAndThroughLatticeCorners) {
  // Links whose segments run exactly along the lines between blocks and
  // diagonally through lattice corners, at each stride's own lattice
  // (a corner every 8 cells), so segment and cell rectangle meet only on
  // the rectangle's boundary.
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    Case c;
    c.bounds = {{0.0, 0.0}, {7.0, 10.0}};
    Search s;
    s.bounds = c.bounds;
    s.stride = stride;
    const double step = s.step();
    const auto lattice = [&](std::size_t kx, std::size_t ky) {
      return rf::Vec2{c.bounds.min.x + step * static_cast<double>(8 * kx),
                      c.bounds.min.y + step * static_cast<double>(8 * ky)};
    };
    c.centers = {lattice(0, 2), lattice(1, 0), {6.85, 5.0}, lattice(2, 1)};
    c.links = {
        {0, lattice(4, 2), 0.6},   // along a block row edge
        {0, lattice(3, 5), 0.3},   // diagonal through lattice corners
        {1, lattice(1, 4), 0.5},   // along a block column edge
        {1, lattice(3, 2), 0.7},   // diagonal
        {2, lattice(1, 2), 0.4},
        {3, lattice(0, 3), 0.45},  // anti-diagonal through corners
        {3, lattice(2, 3), 0.05},  // sub-floor
    };
    c.excluded.assign(c.centers.size(), 0);
    s.centers = c.centers;
    rss_oracle::expect_search_matches(s, rss_oracle::localizer_for(s), c);
  }
}

TEST(RssOracle, LongLinksCrossingBlocksWithoutEndpoints) {
  // Tags far outside the bounds: the segments cross whole rows of blocks
  // with no endpoint or cell corner near them, so only the segment's
  // intersection with a block's rectangle bounds those blocks right.
  Case c;
  c.bounds = {{0.0, 0.0}, {7.0, 10.0}};
  c.centers = {{-3.0, 1.3}, {9.7, 2.1}, {2.2, -4.0}, {5.1, 14.0}};
  c.links = {
      {0, {12.0, 8.7}, 0.8}, {0, {11.0, 3.3}, 0.4},
      {1, {-4.0, 9.1}, 0.6}, {1, {-2.5, 5.5}, 0.9},
      {2, {6.3, 16.0}, 0.5}, {2, {3.3, 15.0}, 0.35},
      {3, {1.1, -5.0}, 0.7}, {3, {6.6, -3.0}, 0.3},
  };
  c.excluded.assign(c.centers.size(), 0);
  expect_matches_at_every_stride(c);
}

TEST(RssOracle, ArraysInsideTheBounds) {
  Case c;
  c.bounds = {{0.0, 0.0}, {7.0, 10.0}};
  c.centers = {{2.0, 3.0}, {5.0, 7.0}, {3.5, 5.0}};
  c.links = {
      {0, {6.5, 9.0}, 0.5}, {0, {0.5, 9.5}, 0.3},  {1, {0.5, 0.5}, 0.6},
      {1, {6.5, 1.0}, 0.2}, {2, {3.5, 9.9}, 0.45}, {2, {0.2, 5.0}, 0.8},
  };
  c.excluded.assign(c.centers.size(), 0);
  expect_matches_at_every_stride(c);
}

TEST(RssOracle, AllEpsilonPlateau) {
  // No usable link anywhere: with no links at all (norm 0) and with only
  // sub-floor links (norm above 0), every cell holds the same product of
  // epsilons, and every cell is a local maximum.
  Case c;
  c.bounds = {{0.0, 0.0}, {7.0, 10.0}};
  c.centers = rss_oracle::room_centers();
  c.excluded = {0, 0, 1, 0};
  expect_matches_at_every_stride(c);
  c.links = {{0, {5.0, 5.0}, 0.05}, {3, {1.0, 9.0}, 0.11}};
  expect_matches_at_every_stride(c);
}

TEST(RssOracle, FewerThanTwentyFourMaxima) {
  // A 2 x 2 m table crossed by every array's links: no cell is far
  // enough from a segment for its evidence to round to exactly 0, so
  // there is no epsilon plateau and only a few maxima.
  Case c;
  c.bounds = {{0.0, 0.0}, {2.0, 2.0}};
  c.centers = {{0.0, 1.0}, {1.0, 0.0}};
  c.links = {{0, {2.0, 1.0}, 0.5}, {0, {2.0, 1.8}, 0.3}, {1, {1.0, 2.0}, 0.6}};
  c.excluded.assign(c.centers.size(), 0);
  const Search s = rss_oracle::search_for(c, 1);
  ASSERT_LT(Search::grid_candidates(s.grid(c.links, c.excluded)).size(),
            Localizer::kMaxCandidates);
  expect_matches_at_every_stride(c);
}

}  // namespace
}  // namespace dwatch::core
