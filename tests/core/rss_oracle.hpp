// Frozen oracle for RSS-only localization: the search and selection the
// standalone RSS localizer ran before RSS links moved onto the
// Localizer's kernel table and branch-and-bound search. Per cell, each
// array's evidence is the max over its links of pow(drop / norm, p) *
// exp(-d^2 / (2 * 0.4^2)), d the distance to the array-tag segment; every
// cell of the grid is filled, every local maximum taken, and consensus,
// best-effort and multi-target picks read that list. Localizer results on
// RSS links must be byte-equal to these, serial or pooled, at every grid
// stride.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/localizer.hpp"
#include "core/thread_pool.hpp"
#include "localizer_oracle.hpp"

namespace dwatch::core::rss_oracle {

/// One RSS evidence set and the deployment it was drawn for.
struct Case {
  std::vector<rf::Vec2> centers;
  SearchBounds bounds;
  std::vector<RssLink> links;
  std::vector<std::uint8_t> excluded;
};

/// The whole oracle search state: everything a Localizer is built from.
struct Search {
  std::vector<rf::Vec2> centers;
  SearchBounds bounds;
  double grid_step = 0.05;
  std::size_t stride = 1;
  double power_exponent = 1.0;
  double epsilon = 0.12;
  std::size_t min_arrays = 2;
  double consensus_floor = 0.3;
  double min_drop_fraction = 0.12;
  double lateral_sigma = 0.4;

  [[nodiscard]] double step() const {
    return stride == 1 ? grid_step
                       : grid_step * static_cast<double>(stride);
  }

  [[nodiscard]] static double norm(std::span<const RssLink> links,
                                   std::span<const std::uint8_t> excluded) {
    double n = 0.0;
    for (const RssLink& link : links) {
      if (link.array_idx < excluded.size() && excluded[link.array_idx] != 0) {
        continue;
      }
      n = std::max(n, link.drop_fraction);
    }
    return n;
  }

  [[nodiscard]] double evidence_at(std::size_t a, rf::Vec2 p,
                                   std::span<const RssLink> links,
                                   double n) const {
    if (n <= 0.0) return 0.0;
    const double inv_2s2 = 1.0 / (2.0 * lateral_sigma * lateral_sigma);
    double best = 0.0;
    for (const RssLink& link : links) {
      if (link.array_idx != a) continue;
      if (link.drop_fraction < min_drop_fraction) continue;
      const double w = std::pow(link.drop_fraction / n, power_exponent);
      const double d =
          rf::point_segment_distance(p, centers[a], link.tag_position);
      best = std::max(best, w * std::exp(-d * d * inv_2s2));
    }
    return best;
  }

  [[nodiscard]] double likelihood_at(rf::Vec2 p,
                                     std::span<const RssLink> links,
                                     std::span<const std::uint8_t> excluded,
                                     double n) const {
    double product = 1.0;
    for (std::size_t a = 0; a < centers.size(); ++a) {
      if (a < excluded.size() && excluded[a] != 0) continue;
      product *= epsilon + evidence_at(a, p, links, n);
    }
    return product;
  }

  [[nodiscard]] std::size_t usable(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const {
    std::vector<std::uint8_t> has(centers.size(), 0);
    for (const RssLink& link : links) {
      if (link.array_idx >= centers.size()) continue;
      if (link.array_idx < excluded.size() && excluded[link.array_idx] != 0) {
        continue;
      }
      if (link.drop_fraction < min_drop_fraction) continue;
      has[link.array_idx] = 1;
    }
    return static_cast<std::size_t>(
        std::count(has.begin(), has.end(), std::uint8_t{1}));
  }

  [[nodiscard]] std::size_t consensus_at(
      rf::Vec2 p, std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded, double n) const {
    std::size_t supporting = 0;
    for (std::size_t a = 0; a < centers.size(); ++a) {
      if (a < excluded.size() && excluded[a] != 0) continue;
      if (evidence_at(a, p, links, n) >= consensus_floor) ++supporting;
    }
    return supporting;
  }

  [[nodiscard]] LikelihoodGrid grid(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const {
    LikelihoodGrid g;
    g.origin = bounds.min;
    g.step = step();
    g.nx = static_cast<std::size_t>(
               std::floor((bounds.max.x - bounds.min.x) / g.step)) +
           1;
    g.ny = static_cast<std::size_t>(
               std::floor((bounds.max.y - bounds.min.y) / g.step)) +
           1;
    g.values.resize(g.nx * g.ny);
    const double n = norm(links, excluded);
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix) {
        g.values[iy * g.nx + ix] =
            likelihood_at(g.point(ix, iy), links, excluded, n);
      }
    }
    return g;
  }

  /// Every local maximum of `g` (no neighbour strictly higher), sorted by
  /// candidate_order().
  [[nodiscard]] static std::vector<LocationEstimate> grid_candidates(
      const LikelihoodGrid& g) {
    std::vector<LocationEstimate> out;
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix) {
        const double v = g.at(ix, iy);
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          for (int dx = -1; dx <= 1 && is_max; ++dx) {
            if (dx == 0 && dy == 0) continue;
            const auto jx = static_cast<std::ptrdiff_t>(ix) + dx;
            const auto jy = static_cast<std::ptrdiff_t>(iy) + dy;
            if (jx < 0 || jy < 0 || jx >= static_cast<std::ptrdiff_t>(g.nx) ||
                jy >= static_cast<std::ptrdiff_t>(g.ny)) {
              continue;
            }
            if (g.at(static_cast<std::size_t>(jx),
                     static_cast<std::size_t>(jy)) > v) {
              is_max = false;
            }
          }
        }
        if (is_max) out.push_back({g.point(ix, iy), v, 0, false});
      }
    }
    std::sort(out.begin(), out.end(), Localizer::candidate_order);
    return out;
  }

  /// The highest-consensus candidate among the first kMaxCandidates; a
  /// default (invalid) estimate when none reaches min_arrays.
  [[nodiscard]] LocationEstimate consensus_select(
      std::span<const LocationEstimate> candidates,
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      double n, std::size_t usable_arrays) const {
    const std::size_t need = std::min(min_arrays, usable_arrays);
    LocationEstimate best;
    bool have = false;
    const std::size_t limit =
        std::min(candidates.size(), Localizer::kMaxCandidates);
    for (LocationEstimate c : candidates.first(limit)) {
      c.consensus = consensus_at(c.position, links, excluded, n);
      if (c.consensus < need) continue;
      if (!have || c.consensus > best.consensus ||
          (c.consensus == best.consensus &&
           Localizer::candidate_order(c, best))) {
        best = c;
        have = true;
      }
    }
    best.valid = have;
    return best;
  }

  /// localize() on the full scan's candidate list `found`.
  [[nodiscard]] LocationEstimate localize(
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      std::span<const LocationEstimate> found) const {
    const double n = norm(links, excluded);
    if (n <= 0.0) return {};
    const std::size_t u = usable(links, excluded);
    if (u == 0) return {};
    return consensus_select(found, links, excluded, n, u);
  }

  /// localize_best_effort(): the consensus fix, else the top peak with
  /// valid == false.
  [[nodiscard]] LocationEstimate localize_best_effort(
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      std::span<const LocationEstimate> found) const {
    const double n = norm(links, excluded);
    if (n <= 0.0) return {};
    const std::size_t u = usable(links, excluded);
    if (u > 0) {
      const LocationEstimate est =
          consensus_select(found, links, excluded, n, u);
      if (est.valid) return est;
    }
    if (found.empty()) return {};
    LocationEstimate est = found.front();
    est.consensus = consensus_at(est.position, links, excluded, n);
    est.valid = false;
    return est;
  }

  /// localize_multi(): maxima at or above relative_floor of the best,
  /// min_separation apart, each with min(min_arrays, usable) consensus.
  [[nodiscard]] std::vector<LocationEstimate> localize_multi(
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      std::span<const LocationEstimate> found, std::size_t max_targets,
      double min_separation, double relative_floor) const {
    std::vector<LocationEstimate> out;
    const double n = norm(links, excluded);
    if (n <= 0.0 || max_targets == 0) return out;
    const std::size_t u = usable(links, excluded);
    if (u == 0) return out;
    const std::size_t need = std::min(min_arrays, u);
    if (found.empty()) return out;
    const double floor = found.front().likelihood * relative_floor;
    for (const LocationEstimate& c : found) {
      if (out.size() >= max_targets) break;
      if (c.likelihood < floor) break;
      bool clear = true;
      for (const LocationEstimate& kept : out) {
        if (rf::distance(c.position, kept.position) < min_separation) {
          clear = false;
          break;
        }
      }
      if (!clear) continue;
      LocationEstimate e = c;
      e.consensus = consensus_at(e.position, links, excluded, n);
      if (e.consensus < need) continue;
      e.valid = true;
      out.push_back(e);
    }
    return out;
  }
};

/// A Search over `c`'s deployment at `stride`.
inline Search search_for(const Case& c, std::size_t stride) {
  Search s;
  s.centers = c.centers;
  s.bounds = c.bounds;
  s.stride = stride;
  return s;
}

/// A Localizer configured like `s` (arrays at its centers; RSS evidence
/// reads nothing else of them), rows on `pool` when one is given.
inline Localizer localizer_for(const Search& s,
                               std::shared_ptr<ThreadPool> pool = nullptr) {
  std::vector<rf::UniformLinearArray> arrays;
  for (const rf::Vec2& c : s.centers) {
    arrays.emplace_back(rf::Vec3{c.x, c.y, 1.25}, rf::Vec2{1.0, 0.0}, 8);
  }
  LocalizerOptions opts;
  opts.grid_step = s.grid_step;
  opts.power_exponent = s.power_exponent;
  opts.epsilon = s.epsilon;
  opts.min_arrays = s.min_arrays;
  opts.consensus_floor = s.consensus_floor;
  Localizer loc(std::move(arrays), s.bounds, opts);
  loc.set_grid_stride(s.stride);
  loc.set_thread_pool(std::move(pool));
  return loc;
}

/// Four arrays on the edges of a 7 x 10 room, like the room deployments.
inline std::vector<rf::Vec2> room_centers() {
  return {{3.5, 0.15}, {3.5, 9.85}, {0.15, 5.0}, {6.85, 5.0}};
}

/// Seeded random links for the room arrays, plus a fifth array inside
/// the bounds on odd seeds. Every case mixes links above and below
/// kRssMinDropFraction; one array is silent (no links on even seeds,
/// only sub-floor ones on odd seeds); two seeds in three also exclude an
/// array that carries the strongest link of all. Every other array also
/// gets a link whose segment passes through a random target, so
/// consensus is reachable.
inline Case random_case(std::uint64_t seed) {
  Case c;
  c.centers = room_centers();
  c.bounds = {{0.0, 0.0}, {7.0, 10.0}};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * unit(rng);
  };
  if (seed % 2 == 1) {
    c.centers.push_back({uniform(1.0, 6.0), uniform(1.0, 9.0)});
  }
  const std::size_t n = c.centers.size();
  const bool exclude = seed % 3 != 0;
  const std::size_t excluded = seed % n;
  const std::size_t silent = (seed + 1 + seed / 4 % 3) % n;
  const rf::Vec2 target{uniform(1.0, 6.0), uniform(1.5, 8.5)};
  c.excluded.assign(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    if (a == silent) {
      if (seed % 2 == 1) {
        c.links.push_back({a, {uniform(0.0, 7.0), uniform(0.0, 10.0)},
                           uniform(0.01, 0.11)});
      }
      continue;
    }
    const auto count = static_cast<std::size_t>(uniform(1.0, 7.0));
    for (std::size_t k = 0; k < count; ++k) {
      // About one link in four is below the drop floor.
      const double drop =
          unit(rng) < 0.25 ? uniform(0.01, 0.11) : uniform(0.12, 0.9);
      c.links.push_back({a, {uniform(0.0, 7.0), uniform(0.0, 10.0)}, drop});
    }
    if (!exclude || a != excluded) {
      const rf::Vec2 dir = (target - c.centers[a]).normalized();
      c.links.push_back({a, target + dir * uniform(0.3, 3.0),
                         uniform(0.3, 0.8)});
    }
  }
  if (exclude) {
    // The excluded array's link outweighs every healthy one; it must not
    // rescale them.
    c.excluded[excluded] = 1;
    c.links.push_back({excluded, target, 1.0});
  }
  return c;
}

/// The branch-and-bound search on RSS links against the full scan, at
/// `s`'s stride:
///   - the heatmap is byte-equal;
///   - the search's candidates are a prefix of the scan's list, position
///     and likelihood byte for byte, that holds at least its first
///     kMaxCandidates entries;
///   - localize, localize_best_effort and localize_multi (floors 0.35
///     and 0) equal the oracle's, byte for byte.
inline void expect_search_matches(const Search& s, const Localizer& loc,
                                  const Case& c) {
  const LikelihoodGrid want_grid = s.grid(c.links, c.excluded);
  oracle::expect_same_grid(loc.likelihood_grid(c.links, c.excluded),
                           want_grid);
  const std::vector<LocationEstimate> want =
      Search::grid_candidates(want_grid);
  const std::vector<LocationEstimate> got =
      loc.grid_candidates(c.links, c.excluded);
  EXPECT_GE(got.size(), std::min(want.size(), Localizer::kMaxCandidates));
  EXPECT_LE(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const double a[3] = {got[i].position.x, got[i].position.y,
                         got[i].likelihood};
    const double b[3] = {want[i].position.x, want[i].position.y,
                         want[i].likelihood};
    if (std::memcmp(a, b, sizeof a) != 0) {
      ADD_FAILURE() << "candidate " << i << ": " << a[0] << "," << a[1]
                    << " L=" << a[2] << " vs full scan " << b[0] << ","
                    << b[1] << " L=" << b[2];
      break;
    }
  }
  EXPECT_TRUE(oracle::same_estimate(loc.localize(c.links, c.excluded),
                                    s.localize(c.links, c.excluded, want)));
  EXPECT_TRUE(oracle::same_estimate(
      loc.localize_best_effort(c.links, c.excluded),
      s.localize_best_effort(c.links, c.excluded, want)));
  EXPECT_TRUE(oracle::same_estimates(
      loc.localize_multi(c.links, c.excluded, 4, 0.25, 0.35),
      s.localize_multi(c.links, c.excluded, want, 4, 0.25, 0.35)));
  EXPECT_TRUE(oracle::same_estimates(
      loc.localize_multi(c.links, c.excluded, 6, 0.5, 0.0),
      s.localize_multi(c.links, c.excluded, want, 6, 0.5, 0.0)));
}

/// Runs `check(search, case)` for `c` at grid strides {1, 2, 4}.
template <class Check>
void for_each_stride(const Case& c, Check&& check) {
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    check(search_for(c, stride), c);
  }
}

}  // namespace dwatch::core::rss_oracle
