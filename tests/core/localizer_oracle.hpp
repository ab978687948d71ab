// Frozen oracle for the likelihood localizer: the per-cell formula
// exactly as it read before the per-search kernel table (bearing, then
// pow and exp for every drop of every usable array), the full scan of
// every grid cell for local maxima that the branch-and-bound search
// replaced, and the consensus selection, best-effort fallback and
// multi-target pick built on them. Localizer results must be byte-equal
// to these, serial or pooled, at every grid stride.
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
#include "rf/constants.hpp"

namespace dwatch::core::oracle {

/// Four arrays on the edges of a 7 x 10 room, like the room deployments.
inline std::vector<rf::UniformLinearArray> room_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({3.5, 9.85, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
      rf::UniformLinearArray({6.85, 5.0, 1.25}, {0, 1}, 8),
  };
}

inline SearchBounds room_bounds() { return {{0.0, 0.0}, {7.0, 10.0}}; }

/// Seeded random evidence for the four room arrays. Every case mixes
/// clean (sigma_scale 1) and widened (sigma_scale > 1) drops, drops with
/// zero or negative power drop, and one empty array; two seeds in three
/// also exclude an array that carries the strongest drop of all. The
/// seed picks which array plays which role. Every array that is neither
/// empty nor excluded also gets a drop at the bearing of a random
/// target, so consensus is reachable.
inline std::vector<AngularEvidence> random_evidence(std::uint64_t seed) {
  const auto arrays = room_arrays();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * unit(rng);
  };
  const bool exclude = seed % 3 != 0;
  const std::size_t excluded = seed % 4;
  const std::size_t empty = (seed + 1 + seed / 4 % 3) % 4;
  const rf::Vec2 target{uniform(1.0, 6.0), uniform(1.5, 8.5)};
  std::vector<AngularEvidence> ev(arrays.size());
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (i == empty) continue;
    const auto count = static_cast<std::size_t>(uniform(2.0, 9.0));
    for (std::size_t k = 0; k < count; ++k) {
      PathDrop d;
      d.theta = uniform(0.1, rf::kPi - 0.1);
      d.baseline_power = uniform(0.2, 2.0);
      // About one drop in six has no power drop at all (or a rise).
      d.online_power = unit(rng) < 0.17
                           ? d.baseline_power * uniform(1.0, 1.3)
                           : d.baseline_power * uniform(0.0, 0.7);
      d.sigma_scale = unit(rng) < 0.5 ? 1.0 : uniform(1.0, 3.0);
      d.source_id = static_cast<std::uint32_t>(k);
      ev[i].drops.push_back(d);
    }
    if (!exclude || i != excluded) {
      PathDrop d;
      d.theta = arrays[i].arrival_angle_planar(target) + uniform(-0.02, 0.02);
      d.baseline_power = uniform(1.0, 2.0);
      d.online_power = 0.1 * d.baseline_power;
      ev[i].drops.push_back(d);
    }
  }
  if (exclude) {
    // The excluded array's drop outweighs every healthy one; it must not
    // rescale them.
    ev[excluded].excluded = true;
    PathDrop poisoned;
    poisoned.theta = uniform(0.1, rf::kPi - 0.1);
    poisoned.baseline_power = 50.0;
    ev[excluded].drops.push_back(poisoned);
  }
  return ev;
}

inline double norm(std::span<const AngularEvidence> evidence) {
  double n = 0.0;
  for (const auto& e : evidence) {
    if (e.excluded) continue;
    for (const PathDrop& d : e.drops) {
      n = std::max(n, d.baseline_power - d.online_power);
    }
  }
  return n;
}

inline double evidence_at(const LocalizerOptions& opts,
                          const AngularEvidence& evidence, double theta,
                          double norm) {
  if (norm <= 0.0) return 0.0;
  const double inv_2s2 = 1.0 / (2.0 * opts.kernel_sigma * opts.kernel_sigma);
  double best = 0.0;
  for (const PathDrop& d : evidence.drops) {
    const double delta = theta - d.theta;
    const double power_drop =
        std::max(d.baseline_power - d.online_power, 0.0);
    const double weight = std::pow(power_drop / norm, opts.power_exponent);
    const double inv = inv_2s2 / (d.sigma_scale * d.sigma_scale);
    best = std::max(best, weight * std::exp(-delta * delta * inv));
  }
  return best;
}

/// The whole oracle search state: everything a Localizer is built from.
struct Search {
  std::vector<rf::UniformLinearArray> arrays = room_arrays();
  SearchBounds bounds = room_bounds();
  LocalizerOptions opts;
  std::size_t stride = 1;

  [[nodiscard]] double step() const {
    return stride == 1 ? opts.grid_step
                       : opts.grid_step * static_cast<double>(stride);
  }

  [[nodiscard]] bool too_close(rf::Vec2 p) const {
    for (const auto& a : arrays) {
      if (rf::distance(p, a.center().xy()) < 0.25) return true;
    }
    return false;
  }

  [[nodiscard]] double likelihood_at(rf::Vec2 p,
                                     std::span<const AngularEvidence> ev,
                                     double n) const {
    if (too_close(p)) return 0.0;
    double l = 1.0;
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      if (!ev[i].usable()) continue;
      const double theta = arrays[i].arrival_angle_planar(p);
      l *= opts.epsilon + evidence_at(opts, ev[i], theta, n);
    }
    return l;
  }

  [[nodiscard]] std::size_t consensus_at(
      rf::Vec2 p, std::span<const AngularEvidence> ev) const {
    const double inv_2s2 =
        1.0 / (2.0 * opts.kernel_sigma * opts.kernel_sigma);
    if (too_close(p)) return 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      if (!ev[i].usable()) continue;
      const double theta = arrays[i].arrival_angle_planar(p);
      double best = 0.0;
      for (const PathDrop& d : ev[i].drops) {
        const double delta = theta - d.theta;
        const double inv = inv_2s2 / (d.sigma_scale * d.sigma_scale);
        best = std::max(best, std::exp(-delta * delta * inv));
      }
      if (best >= opts.consensus_floor) ++n;
    }
    return n;
  }

  [[nodiscard]] LikelihoodGrid grid(
      std::span<const AngularEvidence> ev) const {
    LikelihoodGrid g;
    g.origin = bounds.min;
    g.step = step();
    g.nx = static_cast<std::size_t>(
               std::floor((bounds.max.x - bounds.min.x) / g.step)) +
           1;
    g.ny = static_cast<std::size_t>(
               std::floor((bounds.max.y - bounds.min.y) / g.step)) +
           1;
    const double n = norm(ev);
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix) {
        g.values.push_back(likelihood_at(g.point(ix, iy), ev, n));
      }
    }
    return g;
  }

  [[nodiscard]] std::vector<LocationEstimate> grid_candidates(
      std::span<const AngularEvidence> ev) const {
    const LikelihoodGrid g = grid(ev);
    std::vector<LocationEstimate> out;
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix) {
        const double v = g.at(ix, iy);
        bool is_max = true;
        for (std::size_t jy = iy == 0 ? 0 : iy - 1;
             jy <= std::min(iy + 1, g.ny - 1); ++jy) {
          for (std::size_t jx = ix == 0 ? 0 : ix - 1;
               jx <= std::min(ix + 1, g.nx - 1); ++jx) {
            if (g.at(jx, jy) > v) is_max = false;
          }
        }
        if (is_max) out.push_back({g.point(ix, iy), v, 0, false});
      }
    }
    std::sort(out.begin(), out.end(), Localizer::candidate_order);
    return out;
  }

  [[nodiscard]] std::vector<LocationEstimate> hill_climb_candidates(
      std::span<const AngularEvidence> ev) const {
    const double s = step();
    const double n = norm(ev);
    const auto per_side = static_cast<std::size_t>(std::ceil(std::sqrt(
        static_cast<double>(std::max<std::size_t>(opts.hill_climb_starts,
                                                  4)))));
    std::vector<LocationEstimate> out;
    for (std::size_t sy = 0; sy < per_side; ++sy) {
      for (std::size_t sx = 0; sx < per_side; ++sx) {
        rf::Vec2 p{bounds.min.x + (bounds.max.x - bounds.min.x) *
                                      (static_cast<double>(sx) + 0.5) /
                                      static_cast<double>(per_side),
                   bounds.min.y + (bounds.max.y - bounds.min.y) *
                                      (static_cast<double>(sy) + 0.5) /
                                      static_cast<double>(per_side)};
        double l = likelihood_at(p, ev, n);
        for (bool moved = true; moved;) {
          moved = false;
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0) continue;
              const rf::Vec2 q{p.x + dx * s, p.y + dy * s};
              if (!bounds.contains(q)) continue;
              const double lq = likelihood_at(q, ev, n);
              if (lq > l) {
                l = lq;
                p = q;
                moved = true;
              }
            }
          }
        }
        const bool dup =
            std::any_of(out.begin(), out.end(), [&](const auto& c) {
              return rf::distance(c.position, p) < s * 1.5;
            });
        if (!dup) out.push_back({p, l, 0, false});
      }
    }
    std::sort(out.begin(), out.end(), Localizer::candidate_order);
    return out;
  }

  [[nodiscard]] static std::size_t usable(
      std::span<const AngularEvidence> ev) {
    std::size_t n = 0;
    for (const auto& e : ev) n += e.usable() ? 1 : 0;
    return n;
  }

  /// min_arrays shrunk to the surviving arrays (K-of-N).
  [[nodiscard]] std::size_t min_arrays(
      std::span<const AngularEvidence> ev) const {
    std::size_t excluded = 0;
    for (const auto& e : ev) excluded += e.excluded ? 1 : 0;
    return excluded == 0
               ? opts.min_arrays
               : std::min(opts.min_arrays,
                          std::max<std::size_t>(1, ev.size() - excluded));
  }

  [[nodiscard]] std::vector<LocationEstimate> candidates(
      std::span<const AngularEvidence> ev) const {
    return opts.hill_climbing ? hill_climb_candidates(ev)
                              : grid_candidates(ev);
  }

  /// Consensus selection over the first kMaxCandidates candidates.
  [[nodiscard]] LocationEstimate select(
      const std::vector<LocationEstimate>& candidates,
      std::span<const AngularEvidence> ev, std::size_t min_arrays) const {
    LocationEstimate best{};
    for (std::size_t i = 0;
         i < std::min(candidates.size(), Localizer::kMaxCandidates); ++i) {
      LocationEstimate c = candidates[i];
      c.consensus = consensus_at(c.position, ev);
      if (c.consensus > best.consensus ||
          (c.consensus == best.consensus && c.likelihood > best.likelihood)) {
        best = c;
      }
    }
    best.valid = best.consensus >= min_arrays;
    return best;
  }

  /// localize(): consensus selection over the first kMaxCandidates
  /// peaks.
  [[nodiscard]] LocationEstimate localize(
      std::span<const AngularEvidence> ev) const {
    const std::size_t need = min_arrays(ev);
    if (usable(ev) < need) return {};
    return select(candidates(ev), ev, need);
  }

  /// localize_best_effort(): the consensus fix; else, with valid ==
  /// false, the highest-consensus candidate among the first
  /// kMaxCandidates if its likelihood is above 0, else the highest peak.
  [[nodiscard]] LocationEstimate localize_best_effort(
      std::span<const AngularEvidence> ev) const {
    const std::size_t need = min_arrays(ev);
    const std::size_t n = usable(ev);
    if (n == 0 && need > 0) return {};
    const std::vector<LocationEstimate> found = candidates(ev);
    LocationEstimate est{};
    if (n >= need) {
      est = select(found, ev, need);
      if (est.valid || est.likelihood > 0.0) return est;
    }
    if (!found.empty() && found.front().likelihood > 0.0) {
      LocationEstimate top = found.front();
      top.consensus = consensus_at(top.position, ev);
      top.valid = false;
      return top;
    }
    return est;
  }

  /// localize_multi(): grid peaks at or above relative_floor of the best,
  /// min_separation apart, each with consensus.
  [[nodiscard]] std::vector<LocationEstimate> localize_multi(
      std::span<const AngularEvidence> ev, std::size_t max_targets,
      double min_separation, double relative_floor) const {
    std::vector<LocationEstimate> out;
    const std::size_t need = min_arrays(ev);
    if (max_targets == 0 || usable(ev) < need) return out;
    const std::vector<LocationEstimate> found = grid_candidates(ev);
    if (found.empty()) return out;
    const double floor = found.front().likelihood * relative_floor;
    for (LocationEstimate c : found) {
      if (c.likelihood < floor) break;
      const bool clash = std::any_of(out.begin(), out.end(), [&](const auto& e) {
        return rf::distance(e.position, c.position) < min_separation;
      });
      if (clash) continue;
      c.consensus = consensus_at(c.position, ev);
      if (c.consensus < need) continue;
      c.valid = true;
      out.push_back(c);
      if (out.size() >= max_targets) break;
    }
    return out;
  }
};

/// Runs `check(search, evidence)` over the oracle matrix: `seeds`
/// random evidence sets x power_exponent {1.0, 0.5} x grid stride
/// {1, 2, 4}.
template <class Check>
void for_each_case(std::uint64_t seeds, Check&& check) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::vector<AngularEvidence> ev = random_evidence(seed);
    for (const double exponent : {1.0, 0.5}) {
      for (const std::size_t stride : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " exponent "
                                          << exponent << " stride "
                                          << stride);
        Search s;
        s.opts.power_exponent = exponent;
        s.stride = stride;
        check(s, ev);
      }
    }
  }
}

/// A Localizer configured like `s`, rows on `pool` when one is given.
inline Localizer localizer_for(const Search& s,
                               std::shared_ptr<ThreadPool> pool = nullptr) {
  Localizer loc(s.arrays, s.bounds, s.opts);
  loc.set_grid_stride(s.stride);
  loc.set_thread_pool(std::move(pool));
  return loc;
}

inline void expect_same_grid(const LikelihoodGrid& got,
                             const LikelihoodGrid& want) {
  ASSERT_EQ(got.nx, want.nx);
  ASSERT_EQ(got.ny, want.ny);
  ASSERT_EQ(got.values.size(), want.values.size());
  EXPECT_EQ(got.step, want.step);
  const bool same =
      std::memcmp(got.values.data(), want.values.data(),
                  got.values.size() * sizeof(double)) == 0;
  EXPECT_TRUE(same);
  if (same) return;
  for (std::size_t k = 0; k < got.values.size(); ++k) {
    if (std::memcmp(&got.values[k], &want.values[k], sizeof(double)) != 0) {
      ADD_FAILURE() << "first differing cell " << k << ": " << got.values[k]
                    << " vs oracle " << want.values[k];
      return;
    }
  }
}

/// Byte equality of two doubles (distinguishes -0.0 and NaN payloads).
inline bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

inline bool same_estimate(const LocationEstimate& a,
                          const LocationEstimate& b) {
  return same_bytes(a.position.x, b.position.x) &&
         same_bytes(a.position.y, b.position.y) &&
         same_bytes(a.likelihood, b.likelihood) &&
         a.consensus == b.consensus && a.valid == b.valid;
}

inline ::testing::AssertionResult same_estimates(
    const std::vector<LocationEstimate>& got,
    const std::vector<LocationEstimate>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " estimates vs oracle " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_estimate(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "estimate " << i << ": " << got[i].position.x << ","
             << got[i].position.y << " L=" << got[i].likelihood
             << " vs oracle " << want[i].position.x << ","
             << want[i].position.y << " L=" << want[i].likelihood;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The branch-and-bound search against the full scan of every cell, on
/// one localizer configured like `s`:
///   - the search's candidates are a prefix of the scan's list, position
///     and likelihood byte for byte, that holds at least its first
///     kMaxCandidates entries;
///   - localize, localize_best_effort and localize_multi (default floor
///     and floor 0) equal the oracle's, byte for byte.
inline void expect_search_matches(const Search& s, const Localizer& loc,
                                  std::span<const AngularEvidence> ev) {
  const std::vector<LocationEstimate> got = loc.grid_candidates(ev);
  const std::vector<LocationEstimate> want = s.grid_candidates(ev);
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
  EXPECT_TRUE(same_estimate(loc.localize(ev), s.localize(ev)));
  EXPECT_TRUE(same_estimate(loc.localize_best_effort(ev),
                            s.localize_best_effort(ev)));
  EXPECT_TRUE(same_estimates(loc.localize_multi(ev, 4, 0.25, 0.35),
                             s.localize_multi(ev, 4, 0.25, 0.35)));
  EXPECT_TRUE(same_estimates(loc.localize_multi(ev, 6, 0.5, 0.0),
                             s.localize_multi(ev, 6, 0.5, 0.0)));
}

}  // namespace dwatch::core::oracle
