#include "core/rss.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

namespace dwatch::core {

double phase_coherence(const linalg::CMatrix& snapshots) {
  const std::size_t m_rows = snapshots.rows();
  const std::size_t n_cols = snapshots.cols();
  if (m_rows <= 1 || n_cols == 0) return 1.0;
  // |reference| of each column, shared by every row.
  std::vector<double> ref_abs(n_cols);
  for (std::size_t n = 0; n < n_cols; ++n) {
    ref_abs[n] = std::abs(snapshots(0, n));
  }
  double total = 0.0;
  for (std::size_t m = 1; m < m_rows; ++m) {
    std::complex<double> acc{0.0, 0.0};
    std::size_t terms = 0;
    for (std::size_t n = 0; n < n_cols; ++n) {
      const std::complex<double> x = snapshots(m, n);
      const std::complex<double> r = snapshots(0, n);
      const double mag = std::abs(x) * ref_abs[n];
      if (mag < 1e-12) continue;  // a dead sample carries no phase
      acc += x * std::conj(r) / mag;
      ++terms;
    }
    total += terms == 0 ? 0.0 : std::abs(acc) / static_cast<double>(terms);
  }
  return total / static_cast<double>(m_rows - 1);
}

RssLocalizer::RssLocalizer(std::vector<rf::Vec2> array_centers,
                           SearchBounds bounds, double grid_step,
                           RssOnlyOptions options)
    : centers_(std::move(array_centers)),
      bounds_(bounds),
      grid_step_(grid_step),
      options_(options) {
  if (centers_.empty()) {
    throw std::invalid_argument("RssLocalizer: no array centers");
  }
  if (bounds_.max.x <= bounds_.min.x || bounds_.max.y <= bounds_.min.y) {
    throw std::invalid_argument("RssLocalizer: degenerate bounds");
  }
  if (grid_step_ <= 0.0) {
    throw std::invalid_argument("RssLocalizer: grid_step must be > 0");
  }
  if (options_.lateral_sigma <= 0.0) {
    throw std::invalid_argument("RssLocalizer: lateral_sigma must be > 0");
  }
  inv_2s2_ = 1.0 / (2.0 * options_.lateral_sigma * options_.lateral_sigma);
}

double RssLocalizer::effective_grid_step() const noexcept {
  // Stride 1 returns the configured step VERBATIM, as in the phase
  // localizer, so the un-browned path is bit-identical by construction.
  if (grid_stride_ == 1) return grid_step_;
  return grid_step_ * static_cast<double>(grid_stride_);
}

double RssLocalizer::global_drop_norm(
    std::span<const RssLink> links, std::span<const std::uint8_t> excluded) {
  double norm = 0.0;
  for (const RssLink& link : links) {
    // As in the phase path: an excluded array's links must not rescale
    // the healthy arrays' weights.
    if (link.array_idx < excluded.size() && excluded[link.array_idx] != 0) {
      continue;
    }
    norm = std::max(norm, link.drop_fraction);
  }
  return norm;
}

double RssLocalizer::evidence_at(std::size_t array_idx, rf::Vec2 point,
                                 std::span<const RssLink> links,
                                 double norm) const {
  if (norm <= 0.0) return 0.0;
  double best = 0.0;
  for (const RssLink& link : links) {
    if (link.array_idx != array_idx) continue;
    if (link.drop_fraction < options_.min_drop_fraction) continue;
    const double w =
        std::pow(link.drop_fraction / norm, options_.power_exponent);
    const double d = rf::point_segment_distance(point, centers_[array_idx],
                                                link.tag_position);
    best = std::max(best, w * std::exp(-d * d * inv_2s2_));
  }
  return best;
}

double RssLocalizer::likelihood_at(rf::Vec2 point,
                                   std::span<const RssLink> links,
                                   std::span<const std::uint8_t> excluded,
                                   double norm) const {
  double product = 1.0;
  for (std::size_t a = 0; a < centers_.size(); ++a) {
    if (a < excluded.size() && excluded[a] != 0) continue;
    product *= options_.epsilon + evidence_at(a, point, links, norm);
  }
  return product;
}

std::size_t RssLocalizer::usable_arrays(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  std::vector<std::uint8_t> has(centers_.size(), 0);
  for (const RssLink& link : links) {
    if (link.array_idx >= centers_.size()) continue;
    if (link.array_idx < excluded.size() && excluded[link.array_idx] != 0) {
      continue;
    }
    if (link.drop_fraction < options_.min_drop_fraction) continue;
    has[link.array_idx] = 1;
  }
  return static_cast<std::size_t>(
      std::count(has.begin(), has.end(), std::uint8_t{1}));
}

std::size_t RssLocalizer::consensus_at(
    rf::Vec2 point, std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded, double norm) const {
  std::size_t supporting = 0;
  for (std::size_t a = 0; a < centers_.size(); ++a) {
    if (a < excluded.size() && excluded[a] != 0) continue;
    if (evidence_at(a, point, links, norm) >= options_.consensus_floor) {
      ++supporting;
    }
  }
  return supporting;
}

std::vector<LocationEstimate> RssLocalizer::grid_candidates(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  const LikelihoodGrid grid = likelihood_grid(links, excluded);
  std::vector<LocationEstimate> candidates;
  for (std::size_t iy = 0; iy < grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      const double v = grid.at(ix, iy);
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1 && is_max; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const auto jx = static_cast<std::ptrdiff_t>(ix) + dx;
          const auto jy = static_cast<std::ptrdiff_t>(iy) + dy;
          if (jx < 0 || jy < 0 ||
              jx >= static_cast<std::ptrdiff_t>(grid.nx) ||
              jy >= static_cast<std::ptrdiff_t>(grid.ny)) {
            continue;
          }
          if (grid.at(static_cast<std::size_t>(jx),
                      static_cast<std::size_t>(jy)) > v) {
            is_max = false;
          }
        }
      }
      if (!is_max) continue;
      LocationEstimate c;
      c.position = grid.point(ix, iy);
      c.likelihood = v;
      candidates.push_back(c);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            Localizer::candidate_order);
  return candidates;
}

LocationEstimate RssLocalizer::consensus_select(
    std::span<const LocationEstimate> candidates,
    std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
    double norm, std::size_t usable) const {
  const std::size_t min_arrays = std::min(options_.min_arrays, usable);
  LocationEstimate best;
  bool have = false;
  const std::size_t limit =
      std::min(candidates.size(), Localizer::kMaxCandidates);
  for (LocationEstimate c : candidates.first(limit)) {
    c.consensus = consensus_at(c.position, links, excluded, norm);
    if (c.consensus < min_arrays) continue;
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

LocationEstimate RssLocalizer::localize(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  const double norm = global_drop_norm(links, excluded);
  if (norm <= 0.0) return {};
  const std::size_t usable = usable_arrays(links, excluded);
  if (usable == 0) return {};
  return consensus_select(grid_candidates(links, excluded), links, excluded,
                          norm, usable);
}

LocationEstimate RssLocalizer::localize_best_effort(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  const double norm = global_drop_norm(links, excluded);
  if (norm <= 0.0) return {};
  // One grid serves both the consensus fix and the fallback.
  const std::vector<LocationEstimate> candidates =
      grid_candidates(links, excluded);
  const std::size_t usable = usable_arrays(links, excluded);
  if (usable > 0) {
    const LocationEstimate est =
        consensus_select(candidates, links, excluded, norm, usable);
    if (est.valid) return est;
  }
  // An invalid consensus_select() result is a default estimate.
  if (candidates.empty()) return {};
  LocationEstimate est = candidates.front();
  est.consensus = consensus_at(est.position, links, excluded, norm);
  est.valid = false;
  return est;
}

std::vector<LocationEstimate> RssLocalizer::localize_multi(
    std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
    std::size_t max_targets, double min_separation,
    double relative_floor) const {
  std::vector<LocationEstimate> out;
  const double norm = global_drop_norm(links, excluded);
  if (norm <= 0.0 || max_targets == 0) return out;
  const std::size_t usable = usable_arrays(links, excluded);
  if (usable == 0) return out;
  const std::size_t min_arrays = std::min(options_.min_arrays, usable);
  const std::vector<LocationEstimate> candidates =
      grid_candidates(links, excluded);
  if (candidates.empty()) return out;
  const double floor = candidates.front().likelihood * relative_floor;
  for (const LocationEstimate& c : candidates) {
    if (out.size() >= max_targets) break;
    if (c.likelihood < floor) break;  // candidates are sorted descending
    bool clear = true;
    for (const LocationEstimate& kept : out) {
      if (rf::distance(c.position, kept.position) < min_separation) {
        clear = false;
        break;
      }
    }
    if (!clear) continue;
    LocationEstimate e = c;
    e.consensus = consensus_at(e.position, links, excluded, norm);
    // As in the phase path: a candidate short of consensus is skipped
    // and does not take a target slot.
    if (e.consensus < min_arrays) continue;
    e.valid = true;
    out.push_back(e);
  }
  return out;
}

LikelihoodGrid RssLocalizer::likelihood_grid(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  LikelihoodGrid grid;
  grid.origin = bounds_.min;
  grid.step = effective_grid_step();
  grid.nx = static_cast<std::size_t>(
                std::floor((bounds_.max.x - bounds_.min.x) / grid.step)) +
            1;
  grid.ny = static_cast<std::size_t>(
                std::floor((bounds_.max.y - bounds_.min.y) / grid.step)) +
            1;
  grid.values.resize(grid.nx * grid.ny);
  const double norm = global_drop_norm(links, excluded);
  for (std::size_t iy = 0; iy < grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      grid.values[iy * grid.nx + ix] =
          likelihood_at(grid.point(ix, iy), links, excluded, norm);
    }
  }
  return grid;
}

}  // namespace dwatch::core
