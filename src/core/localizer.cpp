#include "core/localizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace dwatch::core {

bool Localizer::candidate_order(const LocationEstimate& a,
                                const LocationEstimate& b) noexcept {
  if (a.likelihood != b.likelihood) return a.likelihood > b.likelihood;
  if (a.position.y != b.position.y) return a.position.y < b.position.y;
  return a.position.x < b.position.x;
}

LocationEstimate Localizer::select_max_likelihood(
    std::span<const LocationEstimate> candidates) noexcept {
  LocationEstimate best{};
  bool have = false;
  for (const LocationEstimate& c : candidates) {
    if (!have || candidate_order(c, best)) {
      best = c;
      have = true;
    }
  }
  return best;
}

Localizer::Localizer(std::vector<rf::UniformLinearArray> arrays,
                     SearchBounds bounds, LocalizerOptions options)
    : arrays_(std::move(arrays)), bounds_(bounds), options_(options) {
  if (arrays_.empty()) {
    throw std::invalid_argument("Localizer: no arrays");
  }
  if (!(bounds_.min.x < bounds_.max.x && bounds_.min.y < bounds_.max.y)) {
    throw std::invalid_argument("Localizer: degenerate bounds");
  }
  if (options_.grid_step <= 0.0 || options_.kernel_sigma <= 0.0) {
    throw std::invalid_argument("Localizer: bad step/sigma");
  }
  inv_2s2_ = 1.0 / (2.0 * options_.kernel_sigma * options_.kernel_sigma);
}

double Localizer::effective_grid_step() const noexcept {
  // Stride 1 returns the configured step VERBATIM (no arithmetic) so
  // the un-browned path is bit-identical by construction.
  if (grid_stride_ == 1) return options_.grid_step;
  return options_.grid_step * static_cast<double>(grid_stride_);
}

double Localizer::global_drop_norm(
    std::span<const AngularEvidence> evidence) {
  double norm = 0.0;
  for (const auto& e : evidence) {
    // An excluded array contributes nothing anywhere — including to the
    // normalizer. A poisoned-but-excluded drop must not rescale the
    // healthy arrays' weights.
    if (e.excluded) continue;
    for (const PathDrop& d : e.drops) {
      norm = std::max(norm, d.baseline_power - d.online_power);
    }
  }
  return norm;
}

namespace {

/// One detected drop reduced to what the evidence kernel reads.
struct Kernel {
  double theta = 0.0;
  double weight = 0.0;  ///< (power drop / norm)^power_exponent
  double inv = 0.0;     ///< 1 / (2 (kernel_sigma * sigma_scale)^2)
};

/// One array's kernels, heaviest first (the order the exact early exit
/// in max_kernel needs).
std::vector<Kernel> kernels(const AngularEvidence& evidence, double norm,
                            double power_exponent, double inv_2s2) {
  std::vector<Kernel> out;
  out.reserve(evidence.drops.size());
  for (const PathDrop& d : evidence.drops) {
    const double power_drop =
        std::max(d.baseline_power - d.online_power, 0.0);
    // No drop anywhere (norm 0) means no evidence anywhere.
    const double weight =
        norm > 0.0 ? std::pow(power_drop / norm, power_exponent) : 0.0;
    // sigma_scale > 1 widens the kernel of a low-confidence drop
    // (degraded snapshot count); the division by 1.0 on the clean path
    // is exact, so healthy runs are bit-identical.
    out.push_back(
        {d.theta, weight, inv_2s2 / (d.sigma_scale * d.sigma_scale)});
  }
  // A NaN weight (never a maximum) sorts last so the order stays a
  // strict weak ordering.
  std::stable_sort(out.begin(), out.end(),
                   [](const Kernel& x, const Kernel& y) {
                     return x.weight > y.weight ||
                            (!std::isnan(x.weight) && std::isnan(y.weight));
                   });
  return out;
}

/// dOmega_i(theta): MAX-combine of one array's kernels.
double max_kernel(std::span<const Kernel> kernels, double theta) {
  // MAX-combine across drops: several drops at one bearing are usually
  // one physical blockage seen through several tags' spectra (or one
  // reflector's ghost), so they must not pile up additively — otherwise
  // a cluster of weak reflection-path ghosts outvotes one honest
  // direct-path drop.
  double best = 0.0;
  for (const Kernel& k : kernels) {
    // Exact early exit: the Gaussian factor is at most 1 and the
    // weights only fall from here, so no later drop can raise the max.
    if (k.weight <= best) break;
    const double delta = theta - k.theta;
    best = std::max(best, k.weight * std::exp(-delta * delta * k.inv));
  }
  return best;
}

}  // namespace

/// Indexed like the arrays; the entry of an array that is not usable
/// (silent or excluded) is empty.
struct Localizer::KernelTable {
  std::vector<std::vector<Kernel>> arrays;
};

Localizer::KernelTable Localizer::kernel_table(
    std::span<const AngularEvidence> evidence) const {
  const double norm = global_drop_norm(evidence);
  KernelTable table{std::vector<std::vector<Kernel>>(evidence.size())};
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    // Silent reader: no information. Excluded reader: flagged unusable
    // (degraded mode) — also contributes nothing.
    if (evidence[i].usable()) {
      table.arrays[i] =
          kernels(evidence[i], norm, options_.power_exponent, inv_2s2_);
    }
  }
  return table;
}

double Localizer::evidence_at(const AngularEvidence& evidence, double theta,
                              double norm) const {
  return max_kernel(kernels(evidence, norm, options_.power_exponent, inv_2s2_),
                    theta);
}

std::size_t Localizer::arrays_with_evidence(
    std::span<const AngularEvidence> evidence) const {
  std::size_t n = 0;
  for (const auto& e : evidence) {
    if (e.usable()) ++n;
  }
  return n;
}

std::size_t Localizer::effective_min_arrays(
    std::span<const AngularEvidence> evidence) const {
  // K-of-N degraded mode: excluded arrays shrink the consensus
  // requirement down to the surviving array count (never below 1), so a
  // deployment that loses a reader keeps producing fixes. With no
  // exclusions this is exactly options_.min_arrays — the clean path is
  // untouched.
  std::size_t excluded = 0;
  for (const auto& e : evidence) {
    if (e.excluded) ++excluded;
  }
  if (excluded == 0) return options_.min_arrays;
  const std::size_t active = evidence.size() - excluded;
  return std::min(options_.min_arrays, std::max<std::size_t>(1, active));
}

bool Localizer::too_close_to_array(rf::Vec2 point) const {
  // A candidate sitting (nearly) on an array is geometrically degenerate
  // (its bearing is undefined, every evidence kernel matches something)
  // and physically impossible for a target.
  for (const auto& a : arrays_) {
    if (rf::distance(point, a.center().xy()) < 0.25) return true;
  }
  return false;
}

double Localizer::likelihood_at(
    rf::Vec2 point, std::span<const AngularEvidence> evidence) const {
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("likelihood_at: evidence count mismatch");
  }
  return likelihood_at(point, kernel_table(evidence));
}

double Localizer::likelihood_at(rf::Vec2 point,
                                const KernelTable& table) const {
  if (too_close_to_array(point)) return 0.0;
  double l = 1.0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (table.arrays[i].empty()) continue;
    const double theta = arrays_[i].arrival_angle_planar(point);
    l *= options_.epsilon + max_kernel(table.arrays[i], theta);
  }
  return l;
}

std::size_t Localizer::consensus_at(rf::Vec2 point,
                                    const KernelTable& table) const {
  // Consensus is about ANGULAR agreement, not power: an array supports a
  // candidate iff one of its drops points at it (kernel proximity),
  // whatever that drop's strength. Power weighting then ranks candidates
  // WITHIN a consensus level via the likelihood.
  if (too_close_to_array(point)) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (table.arrays[i].empty()) continue;
    const double theta = arrays_[i].arrival_angle_planar(point);
    double best = 0.0;
    for (const Kernel& k : table.arrays[i]) {
      if (best >= options_.consensus_floor) break;  // the count is settled
      const double delta = theta - k.theta;
      best = std::max(best, std::exp(-delta * delta * k.inv));
    }
    if (best >= options_.consensus_floor) ++n;
  }
  return n;
}

std::vector<LocationEstimate> Localizer::candidates(
    const KernelTable& table) const {
  std::vector<LocationEstimate> found = options_.hill_climbing
                                            ? hill_climb_candidates(table)
                                            : grid_candidates(table);
  // Both producers promise candidate_order() — consensus_select would
  // mask a violation by re-sorting, so check the contract here.
  assert(std::is_sorted(found.begin(), found.end(), candidate_order));
  return found;
}

std::vector<LocationEstimate> Localizer::grid_candidates(
    const KernelTable& table) const {
  const LikelihoodGrid grid = likelihood_grid(table);
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
      if (is_max) {
        candidates.push_back(
            LocationEstimate{grid.point(ix, iy), v, 0, false});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(), candidate_order);
  return candidates;
}

std::vector<LocationEstimate> Localizer::hill_climb_candidates(
    const KernelTable& table) const {
  DWATCH_SPAN("localize.hill_climb");
  // Multi-start: coarse seed lattice, then 8-neighbour ascent on the
  // fine grid (the paper's hill climbing). Produces one candidate per
  // distinct basin reached.
  const double step = effective_grid_step();
  const std::size_t starts =
      std::max<std::size_t>(options_.hill_climb_starts, 4);
  const auto per_side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(starts))));

  std::vector<LocationEstimate> candidates;
  for (std::size_t sy = 0; sy < per_side; ++sy) {
    for (std::size_t sx = 0; sx < per_side; ++sx) {
      rf::Vec2 p{
          bounds_.min.x + (bounds_.max.x - bounds_.min.x) *
                              (static_cast<double>(sx) + 0.5) /
                              static_cast<double>(per_side),
          bounds_.min.y + (bounds_.max.y - bounds_.min.y) *
                              (static_cast<double>(sy) + 0.5) /
                              static_cast<double>(per_side)};
      double l = likelihood_at(p, table);
      bool moved = true;
      while (moved) {
        moved = false;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            const rf::Vec2 q{p.x + dx * step, p.y + dy * step};
            if (!bounds_.contains(q)) continue;
            const double lq = likelihood_at(q, table);
            if (lq > l) {
              l = lq;
              p = q;
              moved = true;
            }
          }
        }
      }
      const bool dup = std::any_of(
          candidates.begin(), candidates.end(),
          [&](const LocationEstimate& c) {
            return rf::distance(c.position, p) < step * 1.5;
          });
      if (!dup) candidates.push_back(LocationEstimate{p, l, 0, false});
    }
  }
  std::sort(candidates.begin(), candidates.end(), candidate_order);
  return candidates;
}

LocationEstimate Localizer::consensus_select(
    std::vector<LocationEstimate> candidates,
    std::span<const AngularEvidence> evidence,
    std::size_t min_arrays) const {
  return consensus_select(std::move(candidates), kernel_table(evidence),
                          min_arrays);
}

LocationEstimate Localizer::consensus_select(
    std::vector<LocationEstimate> candidates, const KernelTable& table,
    std::size_t min_arrays) const {
  // Rank by the total order BEFORE the cap: which 24 get scored must
  // not depend on the order restarts (or a caller) produced them in.
  std::sort(candidates.begin(), candidates.end(), candidate_order);
  LocationEstimate best{};
  const std::size_t limit = std::min(candidates.size(), kMaxCandidates);
  for (std::size_t i = 0; i < limit; ++i) {
    LocationEstimate c = candidates[i];
    c.consensus = consensus_at(c.position, table);
    // Scanning in candidate_order means the first candidate at any
    // consensus level is already the best-ranked one — a strict
    // consensus improvement is the only reason to switch.
    if (c.consensus > best.consensus ||
        (c.consensus == best.consensus && c.likelihood > best.likelihood)) {
      best = c;
    }
  }
  best.valid = best.consensus >= min_arrays;
  return best;
}

LocationEstimate Localizer::localize(
    std::span<const AngularEvidence> evidence) const {
  DWATCH_SPAN("localize.fix");
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("localize: evidence count mismatch");
  }
  const std::size_t min_arrays = effective_min_arrays(evidence);
  if (arrays_with_evidence(evidence) < min_arrays) {
    return LocationEstimate{};  // not covered
  }
  const KernelTable table = kernel_table(evidence);
  // Consensus selection (outlier rejection): among the likelihood peaks,
  // prefer the one the most arrays genuinely point at; candidates backed
  // by fewer than min_arrays arrays are not a valid fix at all.
  return consensus_select(candidates(table), table, min_arrays);
}

LocationEstimate Localizer::localize_best_effort(
    std::span<const AngularEvidence> evidence) const {
  DWATCH_SPAN("localize.fix");
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("localize: evidence count mismatch");
  }
  const std::size_t min_arrays = effective_min_arrays(evidence);
  const std::size_t usable = arrays_with_evidence(evidence);
  if (usable == 0 && min_arrays > 0) return {};  // nothing to go on
  // One search serves both the consensus fix and the fallback.
  const KernelTable table = kernel_table(evidence);
  const std::vector<LocationEstimate> found = candidates(table);
  LocationEstimate est{};
  if (usable >= min_arrays) {
    est = consensus_select(found, table, min_arrays);
    if (est.valid || est.likelihood > 0.0) return est;
  }
  // No consensus candidate: fall back to the raw likelihood maximum of
  // the SAME search mode the localizer is configured for (a
  // hill-climbing deployment must not silently answer from an
  // exhaustive grid), selected by an explicit max scan rather than
  // trusting the list head.
  const LocationEstimate top = select_max_likelihood(found);
  if (top.likelihood > 0.0) {
    LocationEstimate best = top;
    best.consensus = consensus_at(best.position, table);
    best.valid = false;
    return best;
  }
  return est;
}

std::vector<LocationEstimate> Localizer::localize_multi(
    std::span<const AngularEvidence> evidence, std::size_t max_targets,
    double min_separation, double relative_floor) const {
  std::vector<LocationEstimate> out;
  const std::size_t min_arrays = effective_min_arrays(evidence);
  if (max_targets == 0 || arrays_with_evidence(evidence) < min_arrays) {
    return out;
  }
  const KernelTable table = kernel_table(evidence);
  std::vector<LocationEstimate> candidates = grid_candidates(table);
  if (candidates.empty()) return out;

  const double floor = candidates.front().likelihood * relative_floor;
  for (LocationEstimate& c : candidates) {
    if (c.likelihood < floor) break;
    const bool clash =
        std::any_of(out.begin(), out.end(), [&](const LocationEstimate& e) {
          return rf::distance(e.position, c.position) < min_separation;
        });
    if (clash) continue;
    c.consensus = consensus_at(c.position, table);
    if (c.consensus < min_arrays) continue;
    c.valid = true;
    out.push_back(c);
    if (out.size() >= max_targets) break;
  }
  return out;
}

LikelihoodGrid Localizer::likelihood_grid(
    std::span<const AngularEvidence> evidence) const {
  return likelihood_grid(kernel_table(evidence));
}

LikelihoodGrid Localizer::likelihood_grid(const KernelTable& table) const {
  DWATCH_SPAN("localize.grid");
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
  // Each row writes only its own disjoint slice of grid.values and reads
  // the kernel table read-only, so the parallel and serial paths produce
  // bit-identical grids.
  const auto fill_row = [&](std::size_t iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      grid.values[iy * grid.nx + ix] = likelihood_at(grid.point(ix, iy), table);
    }
  };
  if (pool_ && pool_->num_workers() > 1) {
    pool_->parallel_for(grid.ny, fill_row);
  } else {
    for (std::size_t iy = 0; iy < grid.ny; ++iy) fill_row(iy);
  }
  return grid;
}

}  // namespace dwatch::core
