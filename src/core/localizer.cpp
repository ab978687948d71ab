#include "core/localizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

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

/// Cells per side of a branch-and-bound block of the grid search (the
/// last block of a row or column may be partial).
constexpr std::size_t kBlockCells = 8;
/// Slack [rad] on a block's bearing interval. acos loses up to ~5e-8 rad
/// next to bearings 0 and pi, so a cell's computed bearing may stray
/// that far outside its block's corner interval; the pad keeps it in.
constexpr double kBearingPad = 1e-6;
/// Relative slack on a block bound, for the rounding of exp and of the
/// product over arrays; also the margin of the per-block kernel lists and
/// of the near-array test.
constexpr double kBoundSlack = 1e-9;
/// Radius [m] around an array's center within which no cell is a
/// candidate (too_close_to_array).
constexpr double kNearArrayM = 0.25;

/// One detected drop reduced to what the evidence kernel reads.
struct Kernel {
  double theta = 0.0;
  double weight = 0.0;  ///< (power drop / norm)^power_exponent
  double inv = 0.0;     ///< 1 / (2 (kernel_sigma * sigma_scale)^2)
};

/// Appends one array's kernels to `out`, heaviest first (the order the
/// exact early exit in max_kernel needs).
void append_kernels(std::vector<Kernel>& out, const AngularEvidence& evidence,
                    double norm, double power_exponent, double inv_2s2) {
  const auto first = static_cast<std::ptrdiff_t>(out.size());
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
  std::stable_sort(out.begin() + first, out.end(),
                   [](const Kernel& x, const Kernel& y) {
                     return x.weight > y.weight ||
                            (!std::isnan(x.weight) && std::isnan(y.weight));
                   });
}

/// Kernel k's value at angular distance d from its bearing. Every caller
/// evaluates this one expression, so a larger d never yields more.
double kernel_at(const Kernel& k, double d) {
  return k.weight * std::exp(-d * d * k.inv);
}

/// Distance from k's bearing to the nearest point of [lo, hi].
double nearest(const Kernel& k, double lo, double hi) {
  return k.theta < lo ? lo - k.theta : (k.theta > hi ? k.theta - hi : 0.0);
}

/// Distance from k's bearing to the farthest point of [lo, hi].
double farthest(const Kernel& k, double lo, double hi) {
  return std::max(k.theta - lo, hi - k.theta);
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
    best = std::max(best, kernel_at(k, theta - k.theta));
  }
  return best;
}

/// prod_i (epsilon + dOmega_i(theta_i(point))) over the arrays whose
/// kernel list is not empty: L(O) without the near-array test.
double kernel_product(std::span<const rf::UniformLinearArray> arrays,
                      std::span<const std::span<const Kernel>> lists,
                      double epsilon, rf::Vec2 point) {
  double l = 1.0;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (lists[i].empty()) continue;
    const double theta = arrays[i].arrival_angle_planar(point);
    l *= epsilon + max_kernel(lists[i], theta);
  }
  return l;
}

}  // namespace

/// Every usable array's kernels in one buffer, array by array, and one
/// view per array into it, indexed like the arrays; the view of an array
/// that is not usable (silent or excluded) is empty. The views point
/// into `kernels`, so the table moves but never copies.
struct Localizer::KernelTable {
  std::vector<Kernel> kernels;
  std::vector<std::span<const Kernel>> arrays;

  KernelTable() = default;
  KernelTable(KernelTable&&) = default;
  KernelTable(const KernelTable&) = delete;
};

Localizer::KernelTable Localizer::kernel_table(
    std::span<const AngularEvidence> evidence) const {
  // Every search indexes the table like the arrays.
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("Localizer: evidence count mismatch");
  }
  const double norm = global_drop_norm(evidence);
  KernelTable table;
  std::size_t total = 0;
  for (const AngularEvidence& e : evidence) {
    if (e.usable()) total += e.drops.size();
  }
  // Reserved up front, so no append moves the views taken before it.
  table.kernels.reserve(total);
  table.arrays.resize(evidence.size());
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    // Silent reader: no information. Excluded reader: flagged unusable
    // (degraded mode) — also contributes nothing.
    if (!evidence[i].usable()) continue;
    const std::size_t first = table.kernels.size();
    append_kernels(table.kernels, evidence[i], norm, options_.power_exponent,
                   inv_2s2_);
    table.arrays[i] = std::span<const Kernel>(table.kernels).subspan(first);
  }
  return table;
}

double Localizer::evidence_at(const AngularEvidence& evidence, double theta,
                              double norm) const {
  std::vector<Kernel> kernels;
  kernels.reserve(evidence.drops.size());
  append_kernels(kernels, evidence, norm, options_.power_exponent, inv_2s2_);
  return max_kernel(kernels, theta);
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
    if (rf::distance(point, a.center().xy()) < kNearArrayM) return true;
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
  return kernel_product(arrays_, table.arrays, options_.epsilon, point);
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
                                            : grid_search(table);
  // Both producers promise candidate_order() — consensus_select would
  // mask a violation by re-sorting, so check the contract here.
  assert(std::is_sorted(found.begin(), found.end(), candidate_order));
  return found;
}

std::vector<LocationEstimate> Localizer::grid_candidates(
    std::span<const AngularEvidence> evidence) const {
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("grid_candidates: evidence count mismatch");
  }
  return grid_search(kernel_table(evidence));
}

std::vector<LocationEstimate> Localizer::grid_search(
    const KernelTable& table, std::optional<double> relative_floor) const {
  DWATCH_SPAN("localize.grid");
  const LikelihoodGrid grid = grid_shape();
  const std::size_t nx = grid.nx;
  const std::size_t ny = grid.ny;
  const std::size_t bnx = (nx + kBlockCells - 1) / kBlockCells;
  const std::size_t bny = (ny + kBlockCells - 1) / kBlockCells;
  const auto block_of = [&](std::size_t ix, std::size_t iy) {
    return iy / kBlockCells * bnx + ix / kBlockCells;
  };

  // The corner lattice: block (bx, by) is bounded over the rectangle of
  // lattice points (bx, by) to (bx + 1, by + 1), clamped onto the last
  // cell, so the four blocks around a point share it. The rectangle holds
  // every cell of its block; it is one cell wider on a high side that
  // has a next block.
  const std::size_t lnx = bnx + 1;
  const std::size_t lny = bny + 1;
  const auto lattice_point = [&](std::size_t kx, std::size_t ky) {
    return grid.point(std::min(kx * kBlockCells, nx - 1),
                      std::min(ky * kBlockCells, ny - 1));
  };
  const auto lattice_slot = [&](std::size_t i, std::size_t kx,
                                std::size_t ky) {
    return (i * lny + ky) * lnx + kx;
  };
  // Each array's bearing of each lattice point, once per search. There is
  // none from the array's own center; bearing_interval never reads it.
  std::vector<double> bearings(arrays_.size() * lnx * lny);
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (table.arrays[i].empty()) continue;
    for (std::size_t ky = 0; ky < lny; ++ky) {
      for (std::size_t kx = 0; kx < lnx; ++kx) {
        const rf::Vec2 p = lattice_point(kx, ky);
        if (p == arrays_[i].center().xy()) continue;
        bearings[lattice_slot(i, kx, ky)] = arrays_[i].arrival_angle_planar(p);
      }
    }
  }
  // The padded bearing interval [lo, hi] within which array i sees every
  // cell of block (bx, by).
  const auto bearing_interval = [&](std::size_t i, std::size_t bx,
                                    std::size_t by) {
    const rf::UniformLinearArray& array = arrays_[i];
    const rf::Vec2 axis = array.axis();
    // Off the array's axis line, a convex rectangle sees the array within
    // the bearing interval its corners span.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double lo = kInf;
    double hi = -kInf;
    double side_min = kInf;
    double side_max = -kInf;
    double along_min = kInf;
    double along_max = -kInf;
    bool undefined = false;
    for (std::size_t ky = by; ky <= by + 1; ++ky) {
      for (std::size_t kx = bx; kx <= bx + 1; ++kx) {
        const rf::Vec2 r = lattice_point(kx, ky) - array.center().xy();
        // No bearing from the array's own center (and no cell there is a
        // candidate: too_close_to_array).
        if (r.x == 0.0 && r.y == 0.0) {
          undefined = true;
          continue;
        }
        const double theta = bearings[lattice_slot(i, kx, ky)];
        lo = std::min(lo, theta);
        hi = std::max(hi, theta);
        side_min = std::min(side_min, axis.cross(r));
        side_max = std::max(side_max, axis.cross(r));
        along_min = std::min(along_min, axis.dot(r));
        along_max = std::max(along_max, axis.dot(r));
      }
    }
    // Where the rectangle touches the axis line, it reaches bearing 0 (the
    // -axis ray) or pi (the +axis ray); a rectangle around the array, or
    // with a corner on it, reaches both.
    if (undefined) {
      lo = 0.0;
      hi = rf::kPi;
    } else if (side_min <= 0.0 && side_max >= 0.0) {
      if (along_min <= 0.0) lo = 0.0;
      if (along_max >= 0.0) hi = rf::kPi;
    }
    return std::pair{std::max(0.0, lo - kBearingPad),
                     std::min(rf::kPi, hi + kBearingPad)};
  };

  // Every block's bound (an upper bound on likelihood_at() over its
  // cells), then the blocks best-first (ties in scan order).
  struct Block {
    double bound = 0.0;
    bool evaluated = false;
  };
  std::vector<Block> blocks(bnx * bny);
  for (std::size_t by = 0; by < bny; ++by) {
    for (std::size_t bx = 0; bx < bnx; ++bx) {
      double bound = 1.0;
      for (std::size_t i = 0; i < arrays_.size(); ++i) {
        if (table.arrays[i].empty()) continue;
        const auto [lo, hi] = bearing_interval(i, bx, by);
        double best = 0.0;
        for (const Kernel& k : table.arrays[i]) {
          if (k.weight <= best) break;  // the exact early exit of max_kernel
          best = std::max(best, kernel_at(k, nearest(k, lo, hi)));
        }
        bound *= options_.epsilon + best;
      }
      blocks[by * bnx + bx].bound = bound * (1.0 + kBoundSlack);
    }
  }
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return blocks[a].bound > blocks[b].bound ||
           (blocks[a].bound == blocks[b].bound && a < b);
  });

  // The kernel lists of the block being evaluated, per array: a view of
  // `pruned` at the array's own offset in the table. An array with fewer
  // than two kernels keeps the table's view.
  std::vector<std::span<const Kernel>> lists = table.arrays;
  std::vector<Kernel> pruned(table.kernels.size());
  const auto prune = [&](std::size_t i, std::size_t bx, std::size_t by) {
    const std::span<const Kernel> all = table.arrays[i];
    if (all.size() < 2) return;
    const auto [lo, hi] = bearing_interval(i, bx, by);
    // Some kernel reaches at least `floor` at every cell of the block:
    // its value at its farthest distance to the interval.
    double floor = 0.0;
    for (const Kernel& k : all) {
      if (k.weight <= floor) break;
      floor = std::max(floor, kernel_at(k, farthest(k, lo, hi)));
    }
    // A kernel whose value at its nearest distance is below the floor
    // loses to that kernel at every cell, so max_kernel returns the same
    // double without it. The floor's own kernel always stays.
    const double cut = floor * (1.0 - kBoundSlack);
    Kernel* const first = pruned.data() + (all.data() - table.kernels.data());
    Kernel* last = first;
    for (const Kernel& k : all) {
      // Weight order: once the weight itself loses, every later kernel
      // does too.
      if (k.weight * (1.0 + kBoundSlack) < cut) break;
      if (kernel_at(k, nearest(k, lo, hi)) * (1.0 + kBoundSlack) < cut) {
        continue;
      }
      *last++ = k;
    }
    lists[i] = {first, last};
  };
  // Whether some array's center lies within the near radius (plus slack)
  // of the cell rectangle [low, high]. Only then can a cell of it fail
  // too_close_to_array.
  const auto near_an_array = [&](rf::Vec2 low, rf::Vec2 high) {
    for (const auto& a : arrays_) {
      const rf::Vec2 c = a.center().xy();
      const double dx = std::max({low.x - c.x, 0.0, c.x - high.x});
      const double dy = std::max({low.y - c.y, 0.0, c.y - high.y});
      if (std::sqrt(dx * dx + dy * dy) <= kNearArrayM * (1.0 + kBoundSlack)) {
        return true;
      }
    }
    return false;
  };

  // The threshold T: the kMaxCandidates-th best confirmed local maximum,
  // or relative_floor times the best one. It only rises.
  double threshold = -std::numeric_limits<double>::infinity();
  double best = threshold;
  std::priority_queue<double, std::vector<double>, std::greater<>> top;
  const auto confirm = [&](double v) {
    if (relative_floor) {
      best = std::max(best, v);
      threshold = *relative_floor * best;
      return;
    }
    top.push(v);
    if (top.size() > kMaxCandidates) top.pop();
    if (top.size() == kMaxCandidates) threshold = top.top();
  };

  // Cell state: kDead covers cells not yet evaluated and cells with a
  // strictly higher evaluated neighbour. A kOpen cell has none (yet); a
  // kConfirmed one is a proven local maximum.
  enum : std::uint8_t { kDead, kOpen, kConfirmed };
  std::vector<double> values(nx * ny);
  std::vector<std::uint8_t> state(nx * ny, kDead);
  std::vector<std::size_t> open;  // cells kOpen when their block ran
  // Re-examines an open cell against its neighbours: one evaluated above
  // it kills it; it is confirmed once every unevaluated neighbour lies
  // in a block whose bound does not exceed its value.
  const auto settle = [&](std::size_t ix, std::size_t iy) {
    const std::size_t cell = iy * nx + ix;
    if (state[cell] != kOpen) return;
    const double v = values[cell];
    bool sure = true;
    for (std::size_t jy = iy == 0 ? 0 : iy - 1; jy <= std::min(iy + 1, ny - 1);
         ++jy) {
      for (std::size_t jx = ix == 0 ? 0 : ix - 1;
           jx <= std::min(ix + 1, nx - 1); ++jx) {
        const std::size_t b = block_of(jx, jy);
        if (!blocks[b].evaluated) {
          sure = sure && blocks[b].bound <= v;
        } else if (values[jy * nx + jx] > v) {
          state[cell] = kDead;
          return;
        }
      }
    }
    if (sure) {
      state[cell] = kConfirmed;
      confirm(v);
    }
  };

  for (const std::size_t b : order) {
    // Every block from here on is bounded below T: none of its cells can
    // be a local maximum at or above T, nor outrank a neighbour that is.
    if (blocks[b].bound < threshold) break;
    const std::size_t bx = b % bnx;
    const std::size_t by = b / bnx;
    const std::size_t x0 = bx * kBlockCells;
    const std::size_t y0 = by * kBlockCells;
    const std::size_t x1 = std::min(nx, x0 + kBlockCells);
    const std::size_t y1 = std::min(ny, y0 + kBlockCells);
    for (std::size_t i = 0; i < arrays_.size(); ++i) prune(i, bx, by);
    const bool near = near_an_array(grid.point(x0, y0),
                                    grid.point(x1 - 1, y1 - 1));
    // likelihood_at() of each cell, on the block's kernel lists.
    for (std::size_t iy = y0; iy < y1; ++iy) {
      for (std::size_t ix = x0; ix < x1; ++ix) {
        const rf::Vec2 p = grid.point(ix, iy);
        values[iy * nx + ix] =
            near && too_close_to_array(p)
                ? 0.0
                : kernel_product(arrays_, lists, options_.epsilon, p);
      }
    }
    blocks[b].evaluated = true;
    for (std::size_t iy = y0; iy < y1; ++iy) {
      for (std::size_t ix = x0; ix < x1; ++ix) {
        const std::size_t cell = iy * nx + ix;
        state[cell] = kOpen;
        settle(ix, iy);
        if (state[cell] != kDead) open.push_back(cell);
      }
    }
    // The ring of already evaluated cells around the block now has every
    // neighbour it will get from this block.
    for (std::size_t iy = y0 == 0 ? 0 : y0 - 1; iy <= std::min(y1, ny - 1);
         ++iy) {
      for (std::size_t ix = x0 == 0 ? 0 : x0 - 1; ix <= std::min(x1, nx - 1);
           ++ix) {
        if (iy < y0 || iy >= y1 || ix < x0 || ix >= x1) settle(ix, iy);
      }
    }
  }

  // An open cell at or above T is a local maximum: its unevaluated
  // neighbours are all bounded below T.
  std::vector<LocationEstimate> found;
  for (const std::size_t cell : open) {
    if (state[cell] == kDead || values[cell] < threshold) continue;
    found.push_back(LocationEstimate{grid.point(cell % nx, cell / nx),
                                     values[cell], 0, false});
  }
  std::sort(found.begin(), found.end(), candidate_order);
  return found;
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
  std::vector<LocationEstimate> candidates =
      grid_search(table, relative_floor);
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

LikelihoodGrid Localizer::grid_shape() const {
  LikelihoodGrid grid;
  grid.origin = bounds_.min;
  grid.step = effective_grid_step();
  grid.nx = static_cast<std::size_t>(
                std::floor((bounds_.max.x - bounds_.min.x) / grid.step)) +
            1;
  grid.ny = static_cast<std::size_t>(
                std::floor((bounds_.max.y - bounds_.min.y) / grid.step)) +
            1;
  return grid;
}

LikelihoodGrid Localizer::likelihood_grid(const KernelTable& table) const {
  DWATCH_SPAN("localize.grid");
  LikelihoodGrid grid = grid_shape();
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
