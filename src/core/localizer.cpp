#include "core/localizer.hpp"

#include <algorithm>
#include <array>
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

namespace detail {

/// One detected drop on the phase path: a Gaussian in the bearing an
/// array sees a point at.
struct BearingKernel {
  double theta = 0.0;
  double weight = 0.0;  ///< (power drop / norm)^power_exponent
  double inv = 0.0;     ///< 1 / (2 (kernel_sigma * sigma_scale)^2)

  /// What the kernels of `array` measure a point's distance from.
  static double probe(const rf::UniformLinearArray& array, rf::Vec2 p) {
    return array.arrival_angle_planar(p);
  }
  [[nodiscard]] double distance(double bearing) const {
    return bearing - theta;
  }
  /// Consensus is ANGULAR agreement: an array supports a point iff one
  /// of its drops points at it, whatever that drop's strength.
  [[nodiscard]] double support(double d) const {
    return std::exp(-d * d * inv);
  }
};

/// One attenuated link on the RSS path: a Gaussian in a point's distance
/// to the segment from the array's center to the tag.
struct SegmentKernel {
  rf::Vec2 a;  ///< the array's center
  rf::Vec2 b;  ///< the tag
  double weight = 0.0;  ///< (drop fraction / norm)^power_exponent
  double inv = 0.0;     ///< 1 / (2 kRssLateralSigmaM^2)

  static rf::Vec2 probe(const rf::UniformLinearArray&, rf::Vec2 p) {
    return p;
  }
  [[nodiscard]] double distance(rf::Vec2 p) const {
    return rf::point_segment_distance(p, a, b);
  }
  /// RSS consensus is weighted: the kernel's evidence value itself.
  [[nodiscard]] double support(double d) const {
    return weight * std::exp(-d * d * inv);
  }
};

}  // namespace detail

namespace {

using detail::BearingKernel;
using detail::SegmentKernel;

/// Cells per side of a branch-and-bound block of the grid search (the
/// last block of a row or column may be partial).
constexpr std::size_t kBlockCells = 8;
/// Slack [rad] on a block's bearing interval. acos loses up to ~5e-8 rad
/// next to bearings 0 and pi, so a cell's computed bearing may stray
/// that far outside its block's corner interval; the pad keeps it in.
constexpr double kBearingPad = 1e-6;
/// Slack [m] on a block's segment distances. point_segment_distance
/// rounds by a few ulp of the coordinates (below 1e-12 m in any room
/// under a kilometre across), so a cell's computed distance may stray
/// that far outside its block's [nearest, farthest]; the pad keeps it in.
constexpr double kSegmentPad = 1e-9;
/// Relative slack on a block bound, for the rounding of exp and of the
/// product over arrays; also the margin of the per-block kernel lists and
/// of the near-array test.
constexpr double kBoundSlack = 1e-9;
/// Radius [m] around an array's center within which no cell is a
/// candidate on the phase path (too_close_to_array).
constexpr double kNearArrayM = 0.25;

/// Sorts one array's kernels [first, end) heaviest first (the order the
/// exact early exit in max_kernel needs).
template <class Kernel>
void sort_by_weight(std::vector<Kernel>& kernels, std::size_t first) {
  // A NaN weight (never a maximum) sorts last so the order stays a
  // strict weak ordering.
  std::stable_sort(kernels.begin() + static_cast<std::ptrdiff_t>(first),
                   kernels.end(), [](const Kernel& x, const Kernel& y) {
                     return x.weight > y.weight ||
                            (!std::isnan(x.weight) && std::isnan(y.weight));
                   });
}

/// Appends one array's bearing kernels to `out`, heaviest first.
void append_kernels(std::vector<BearingKernel>& out,
                    const AngularEvidence& evidence, double norm,
                    double power_exponent, double inv_2s2) {
  const std::size_t first = out.size();
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
  sort_by_weight(out, first);
}

/// Kernel k's value at distance d from it. Every caller evaluates this
/// one expression, so a larger |d| never yields more.
template <class Kernel>
double kernel_at(const Kernel& k, double d) {
  return k.weight * std::exp(-d * d * k.inv);
}

/// MAX-combine of one array's kernels at `probe` (a bearing or a point).
template <class Kernel, class Probe>
double max_kernel(std::span<const Kernel> kernels, Probe probe) {
  // MAX-combine across drops: several drops at one bearing are usually
  // one physical blockage seen through several tags' spectra (or one
  // reflector's ghost), so they must not pile up additively — otherwise
  // a cluster of weak reflection-path ghosts outvotes one honest
  // direct-path drop. Several shadowed links of one array likewise.
  double best = 0.0;
  for (const Kernel& k : kernels) {
    // Exact early exit: the Gaussian factor is at most 1 and the
    // weights only fall from here, so no later kernel can raise the max.
    if (k.weight <= best) break;
    best = std::max(best, kernel_at(k, k.distance(probe)));
  }
  return best;
}

/// prod_i (epsilon + max_kernel_i(point)) over the arrays whose kernel
/// list is not empty: L(O) without the near-array test. The grid search's
/// cell loop runs on it, so it is inlined into every caller.
template <class Kernel>
[[gnu::always_inline]] inline double kernel_product(
    std::span<const rf::UniformLinearArray> arrays,
    std::span<const std::span<const Kernel>> lists, double epsilon,
    rf::Vec2 point) {
  double l = 1.0;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (lists[i].empty()) continue;
    l *= epsilon + max_kernel(lists[i], Kernel::probe(arrays[i], point));
  }
  return l;
}

/// Distance from p to the nearest point of the rectangle [low, high].
double rect_distance(rf::Vec2 p, rf::Vec2 low, rf::Vec2 high) {
  const double dx = std::max({low.x - p.x, 0.0, p.x - high.x});
  const double dy = std::max({low.y - p.y, 0.0, p.y - high.y});
  return std::sqrt(dx * dx + dy * dy);
}

/// The corner lattice of a grid's blocks: lattice point (kx, ky) is grid
/// cell (min(8 kx, nx - 1), min(8 ky, ny - 1)), so block (bx, by) spans
/// points (bx, by) to (bx + 1, by + 1) and the four blocks around a point
/// share it. That rectangle holds every cell of its block; it is one cell
/// wider on a high side that has a next block.
struct Lattice {
  const LikelihoodGrid& grid;
  std::size_t nx;
  std::size_t ny;

  [[nodiscard]] rf::Vec2 point(std::size_t kx, std::size_t ky) const {
    return grid.point(std::min(kx * kBlockCells, grid.nx - 1),
                      std::min(ky * kBlockCells, grid.ny - 1));
  }
};

/// The padded bearing interval [lo, hi] in which an array sees every cell
/// of a block.
struct BearingInterval {
  double lo;
  double hi;
};

/// Distance from k's bearing to the nearest point of the interval.
double nearest(const BearingKernel& k, BearingInterval r) {
  return k.theta < r.lo ? r.lo - k.theta
                        : (k.theta > r.hi ? k.theta - r.hi : 0.0);
}

/// Distance from k's bearing to the farthest point of the interval.
double farthest(const BearingKernel& k, BearingInterval r) {
  return std::max(k.theta - r.lo, r.hi - k.theta);
}

/// A block's lattice rectangle, the same for every array.
struct CellRect {
  rf::Vec2 lo;
  rf::Vec2 hi;

  [[nodiscard]] std::array<rf::Vec2, 4> corners() const {
    return {lo, rf::Vec2{hi.x, lo.y}, rf::Vec2{lo.x, hi.y}, hi};
  }
};

/// A lower bound on every cell's distance to k's segment: the segment's
/// distance to the rectangle (0 where they meet), less the pad.
double nearest(const SegmentKernel& k, CellRect r) {
  // Separating axes of a segment and an axis-aligned rectangle: x, y and
  // the segment's normal. A corner's cross product is |ab| times its
  // signed distance to the segment's line; a corner within the pad of
  // that line does not count as separated, so no rounded sign can hide
  // an intersection.
  const bool apart =
      std::max(k.a.x, k.b.x) < r.lo.x || std::min(k.a.x, k.b.x) > r.hi.x ||
      std::max(k.a.y, k.b.y) < r.lo.y || std::min(k.a.y, k.b.y) > r.hi.y;
  const auto corners = r.corners();
  if (!apart) {
    const rf::Vec2 ab = k.b - k.a;
    const double tol = kSegmentPad * ab.norm();
    int above = 0;
    int below = 0;
    for (const rf::Vec2& c : corners) {
      const double side = ab.cross(c - k.a);
      above += side > tol ? 1 : 0;
      below += side < -tol ? 1 : 0;
    }
    if (above < 4 && below < 4) return 0.0;  // they meet
  }
  // Two disjoint convex sets are nearest at a vertex of one of them.
  double d = std::min(rect_distance(k.a, r.lo, r.hi),
                      rect_distance(k.b, r.lo, r.hi));
  for (const rf::Vec2& c : corners) {
    d = std::min(d, rf::point_segment_distance(c, k.a, k.b));
  }
  return std::max(0.0, d - kSegmentPad);
}

/// An upper bound on every cell's distance to k's segment. Distance to a
/// segment (a convex set) is convex, so over a rectangle it peaks at a
/// corner.
double farthest(const SegmentKernel& k, CellRect r) {
  double d = 0.0;
  for (const rf::Vec2& c : r.corners()) {
    d = std::max(d, rf::point_segment_distance(c, k.a, k.b));
  }
  return d + kSegmentPad;
}

/// The region of a block that array i's kernels are bounded over, per
/// kernel kind: `regions(i, bx, by)`.
template <class Kernel>
class BlockRegions;

template <>
class BlockRegions<BearingKernel> {
 public:
  BlockRegions(std::span<const rf::UniformLinearArray> arrays,
               std::span<const std::span<const BearingKernel>> lists,
               const Lattice& lattice)
      : arrays_(arrays),
        lattice_(lattice),
        bearings_(arrays.size() * lattice.nx * lattice.ny) {
    // Each array's bearing of each lattice point, once per search. There
    // is none from the array's own center; operator() never reads it.
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      if (lists[i].empty()) continue;
      for (std::size_t ky = 0; ky < lattice.ny; ++ky) {
        for (std::size_t kx = 0; kx < lattice.nx; ++kx) {
          const rf::Vec2 p = lattice.point(kx, ky);
          if (p == arrays[i].center().xy()) continue;
          bearings_[slot(i, kx, ky)] = arrays[i].arrival_angle_planar(p);
        }
      }
    }
  }

  /// The padded bearing interval [lo, hi] within which array i sees every
  /// cell of block (bx, by).
  BearingInterval operator()(std::size_t i, std::size_t bx,
                             std::size_t by) const {
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
        const rf::Vec2 r = lattice_.point(kx, ky) - array.center().xy();
        // No bearing from the array's own center (and no cell there is a
        // candidate: too_close_to_array).
        if (r.x == 0.0 && r.y == 0.0) {
          undefined = true;
          continue;
        }
        const double theta = bearings_[slot(i, kx, ky)];
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
    return {std::max(0.0, lo - kBearingPad),
            std::min(rf::kPi, hi + kBearingPad)};
  }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t kx,
                                 std::size_t ky) const {
    return (i * lattice_.ny + ky) * lattice_.nx + kx;
  }

  std::span<const rf::UniformLinearArray> arrays_;
  const Lattice& lattice_;
  std::vector<double> bearings_;
};

template <>
class BlockRegions<SegmentKernel> {
 public:
  BlockRegions(std::span<const rf::UniformLinearArray>,
               std::span<const std::span<const SegmentKernel>>,
               const Lattice& lattice)
      : lattice_(lattice) {}

  CellRect operator()(std::size_t, std::size_t bx, std::size_t by) const {
    return {lattice_.point(bx, by), lattice_.point(bx + 1, by + 1)};
  }

 private:
  const Lattice& lattice_;
};

}  // namespace

/// Every array's kernels in one buffer, array by array, and one view per
/// array into it, indexed like the arrays; the view of an array that
/// does not enter the product is empty. The views point into `kernels`,
/// so the table moves but never copies.
template <class Kernel>
struct Localizer::KernelTable {
  std::vector<Kernel> kernels;
  std::vector<std::span<const Kernel>> arrays;
  /// Cells within this radius of an array's center score 0 and support
  /// nothing (kNearArrayM for bearings; 0, no zone, for segments).
  double near_m = 0.0;
  /// Arrays with evidence of their own (not excluded, not silent).
  std::size_t usable = 0;
  /// The weight normalizer.
  double norm = 0.0;

  KernelTable() = default;
  KernelTable(KernelTable&&) = default;
  KernelTable(const KernelTable&) = delete;
};

Localizer::KernelTable<BearingKernel> Localizer::kernel_table(
    std::span<const AngularEvidence> evidence) const {
  // Every search indexes the table like the arrays.
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("Localizer: evidence count mismatch");
  }
  KernelTable<BearingKernel> table;
  table.near_m = kNearArrayM;
  table.usable = arrays_with_evidence(evidence);
  table.norm = global_drop_norm(evidence);
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
    append_kernels(table.kernels, evidence[i], table.norm,
                   options_.power_exponent, inv_2s2_);
    table.arrays[i] =
        std::span<const BearingKernel>(table.kernels).subspan(first);
  }
  return table;
}

Localizer::KernelTable<SegmentKernel> Localizer::kernel_table(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  if (excluded.size() != arrays_.size()) {
    throw std::invalid_argument("Localizer: excluded flag count mismatch");
  }
  KernelTable<SegmentKernel> table;
  for (const RssLink& link : links) {
    if (link.array_idx >= arrays_.size()) {
      throw std::invalid_argument("Localizer: RSS link array out of range");
    }
    // An excluded array's links must not rescale the healthy weights.
    if (excluded[link.array_idx] == 0) {
      table.norm = std::max(table.norm, link.drop_fraction);
    }
  }
  constexpr double kInv2s2 =
      1.0 / (2.0 * kRssLateralSigmaM * kRssLateralSigmaM);
  // At most one kernel per link plus one per silent array.
  table.kernels.reserve(links.size() + arrays_.size());
  table.arrays.resize(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (excluded[i] != 0) continue;
    const std::size_t first = table.kernels.size();
    const rf::Vec2 center = arrays_[i].center().xy();
    for (const RssLink& link : links) {
      if (link.array_idx != i || link.drop_fraction < kRssMinDropFraction) {
        continue;
      }
      const double weight =
          std::pow(link.drop_fraction / table.norm, options_.power_exponent);
      table.kernels.push_back({center, link.tag_position, weight, kInv2s2});
    }
    if (table.kernels.size() > first) {
      ++table.usable;
    } else {
      // A silent array still enters the product, as a factor of epsilon:
      // one kernel of weight 0.
      table.kernels.push_back({center, center, 0.0, kInv2s2});
    }
    sort_by_weight(table.kernels, first);
    table.arrays[i] =
        std::span<const SegmentKernel>(table.kernels).subspan(first);
  }
  return table;
}

double Localizer::evidence_at(const AngularEvidence& evidence, double theta,
                              double norm) const {
  std::vector<BearingKernel> kernels;
  kernels.reserve(evidence.drops.size());
  append_kernels(kernels, evidence, norm, options_.power_exponent, inv_2s2_);
  return max_kernel(std::span<const BearingKernel>(kernels), theta);
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

bool Localizer::too_close_to_array(rf::Vec2 point, double radius) const {
  // A candidate sitting (nearly) on an array is geometrically degenerate
  // for bearings (its bearing is undefined, every evidence kernel matches
  // something) and physically impossible for a target.
  for (const auto& a : arrays_) {
    if (rf::distance(point, a.center().xy()) < radius) return true;
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

template <class Kernel>
double Localizer::likelihood_at(rf::Vec2 point,
                                const KernelTable<Kernel>& table) const {
  if (too_close_to_array(point, table.near_m)) return 0.0;
  return kernel_product<Kernel>(arrays_, table.arrays, options_.epsilon,
                                point);
}

template <class Kernel>
std::size_t Localizer::consensus_at(rf::Vec2 point,
                                    const KernelTable<Kernel>& table) const {
  // Each kernel kind says what support means (Kernel::support); power
  // weighting then ranks candidates WITHIN a consensus level via the
  // likelihood.
  if (too_close_to_array(point, table.near_m)) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (table.arrays[i].empty()) continue;
    const auto probe = Kernel::probe(arrays_[i], point);
    double best = 0.0;
    for (const Kernel& k : table.arrays[i]) {
      if (best >= options_.consensus_floor) break;  // the count is settled
      best = std::max(best, k.support(k.distance(probe)));
    }
    if (best >= options_.consensus_floor) ++n;
  }
  return n;
}

template <class Kernel>
std::vector<LocationEstimate> Localizer::candidates(
    const KernelTable<Kernel>& table) const {
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

std::vector<LocationEstimate> Localizer::grid_candidates(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  return grid_search(kernel_table(links, excluded));
}

template <class Kernel>
std::vector<LocationEstimate> Localizer::grid_search(
    const KernelTable<Kernel>& table,
    std::optional<double> relative_floor) const {
  DWATCH_SPAN("localize.grid");
  const LikelihoodGrid grid = grid_shape();
  const std::size_t nx = grid.nx;
  const std::size_t ny = grid.ny;
  const std::size_t bnx = (nx + kBlockCells - 1) / kBlockCells;
  const std::size_t bny = (ny + kBlockCells - 1) / kBlockCells;
  const auto block_of = [&](std::size_t ix, std::size_t iy) {
    return iy / kBlockCells * bnx + ix / kBlockCells;
  };
  // Block (bx, by) is bounded over its lattice rectangle, per array over
  // the region its kernels measure (a bearing interval or the rectangle).
  const Lattice lattice{grid, bnx + 1, bny + 1};
  const BlockRegions<Kernel> regions(arrays_, table.arrays, lattice);

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
        const auto region = regions(i, bx, by);
        double best = 0.0;
        for (const Kernel& k : table.arrays[i]) {
          if (k.weight <= best) break;  // the exact early exit of max_kernel
          best = std::max(best, kernel_at(k, nearest(k, region)));
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
    const auto region = regions(i, bx, by);
    // Some kernel reaches at least `floor` at every cell of the block:
    // its value at its farthest distance to the region.
    double floor = 0.0;
    for (const Kernel& k : all) {
      if (k.weight <= floor) break;
      floor = std::max(floor, kernel_at(k, farthest(k, region)));
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
      if (kernel_at(k, nearest(k, region)) * (1.0 + kBoundSlack) < cut) {
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
      if (rect_distance(a.center().xy(), low, high) <=
          table.near_m * (1.0 + kBoundSlack)) {
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
            near && too_close_to_array(p, table.near_m)
                ? 0.0
                : kernel_product<Kernel>(arrays_, lists, options_.epsilon,
                                         p);
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

template <class Kernel>
std::vector<LocationEstimate> Localizer::hill_climb_candidates(
    const KernelTable<Kernel>& table) const {
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

template <class Kernel>
LocationEstimate Localizer::consensus_select(
    std::vector<LocationEstimate> candidates,
    const KernelTable<Kernel>& table, std::size_t min_arrays) const {
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
  const KernelTable<BearingKernel> table = kernel_table(evidence);
  // Consensus selection (outlier rejection): among the likelihood peaks,
  // prefer the one the most arrays genuinely point at; candidates backed
  // by fewer than min_arrays arrays are not a valid fix at all.
  return consensus_select(candidates(table), table, min_arrays);
}

LocationEstimate Localizer::localize(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  DWATCH_SPAN("localize.fix");
  const KernelTable<SegmentKernel> table = kernel_table(links, excluded);
  if (table.norm <= 0.0 || table.usable == 0) return {};
  const LocationEstimate est =
      consensus_select(candidates(table), table,
                       std::min(options_.min_arrays, table.usable));
  return est.valid ? est : LocationEstimate{};
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
  const KernelTable<BearingKernel> table = kernel_table(evidence);
  const std::vector<LocationEstimate> found = candidates(table);
  LocationEstimate est{};
  if (usable >= min_arrays) {
    // Short of consensus, the highest-consensus candidate among the
    // first kMaxCandidates still answers, if its likelihood is above 0.
    est = consensus_select(found, table, min_arrays);
    if (est.valid || est.likelihood > 0.0) return est;
  }
  // No such candidate: fall back to the likelihood maximum of the SAME
  // search mode the localizer is configured for (a hill-climbing
  // deployment must not silently answer from an exhaustive grid),
  // selected by an explicit max scan rather than trusting the list head.
  const LocationEstimate top = select_max_likelihood(found);
  if (top.likelihood > 0.0) {
    LocationEstimate best = top;
    best.consensus = consensus_at(best.position, table);
    best.valid = false;
    return best;
  }
  return est;
}

LocationEstimate Localizer::localize_best_effort(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  DWATCH_SPAN("localize.fix");
  const KernelTable<SegmentKernel> table = kernel_table(links, excluded);
  if (table.norm <= 0.0) return {};
  const std::vector<LocationEstimate> found = candidates(table);
  if (table.usable > 0) {
    const LocationEstimate est = consensus_select(
        found, table, std::min(options_.min_arrays, table.usable));
    if (est.valid) return est;
  }
  // Short of consensus: the top peak, whatever its support.
  if (found.empty()) return {};
  LocationEstimate top = found.front();
  top.consensus = consensus_at(top.position, table);
  return top;
}

std::vector<LocationEstimate> Localizer::localize_multi(
    std::span<const AngularEvidence> evidence, std::size_t max_targets,
    double min_separation, double relative_floor) const {
  const std::size_t min_arrays = effective_min_arrays(evidence);
  if (max_targets == 0 || arrays_with_evidence(evidence) < min_arrays) {
    return {};
  }
  return pick_targets(kernel_table(evidence), min_arrays, max_targets,
                      min_separation, relative_floor);
}

std::vector<LocationEstimate> Localizer::localize_multi(
    std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
    std::size_t max_targets, double min_separation,
    double relative_floor) const {
  const KernelTable<SegmentKernel> table = kernel_table(links, excluded);
  if (table.norm <= 0.0 || max_targets == 0 || table.usable == 0) return {};
  return pick_targets(table, std::min(options_.min_arrays, table.usable),
                      max_targets, min_separation, relative_floor);
}

template <class Kernel>
std::vector<LocationEstimate> Localizer::pick_targets(
    const KernelTable<Kernel>& table, std::size_t min_arrays,
    std::size_t max_targets, double min_separation,
    double relative_floor) const {
  std::vector<LocationEstimate> out;
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

LikelihoodGrid Localizer::likelihood_grid(
    std::span<const RssLink> links,
    std::span<const std::uint8_t> excluded) const {
  return likelihood_grid(kernel_table(links, excluded));
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

template <class Kernel>
LikelihoodGrid Localizer::likelihood_grid(
    const KernelTable<Kernel>& table) const {
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
