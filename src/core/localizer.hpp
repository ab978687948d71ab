// Likelihood localization (paper Section 4.3).
//
// Each array i contributes an angular evidence function
//   dOmega_i(theta) = sum over detected drops of
//                     drop_fraction * gaussian(theta - theta_drop)
// and the target likelihood at a candidate position O is
//   L(O) = prod_i (epsilon + dOmega_i(theta_i(O)))            (Eq. 15)
// maximized over a grid (5x5 cm rooms, 2x2 cm table) either by an exact
// branch-and-bound search, which returns the same local maxima as a scan
// of every cell, or by the paper's multi-start hill climbing, which may
// miss some. "Wrong angles" from pre-reflection blockage simply fail to
// accumulate consensus across readers; an explicit ray-triangulation
// outlier rejector is provided in triangulate.hpp for the paper's
// single-target argument. The RSS-only fallback (core/rss.hpp) runs on
// the same product and the same searches: its evidence is a Gaussian in
// a point's distance to each attenuated array-tag link instead of in its
// bearing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/change_detector.hpp"
#include "core/thread_pool.hpp"
#include "rf/array.hpp"
#include "rf/geometry.hpp"

namespace dwatch::core {

/// The drops one array detected during an epoch (aggregated over all its
/// tags' spectra).
struct AngularEvidence {
  std::vector<PathDrop> drops;
  /// Degraded mode: this array's evidence is unusable (reader lost,
  /// reports flagged stale). An excluded array contributes nothing to
  /// the likelihood product AND does not count toward min_arrays — the
  /// K-of-N semantics that keep 3 healthy arrays localizing when the
  /// 4th dies, instead of the whole fix aborting.
  bool excluded = false;

  [[nodiscard]] bool empty() const noexcept { return drops.empty(); }
  /// Usable for localization: present and not excluded.
  [[nodiscard]] bool usable() const noexcept {
    return !excluded && !drops.empty();
  }
};

/// One attenuated tag-array link observed during an epoch (RSS-only
/// evidence, after Wang et al.'s RTI link model): a body on or near the
/// segment from the array's center to the tag shadows the link.
struct RssLink {
  std::size_t array_idx = 0;
  rf::Vec2 tag_position;
  /// Fractional power drop vs baseline, in (0, 1].
  double drop_fraction = 0.0;
};

/// Smallest drop_fraction that counts as RSS evidence. Every link still
/// enters the weight normalizer.
inline constexpr double kRssMinDropFraction = 0.12;
/// Lateral spread [m] of a link's evidence around its segment: how far
/// off the tag-array line a body still measurably shadows it.
inline constexpr double kRssLateralSigmaM = 0.4;

/// Rectangular search region.
struct SearchBounds {
  rf::Vec2 min;
  rf::Vec2 max;

  [[nodiscard]] bool contains(rf::Vec2 p) const noexcept {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
};

struct LocalizerOptions {
  /// Grid step [m] (paper: 0.05 for rooms, 0.02 for the table).
  double grid_step = 0.05;
  /// Angular kernel sigma for evidence smoothing [rad].
  double kernel_sigma = rf::deg2rad(5.0);
  /// Exponent on the normalized ABSOLUTE power drop used as a drop's
  /// evidence weight (paper Eq. 15 uses the spectrum CHANGE, not the
  /// fractional change): direct-path drops carry far more power than
  /// reflection-path drops, which suppresses mirror-image ghosts from
  /// pre-reflection blockage. 0.5 compresses the dynamic range.
  double power_exponent = 1.0;
  /// Likelihood floor per reader so a silent reader attenuates rather
  /// than annihilates (deadzone handling).
  double epsilon = 0.12;
  /// Minimum number of arrays with evidence for a valid fix.
  std::size_t min_arrays = 2;
  /// A candidate peak only counts an array as SUPPORTING it when that
  /// array's evidence at the candidate's bearing is at least this
  /// (normalized) value; candidates supported by fewer than min_arrays
  /// arrays are rejected — the paper's outlier rejection applied to the
  /// likelihood search (wrong-angle rays rarely agree at two readers).
  double consensus_floor = 0.3;
  /// Use multi-start hill climbing instead of exhaustive grid search.
  bool hill_climbing = false;
  std::size_t hill_climb_starts = 16;
};

struct LocationEstimate {
  rf::Vec2 position;
  double likelihood = 0.0;
  /// Number of arrays whose evidence supports this position.
  std::size_t consensus = 0;
  bool valid = false;  ///< false => not covered (deadzone / < min arrays)
};

/// Dense likelihood map (for the paper's Fig. 19 heatmaps).
struct LikelihoodGrid {
  rf::Vec2 origin;
  double step = 0.0;
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::vector<double> values;  ///< row-major, y-major rows

  [[nodiscard]] double at(std::size_t ix, std::size_t iy) const {
    return values.at(iy * nx + ix);
  }
  [[nodiscard]] rf::Vec2 point(std::size_t ix, std::size_t iy) const {
    return {origin.x + step * static_cast<double>(ix),
            origin.y + step * static_cast<double>(iy)};
  }
};

namespace detail {
// The two evidence kernels (defined in localizer.cpp): a drop's bearing
// and a link's segment.
struct BearingKernel;
struct SegmentKernel;
}  // namespace detail

/// Likelihood localizer over a fixed set of arrays.
class Localizer {
 public:
  /// `arrays` must outlive the localizer? No — copied. Throws
  /// std::invalid_argument on empty arrays or degenerate bounds.
  Localizer(std::vector<rf::UniformLinearArray> arrays, SearchBounds bounds,
            LocalizerOptions options = {});

  [[nodiscard]] const LocalizerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const SearchBounds& bounds() const noexcept { return bounds_; }
  [[nodiscard]] std::size_t num_arrays() const noexcept {
    return arrays_.size();
  }

  /// Largest absolute power drop across ALL evidence (the weight
  /// normalizer); 0 when there are no drops.
  [[nodiscard]] static double global_drop_norm(
      std::span<const AngularEvidence> evidence);

  /// Evidence value dOmega_i(theta) for array i; `norm` is the global
  /// drop normalizer from global_drop_norm().
  [[nodiscard]] double evidence_at(const AngularEvidence& evidence,
                                   double theta, double norm) const;

  /// L(O) for a candidate point (evidence indexed like the arrays;
  /// throws std::invalid_argument on count mismatch). A one-off probe:
  /// searches reduce the evidence once and probe that instead.
  [[nodiscard]] double likelihood_at(
      rf::Vec2 point, std::span<const AngularEvidence> evidence) const;

  /// Attach a worker pool; likelihood_grid() then computes its heatmap
  /// rows in parallel. Results are bit-identical with or without a pool
  /// (rows are independent and write disjoint slots). The searches behind
  /// localize(), localize_best_effort() and localize_multi() are serial
  /// and never use it. Pass nullptr to go back to serial.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) noexcept {
    pool_ = std::move(pool);
  }

  /// Brownout knob: multiply the configured grid_step by `stride`
  /// (clamped up to 1) for every subsequent search — grid, hill climb,
  /// and candidate dedupe all use the widened step, so a stride-2
  /// search costs ~1/4 of the probes. Stride 1 restores the EXACT
  /// construction-time behaviour (effective step is computed as
  /// step * stride, so stride 1 is bit-identical, not merely close).
  void set_grid_stride(std::size_t stride) noexcept {
    grid_stride_ = stride < 1 ? 1 : stride;
  }
  [[nodiscard]] std::size_t grid_stride() const noexcept {
    return grid_stride_;
  }
  /// options().grid_step * grid_stride() — the step every search uses.
  [[nodiscard]] double effective_grid_step() const noexcept;

  /// Strict total order on candidates: likelihood descending, ties
  /// broken by position (y ascending, then x ascending — the grid's
  /// own scan order, so tied ridge peaks resolve exactly as the
  /// exhaustive search always has). Because the tie-break depends only
  /// on the candidate's VALUE, sorting by it is invariant under any
  /// permutation of the input list — the property the localize()
  /// candidate cap needs to be order-independent.
  [[nodiscard]] static bool candidate_order(
      const LocationEstimate& a, const LocationEstimate& b) noexcept;

  /// The maximum candidate under candidate_order(), found by a full
  /// scan — never assumes the list is sorted. Returns a default
  /// (zero-likelihood) estimate for an empty list. Exposed for the
  /// best-effort fallback's unsorted-candidate regression test.
  [[nodiscard]] static LocationEstimate select_max_likelihood(
      std::span<const LocationEstimate> candidates) noexcept;

  /// Consensus selection over an arbitrary candidate list: re-sorts
  /// into candidate_order(), caps at kMaxCandidates, scores each
  /// survivor's consensus and picks the highest-consensus (then
  /// highest-likelihood, then position tie-break) candidate. The
  /// result is identical under any permutation of `candidates` —
  /// asserted by the localizer permutation test. `min_arrays` is the
  /// effective (K-of-N adjusted) validity threshold.
  [[nodiscard]] LocationEstimate consensus_select(
      std::vector<LocationEstimate> candidates,
      std::span<const AngularEvidence> evidence,
      std::size_t min_arrays) const;

  /// Hard cap on how many candidates consensus selection scores per
  /// fix; candidates are ranked by candidate_order() first, so the cap
  /// always keeps the strongest ones regardless of production order.
  static constexpr std::size_t kMaxCandidates = 24;

  /// Best single-target estimate. Invalid (valid == false) when fewer
  /// than min_arrays arrays support any candidate.
  [[nodiscard]] LocationEstimate localize(
      std::span<const AngularEvidence> evidence) const;

  /// Like localize(), but always returns a positioned estimate when any
  /// evidence exists at all. If no candidate reaches consensus, the
  /// highest-consensus candidate among the first kMaxCandidates is
  /// returned with valid == false, provided its likelihood is above 0;
  /// only otherwise the highest-likelihood peak. This is the "always
  /// report a fix" mode of the paper's Fig. 14 evaluation;
  /// sparse-evidence environments degrade gracefully instead of
  /// abstaining.
  [[nodiscard]] LocationEstimate localize_best_effort(
      std::span<const AngularEvidence> evidence) const;

  /// Up to `max_targets` estimates, local maxima separated by at least
  /// `min_separation` metres and at least `relative_floor` of the best
  /// peak's likelihood (multi-target, paper Section 6.7).
  [[nodiscard]] std::vector<LocationEstimate> localize_multi(
      std::span<const AngularEvidence> evidence, std::size_t max_targets,
      double min_separation = 0.25, double relative_floor = 0.35) const;

  /// Dense likelihood map for visualization.
  [[nodiscard]] LikelihoodGrid likelihood_grid(
      std::span<const AngularEvidence> evidence) const;

  /// The grid search's candidate list: every local maximum of the
  /// likelihood grid (no neighbour strictly higher) whose value is at
  /// least the kMaxCandidates-th highest one, ties included, sorted by
  /// candidate_order(). Its first kMaxCandidates entries are those of a
  /// scan of every cell. Exposed for the oracle tests.
  [[nodiscard]] std::vector<LocationEstimate> grid_candidates(
      std::span<const AngularEvidence> evidence) const;

  // RSS-only evidence (core/rss.hpp). `links` may hold several links per
  // array; `excluded[a]` nonzero removes array a from the product, the
  // normalizer and min_arrays. Each array that is not excluded enters
  // the product, so a silent one contributes a factor of epsilon.
  // Consensus counts the arrays whose evidence value (not bare proximity)
  // clears consensus_floor, min_arrays is min(min_arrays, arrays with a
  // link of at least kRssMinDropFraction), and no cell is too close to an
  // array. All throw std::invalid_argument when `excluded` is not one
  // flag per array or a link's array_idx is out of range.

  /// Best single-target estimate; a default (invalid) estimate when no
  /// candidate reaches consensus.
  [[nodiscard]] LocationEstimate localize(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;
  /// Like localize(), but when no candidate reaches consensus, the
  /// highest-likelihood peak with valid == false.
  [[nodiscard]] LocationEstimate localize_best_effort(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;
  /// The RSS twin of localize_multi(evidence, ...).
  [[nodiscard]] std::vector<LocationEstimate> localize_multi(
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      std::size_t max_targets, double min_separation = 0.25,
      double relative_floor = 0.35) const;
  [[nodiscard]] LikelihoodGrid likelihood_grid(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;
  [[nodiscard]] std::vector<LocationEstimate> grid_candidates(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;

 private:
  /// The evidence reduced once per search (defined in localizer.cpp):
  /// per array, its kernels (a bearing or a link segment, with weight
  /// and Gaussian reciprocal). Read-only once built, so pooled grid rows
  /// share it. The searches below are written once over both kernels.
  template <class Kernel>
  struct KernelTable;

  [[nodiscard]] KernelTable<detail::BearingKernel> kernel_table(
      std::span<const AngularEvidence> evidence) const;
  [[nodiscard]] KernelTable<detail::SegmentKernel> kernel_table(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;
  template <class Kernel>
  [[nodiscard]] double likelihood_at(rf::Vec2 point,
                                     const KernelTable<Kernel>& table) const;
  [[nodiscard]] std::size_t arrays_with_evidence(
      std::span<const AngularEvidence> evidence) const;
  /// min_arrays shrunk to the surviving array count when some arrays
  /// are excluded (K-of-N degraded localization); equals
  /// options().min_arrays when nothing is excluded.
  [[nodiscard]] std::size_t effective_min_arrays(
      std::span<const AngularEvidence> evidence) const;
  /// Whether `point` lies within `radius` of some array's center.
  [[nodiscard]] bool too_close_to_array(rf::Vec2 point, double radius) const;
  /// Number of arrays whose kernels support `point` at or above the
  /// consensus floor.
  template <class Kernel>
  [[nodiscard]] std::size_t consensus_at(
      rf::Vec2 point, const KernelTable<Kernel>& table) const;
  template <class Kernel>
  [[nodiscard]] LocationEstimate consensus_select(
      std::vector<LocationEstimate> candidates,
      const KernelTable<Kernel>& table, std::size_t min_arrays) const;
  /// The grid's origin, step and size at the current stride (no values).
  [[nodiscard]] LikelihoodGrid grid_shape() const;
  template <class Kernel>
  [[nodiscard]] LikelihoodGrid likelihood_grid(
      const KernelTable<Kernel>& table) const;
  /// Likelihood peaks from the configured search mode (grid or hill
  /// climbing), sorted by candidate_order().
  template <class Kernel>
  [[nodiscard]] std::vector<LocationEstimate> candidates(
      const KernelTable<Kernel>& table) const;
  /// Up to `max_targets` valid maxima of the grid search at or above
  /// relative_floor of the best, min_separation apart; a maximum short
  /// of min_arrays consensus takes no slot.
  template <class Kernel>
  [[nodiscard]] std::vector<LocationEstimate> pick_targets(
      const KernelTable<Kernel>& table, std::size_t min_arrays,
      std::size_t max_targets, double min_separation,
      double relative_floor) const;
  /// Exact branch-and-bound over blocks of grid cells, best bound first:
  /// every local maximum of the likelihood grid at or above a threshold
  /// T, with the value the full grid would hold. T is the
  /// kMaxCandidates-th best proven maximum, or `relative_floor` times
  /// the best one when given; a block bounded below T is never
  /// evaluated. Ordering contract (shared with hill_climb_candidates):
  /// the list is sorted by candidate_order() — strictly ranked even
  /// through likelihood ties, so downstream caps and front() reads are
  /// deterministic.
  template <class Kernel>
  [[nodiscard]] std::vector<LocationEstimate> grid_search(
      const KernelTable<Kernel>& table,
      std::optional<double> relative_floor = std::nullopt) const;
  /// Multi-start ascent candidates; same candidate_order() contract as
  /// grid_search().
  template <class Kernel>
  [[nodiscard]] std::vector<LocationEstimate> hill_climb_candidates(
      const KernelTable<Kernel>& table) const;

  std::vector<rf::UniformLinearArray> arrays_;
  SearchBounds bounds_;
  LocalizerOptions options_;
  /// Runtime grid coarsening multiplier (brownout tier 2); 1 = exact
  /// configured resolution.
  std::size_t grid_stride_ = 1;
  /// Precomputed Gaussian kernel reciprocal 1/(2 sigma^2), fixed per
  /// localizer since kernel_sigma is set at construction.
  double inv_2s2_ = 0.0;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace dwatch::core
