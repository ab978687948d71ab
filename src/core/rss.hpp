// RSS-only degraded localization (no phase).
//
// When phase is unusable — a reader hub with a broken LO chain, a
// firmware revision that scrambles phase reports, an interferer that
// decorrelates the elements — the P-MUSIC spectra turn to noise but the
// per-(array, tag) received power is still meaningful. This module
// implements an RTI-style fallback (after Wang et al., "Multichannel
// RSS-based Device-Free Localization"): a body standing on or near the
// straight line between a tag and its array attenuates that link, so
// the magnitude of the per-link power drop is spatial evidence along
// the link segment. The likelihood mirrors the phase path's Eq. 15
// shape — a per-array epsilon-floored product — so K-of-N exclusion
// and consensus selection behave identically.
//
// Unlike the phase path, RSS localization needs the SURVEYED tag
// positions (the paper's phase pipeline explicitly does not): callers
// install them with DWatchPipeline::set_tag_position, exactly like
// calibration anchors.
//
// Health gating: DWatchPipeline accumulates a per-epoch phase-health
// score (mean inter-element phase coherence, ~1.0 on healthy hardware,
// ~1/sqrt(N) on scrambled phase) and flips to this path when the score
// falls below RssOnlyOptions::auto_health_threshold, or unconditionally
// when `force` is set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/localizer.hpp"
#include "linalg/complex_matrix.hpp"
#include "rf/geometry.hpp"

namespace dwatch::core {

/// Knobs for the RSS-only degraded mode. Defaults keep the mode fully
/// inert: force off and auto_health_threshold 0 mean a pipeline that
/// never asks for RSS behaves bit-identically to one without it.
struct RssOnlyOptions {
  /// Always localize from RSS drops, ignoring phase health.
  bool force = false;
  /// Switch to RSS automatically when the epoch's mean phase coherence
  /// falls below this value (0 = never switch automatically). Healthy
  /// hardware sits near 1.0; scrambled phase near 1/sqrt(num_snapshots).
  double auto_health_threshold = 0.0;
  /// Minimum fractional per-link power drop that counts as evidence.
  double min_drop_fraction = 0.12;
  /// Lateral spread of a link's evidence around its segment [m] — how
  /// far off the tag-array line a body still measurably shadows it.
  double lateral_sigma = 0.4;
  /// Exponent on the normalized drop fraction used as link weight.
  double power_exponent = 1.0;
  /// Per-array likelihood floor (mirrors LocalizerOptions::epsilon).
  double epsilon = 0.12;
  /// Minimum arrays with RSS evidence for a valid fix.
  std::size_t min_arrays = 2;
  /// An array supports a candidate only when its evidence there is at
  /// least this fraction of the global maximum link weight.
  double consensus_floor = 0.3;
};

/// One attenuated tag-array link observed during an epoch.
struct RssLink {
  std::size_t array_idx = 0;
  rf::Vec2 tag_position;
  /// Fractional power drop vs baseline, in (0, 1].
  double drop_fraction = 0.0;
};

/// Mean inter-element phase coherence of a snapshot matrix, in [0, 1].
/// For each element m >= 1 the N per-round phase differences to element
/// 0 are averaged on the unit circle; coherent hardware keeps them
/// aligned (|mean| ~ 1) while scrambled phase gives a random walk
/// (|mean| ~ 1/sqrt(N)). Single-element matrices score 1.0.
[[nodiscard]] double phase_coherence(const linalg::CMatrix& snapshots);

/// Grid localizer over RSS link evidence. Shares SearchBounds,
/// LocationEstimate and LikelihoodGrid with the phase-path Localizer so
/// callers cannot tell which mode produced a fix except through the
/// ConfidenceReport.
class RssLocalizer {
 public:
  /// Throws std::invalid_argument on empty centers/degenerate bounds.
  RssLocalizer(std::vector<rf::Vec2> array_centers, SearchBounds bounds,
               double grid_step, RssOnlyOptions options = {});

  [[nodiscard]] const RssOnlyOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const SearchBounds& bounds() const noexcept {
    return bounds_;
  }

  /// Largest drop fraction across the links of arrays not marked in
  /// `excluded` (the weight normalizer).
  [[nodiscard]] static double global_drop_norm(
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded);

  /// Evidence of one array at a candidate point: max over its links of
  /// weight * gaussian(lateral distance to the link segment).
  [[nodiscard]] double evidence_at(std::size_t array_idx, rf::Vec2 point,
                                   std::span<const RssLink> links,
                                   double norm) const;

  /// Epsilon-floored per-array product, Eq. 15 shaped. `excluded[a]`
  /// nonzero removes array a from the product and from min_arrays.
  [[nodiscard]] double likelihood_at(rf::Vec2 point,
                                     std::span<const RssLink> links,
                                     std::span<const std::uint8_t> excluded,
                                     double norm) const;

  /// Best single-target estimate (exhaustive grid search + consensus).
  [[nodiscard]] LocationEstimate localize(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;

  /// Always-position variant: consensus failure demotes to the raw
  /// likelihood maximum with valid == false (Fig. 14 semantics).
  [[nodiscard]] LocationEstimate localize_best_effort(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;

  /// Up to `max_targets` grid maxima, min_separation apart and above
  /// relative_floor of the best peak. As in Localizer::localize_multi,
  /// a maximum short of min_arrays consensus is skipped, so every
  /// returned estimate is valid.
  [[nodiscard]] std::vector<LocationEstimate> localize_multi(
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      std::size_t max_targets, double min_separation = 0.25,
      double relative_floor = 0.35) const;

  /// Brownout knob, the same rule as Localizer::set_grid_stride: the
  /// grid step becomes grid_step * stride (clamped up to 1), and stride
  /// 1 restores the construction-time step verbatim.
  void set_grid_stride(std::size_t stride) noexcept {
    grid_stride_ = stride < 1 ? 1 : stride;
  }

  /// Dense likelihood map (heatmaps, same layout as the phase grid).
  [[nodiscard]] LikelihoodGrid likelihood_grid(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;

 private:
  /// The configured grid step times the stride: the step every search
  /// uses.
  [[nodiscard]] double effective_grid_step() const noexcept;
  [[nodiscard]] std::size_t usable_arrays(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;
  [[nodiscard]] std::size_t consensus_at(
      rf::Vec2 point, std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded, double norm) const;
  [[nodiscard]] std::vector<LocationEstimate> grid_candidates(
      std::span<const RssLink> links,
      std::span<const std::uint8_t> excluded) const;
  /// The highest-consensus candidate among the first kMaxCandidates;
  /// a default (invalid) estimate when none reaches min_arrays.
  [[nodiscard]] LocationEstimate consensus_select(
      std::span<const LocationEstimate> candidates,
      std::span<const RssLink> links, std::span<const std::uint8_t> excluded,
      double norm, std::size_t usable) const;

  std::vector<rf::Vec2> centers_;
  SearchBounds bounds_;
  double grid_step_;
  /// Runtime grid coarsening multiplier (brownout tier 2); 1 = exact
  /// configured resolution.
  std::size_t grid_stride_ = 1;
  RssOnlyOptions options_;
  double inv_2s2_ = 0.0;
};

}  // namespace dwatch::core
