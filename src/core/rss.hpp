// RSS-only degraded localization (no phase).
//
// When phase is unusable — a reader hub with a broken LO chain, a
// firmware revision that scrambles phase reports, an interferer that
// decorrelates the elements — the P-MUSIC spectra turn to noise but the
// per-(array, tag) received power is still meaningful. The fallback is
// RTI-style (after Wang et al., "Multichannel RSS-based Device-Free
// Localization"): a body standing on or near the straight line between a
// tag and its array attenuates that link, so the magnitude of the
// per-link power drop is spatial evidence along the link segment. The
// phase path's Localizer localizes from these RssLinks with the same
// Eq. 15 product and the same searches (see localizer.hpp), so K-of-N
// exclusion, consensus selection, brownout stride and the worker pool
// behave alike in both modes.
//
// Unlike the phase path, RSS localization needs the SURVEYED tag
// positions (the paper's phase pipeline explicitly does not): callers
// install them with DWatchPipeline::set_tag_position, exactly like
// calibration anchors.
//
// Health gating: DWatchPipeline accumulates a per-epoch phase-health
// score (mean inter-element phase coherence, ~1.0 on healthy hardware,
// ~1/sqrt(N) on scrambled phase) and flips to RSS evidence when the score
// falls below RssOnlyOptions::auto_health_threshold, or unconditionally
// when `force` is set.
#pragma once

#include "core/localizer.hpp"
#include "linalg/complex_matrix.hpp"

namespace dwatch::core {

/// Knobs for the RSS-only degraded mode. Defaults keep the mode fully
/// inert: force off and auto_health_threshold 0 mean a pipeline that
/// never asks for RSS behaves bit-identically to one without it. The
/// likelihood itself reads LocalizerOptions (epsilon, min_arrays,
/// consensus_floor, power_exponent) and the kRss* constants.
struct RssOnlyOptions {
  /// Always localize from RSS drops, ignoring phase health.
  bool force = false;
  /// Switch to RSS automatically when the epoch's mean phase coherence
  /// falls below this value (0 = never switch automatically). Healthy
  /// hardware sits near 1.0; scrambled phase near 1/sqrt(num_snapshots).
  double auto_health_threshold = 0.0;
};

/// Mean inter-element phase coherence of a snapshot matrix, in [0, 1].
/// For each element m >= 1 the N per-round phase differences to element
/// 0 are averaged on the unit circle; coherent hardware keeps them
/// aligned (|mean| ~ 1) while scrambled phase gives a random walk
/// (|mean| ~ 1/sqrt(N)). Single-element matrices score 1.0.
[[nodiscard]] double phase_coherence(const linalg::CMatrix& snapshots);

}  // namespace dwatch::core
