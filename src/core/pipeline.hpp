// The end-to-end D-Watch pipeline (paper Section 4.4, workflow steps
// 1-4):
//
//  Step 1  Data collection   — baseline snapshots per (array, tag) with
//                              the scene empty; online snapshots with the
//                              target present.
//  Step 2  Pre-processing    — per-array phase calibration applied to
//                              every snapshot matrix.
//  Step 3  Angle estimation  — P-MUSIC spectra; baseline-vs-online peak
//                              drops per (array, tag) aggregate into
//                              per-array angular evidence.
//  Step 4  Localization      — likelihood grid / hill climbing, with
//                              multi-target and triangulation variants.
//
// The pipeline consumes either raw snapshot matrices or wire-decoded
// LLRP TagObservations, so integration tests can drive it end-to-end
// from encoded reader bytes.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/change_detector.hpp"
#include "core/localizer.hpp"
#include "core/pmusic.hpp"
#include "core/rss.hpp"
#include "core/streaming.hpp"
#include "core/thread_pool.hpp"
#include "core/triangulate.hpp"
#include "linalg/complex_matrix.hpp"
#include "rf/array.hpp"
#include "rfid/llrp.hpp"

namespace dwatch::core {

/// Graceful-degradation knobs (DESIGN.md "Failure model & degraded
/// modes"). Defaults are chosen so a clean, fully-healthy run is
/// bit-identical to a pipeline without this struct.
struct DegradedModeOptions {
  /// Online observations with fewer snapshot columns than this get
  /// their drops' angular kernel widened (the spectrum is noisier, so
  /// the peak angle deserves less localization weight). The default
  /// matches the default smoothing subarray (L = 6): below that even
  /// the smoothed correlation is rank-starved.
  std::size_t min_snapshots = 6;
  /// Kernel widening factor for low-snapshot drops (sigma_scale).
  double sigma_widen = 2.0;
  /// Reject online observations whose first_seen_us predates the epoch
  /// watermark passed to begin_epoch() — stale retransmissions of a
  /// previous epoch must not pollute the current one.
  bool reject_stale = true;
};

/// Streaming spectral mode (DESIGN.md §16). Off by default: the batch
/// path stays byte-for-byte what it was. When enabled, each observe()
/// folds its snapshots into a per-(array, tag) IncrementalCovariance,
/// drops are detected on the epoch's ACCUMULATED correlation (each
/// report's drops replace the tag's earlier ones), and the epoch can
/// seal EARLY: once the likelihood argmax has been stable for
/// `convergence_window` consecutive checks the pipeline flags
/// early_fix_ready() so the serving layer can emit the fix mid-epoch.
struct StreamingOptions {
  bool enabled = false;
  /// Early sealing on likelihood-grid convergence. Disable to keep the
  /// incremental covariance path without mid-epoch fixes (e.g.
  /// multi-target zones, where late evidence can still split the
  /// likelihood mass).
  bool early_seal = true;
  /// No convergence checks until EVERY healthy array has streamed at
  /// least this many observations this epoch. Per-array (not fleet
  /// total): sealing on a backlog where one array has barely reported
  /// is how partial-evidence ghosts get promoted to early fixes.
  std::size_t min_reports = 4;
  /// Consecutive stable checks required to declare convergence.
  std::size_t convergence_window = 3;
};

/// Lifetime counters of the streaming path (NOT part of the frozen
/// DWCP v1 PipelineState — in-memory only, like the RSS references).
struct StreamingStats {
  std::size_t rank1_updates = 0;    ///< snapshot columns accumulated
  std::size_t streamed_spectra = 0; ///< online spectra, accumulated R
  /// Kept only because the serving benchmark reads it; nothing
  /// increments it any more (the streaming path runs no EVD).
  std::size_t tracker_resets = 0;
  std::size_t convergence_checks = 0;
  std::size_t early_seals = 0;      ///< epochs declared converged
  /// Observations that arrived after the epoch converged (the serving
  /// layer normally stops feeding; these count the ones fed anyway).
  std::size_t post_convergence_observations = 0;

  bool operator==(const StreamingStats&) const = default;
};

struct PipelineOptions {
  PMusicOptions pmusic;
  ChangeDetectorOptions change;
  LocalizerOptions localizer;
  /// Apply the Section 4.3 tag-identity outlier rejection before
  /// localization (see filtered_evidence()).
  bool ghost_filtering = true;
  /// Worker threads for the likelihood grid's rows: 0 = one per
  /// hardware thread, 1 = fully serial (no pool), n = n workers.
  /// Results are bit-identical for every setting.
  std::size_t num_workers = 1;
  DegradedModeOptions degraded;
  /// RSS-only degraded localization (see core/rss.hpp). Inert by
  /// default; requires surveyed tag positions (set_tag_position).
  RssOnlyOptions rss_only;
  /// Incremental spectral path + early sealing (inert by default).
  StreamingOptions streaming;
};

/// Runtime coarsening profile for overload brownout (the serving
/// layer's admission tier 2). The default profile is EXACTLY the
/// configured pipeline: grid_stride 1 leaves the localizer step
/// untouched and max_signal_rank 0 keeps each estimator's configured
/// rank, so applying and later clearing a profile restores
/// bit-identical fixes.
struct BrownoutProfile {
  /// Likelihood-grid step multiplier (clamped up to 1 on apply).
  std::size_t grid_stride = 1;
  /// Forced truncated-EVD signal rank; 0 keeps the configured
  /// MusicOptions::max_signal_rank. When both the profile and the
  /// configuration specify a rank the SMALLER (coarser) one wins.
  std::size_t max_signal_rank = 0;

  bool operator==(const BrownoutProfile&) const = default;
};

/// The per-observation evidence counters, listed once. Each name is a
/// field of EvidenceCounters, so it is at the same time a per-epoch
/// ConfidenceReport count, a lifetime PipelineStats count and (obs on)
/// the process-wide registry series `dwatch_pipeline_<name>_total`:
///   observations               online spectra processed
///   observations_skipped       online without a baseline
///   drops_detected             peak drops found
///   stale_observations         rejected by the epoch watermark
///   low_snapshot_observations  widened-kernel spectra
///   malformed_observations     wire observations quarantined because
///                              no complete inventory round survived
///                              (dead element, heavy sample loss)
///   reports_dropped            lost/quarantined upstream
///   transport_retries, transport_timeouts
#define DWATCH_EVIDENCE_COUNTERS(X) \
  X(observations)                   \
  X(observations_skipped)           \
  X(drops_detected)                 \
  X(stale_observations)             \
  X(low_snapshot_observations)      \
  X(malformed_observations)         \
  X(reports_dropped)                \
  X(transport_retries)              \
  X(transport_timeouts)

struct EvidenceCounters {
#define DWATCH_EVIDENCE_COUNTER_FIELD(name) std::size_t name = 0;
  DWATCH_EVIDENCE_COUNTERS(DWATCH_EVIDENCE_COUNTER_FIELD)
#undef DWATCH_EVIDENCE_COUNTER_FIELD

  bool operator==(const EvidenceCounters&) const = default;
};

/// Counters exposed for observability (cumulative over the pipeline's
/// lifetime). The evidence counters are bumped at the same site as the
/// per-epoch ConfidenceReport ones, so the sum of per-epoch reports
/// always equals the lifetime totals (asserted by
/// tests/obs/pipeline_obs_test).
struct PipelineStats : EvidenceCounters {
  std::size_t baselines = 0;          ///< (array, tag) baselines stored
  std::size_t epochs = 0;             ///< begin_epoch() calls

  bool operator==(const PipelineStats&) const = default;
};

/// Every long-lived piece of a DWatchPipeline, exported for
/// checkpointing (src/recovery serializes it) and reinstalled by
/// restore(). Spectra are carried exactly as stored — no recomputation
/// on either side — so a restored pipeline produces fixes bit-identical
/// to one that never stopped.
struct PipelineState {
  /// Per-array phase calibration (nullopt = never calibrated).
  std::vector<std::optional<std::vector<double>>> calibration;
  /// Per-array reference spectra keyed by tag EPC.
  std::vector<std::map<rfid::Epc96, AngularSpectrum>> baselines;
  /// Per-array K-of-N health flags (1 = excluded).
  std::vector<std::uint8_t> excluded;
  /// Lifetime counters (per-epoch state is NOT long-lived: an epoch in
  /// flight when the process dies is simply lost, by design).
  PipelineStats stats;
  /// The default-watermark frontier: the larger of the last begun
  /// epoch's watermark and every accepted first_seen_us. restore()
  /// reinstalls it as both, so begin_epoch(0) afterwards carries the
  /// same watermark as a pipeline that never stopped.
  std::uint64_t watermark_us = 0;
};

/// Provenance of ONE localization result: which arrays contributed,
/// what was lost on the way, how degraded the inputs were. Two runs
/// with identical inputs (same fault seed) produce bit-identical
/// reports — asserted by the stress suite. The evidence counters are
/// this epoch's counts.
struct ConfidenceReport : EvidenceCounters {
  std::size_t arrays_total = 0;
  std::size_t arrays_with_evidence = 0;  ///< usable (not excluded) arrays
  std::size_t arrays_excluded = 0;       ///< flagged unhealthy/stale
  /// This fix came from the RSS-only fallback, not the phase path.
  bool rss_mode = false;
  /// Mean inter-element phase coherence of this epoch's observations
  /// (1.0 when no observations carried phase-health information).
  double phase_health = 1.0;

  /// Anything at all went wrong on the way to this fix.
  [[nodiscard]] bool degraded() const noexcept {
    return arrays_excluded > 0 || stale_observations > 0 ||
           low_snapshot_observations > 0 || malformed_observations > 0 ||
           reports_dropped > 0 || transport_timeouts > 0 || rss_mode;
  }
  bool operator==(const ConfidenceReport&) const = default;
};

/// A localization estimate plus the provenance of the evidence that
/// produced it.
struct ConfidentEstimate {
  LocationEstimate estimate;
  ConfidenceReport confidence;
};

/// The snapshot fill: an M x N matrix from one observation's samples,
/// one column per complete inventory round in ascending round order,
/// the last sample winning when an (element, round) repeats. Its round
/// index, slot table and per-round fill counts are kept across calls,
/// so a steady stream of observations allocates nothing.
class SnapshotAssembler {
 public:
  /// Reshape `out` to M x (complete rounds) and fill it. Throws
  /// std::invalid_argument if no complete round exists or an element id
  /// is 0 or exceeds M.
  void fill(std::span<const rfid::PhaseSample> samples,
            std::size_t num_elements, linalg::CMatrix& out);

 private:
  std::vector<std::uint32_t> rounds_;
  std::vector<std::size_t> slot_;
  std::vector<std::size_t> filled_;
};

/// Reconstruct an M x N snapshot matrix from a wire observation. Rounds
/// with missing elements are dropped; throws std::invalid_argument if no
/// complete round exists or an element id exceeds M.
[[nodiscard]] linalg::CMatrix observation_to_snapshots(
    const rfid::TagObservation& obs, std::size_t num_elements);

class DWatchPipeline {
 public:
  /// Throws std::invalid_argument on empty arrays/degenerate bounds.
  DWatchPipeline(std::vector<rf::UniformLinearArray> arrays,
                 SearchBounds bounds, PipelineOptions options = {});

  [[nodiscard]] std::size_t num_arrays() const noexcept {
    return arrays_.size();
  }
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }
  /// Streaming-path lifetime counters (all zero unless streaming mode
  /// is enabled; never checkpointed).
  [[nodiscard]] const StreamingStats& streaming_stats() const noexcept {
    return streaming_stats_;
  }
  [[nodiscard]] const Localizer& localizer() const noexcept {
    return localizer_;
  }

  /// Step 2: install per-array calibration offsets (size = M of that
  /// array). Applied to every subsequent snapshot matrix.
  void set_calibration(std::size_t array_idx, std::vector<double> offsets);

  /// The installed offsets of one array (nullopt = uncalibrated).
  [[nodiscard]] const std::optional<std::vector<double>>& calibration(
      std::size_t array_idx) const;

  /// Drop every stored reference spectrum of one array. Called after a
  /// calibration hot-swap: the old baselines were computed under the
  /// superseded Gamma and would report phantom peak drops against
  /// spectra computed under the new one. Observations of the array skip
  /// (no baseline) until re-capture.
  void clear_baselines(std::size_t array_idx);

  /// RSS-only fallback prerequisite: install the surveyed position of a
  /// tag (the phase path never needs this; the RSS path measures drop
  /// magnitude along tag-array line segments, so it does). Links of
  /// tags without a position are silently unusable for RSS.
  void set_tag_position(const rfid::Epc96& epc, rf::Vec2 position);

  /// Mean inter-element phase coherence of this epoch's observations
  /// (1.0 until an observation with phase content arrives). ~1 on
  /// healthy hardware, ~1/sqrt(num_snapshots) on scrambled phase.
  [[nodiscard]] double phase_health() const noexcept;

  /// True iff localization calls will take the RSS-only path this
  /// epoch: rss_only.force is set, or auto_health_threshold > 0 and the
  /// epoch's phase_health() has fallen below it.
  [[nodiscard]] bool rss_active() const noexcept;

  /// The RSS link evidence accumulated this epoch (inspection/tests).
  [[nodiscard]] const std::vector<RssLink>& rss_links() const noexcept {
    return epoch_.rss_links;
  }

  /// Snapshot every long-lived field for checkpointing. NOTE: the RSS
  /// fallback's reference state (tag positions, per-link baseline
  /// powers) is deliberately NOT part of PipelineState — the DWCP v1
  /// layout is frozen by the checkpoint golden. A restored pipeline's
  /// phase path is bit-identical; its RSS fallback re-arms on the next
  /// set_tag_position/add_baseline pass.
  [[nodiscard]] PipelineState export_state() const;

  /// Reinstall a previously exported state. The pipeline must have been
  /// constructed with the same arrays/bounds/options; throws
  /// std::invalid_argument on an array-count or offset-size mismatch.
  /// Any in-flight epoch is discarded, streamed covariances included
  /// (call begin_epoch afterwards).
  void restore(const PipelineState& state);

  /// Step 1 (baseline): store the empty-scene spectrum of (array, tag).
  /// Re-adding a tag overwrites its baseline (environment re-baselining).
  void add_baseline(std::size_t array_idx, const rfid::Epc96& epc,
                    const linalg::CMatrix& snapshots);
  void add_baseline(std::size_t array_idx, const rfid::TagObservation& obs);

  /// Begin a new online epoch (clears accumulated evidence and the
  /// per-epoch confidence counters). `watermark_us` is the reader-clock
  /// time the epoch started: wire observations timestamped before it
  /// are rejected as stale when degraded.reject_stale is set. 0 (the
  /// default) carries the highest watermark or accepted first_seen_us
  /// seen so far. Streamed covariances restart with every epoch.
  void begin_epoch(std::uint64_t watermark_us = 0);

  /// Degraded mode: flag an array unhealthy (reader unreachable, its
  /// evidence stale). Unhealthy arrays are excluded from localization
  /// and from the min_arrays requirement (K-of-N). Health persists
  /// across epochs until changed.
  void set_array_health(std::size_t array_idx, bool healthy);
  [[nodiscard]] bool array_healthy(std::size_t array_idx) const;

  /// Fold transport-layer losses into this epoch's confidence report
  /// (retry/timeout counts from a RobustSessionClient, frames/reports
  /// quarantined by decoders or assemblers).
  void note_transport(std::size_t retries, std::size_t timeouts);
  void note_reports_dropped(std::size_t count);

  /// Step 3 (online): process one (array, tag) snapshot matrix; detected
  /// peak drops accumulate into the epoch's per-array evidence. Returns
  /// the number of drops found (0 also when the tag has no baseline).
  std::size_t observe(std::size_t array_idx, const rfid::Epc96& epc,
                      const linalg::CMatrix& snapshots);

  /// Step 3 from a wire observation: staleness gate, snapshot fill
  /// (malformed observations are quarantined and counted), then the
  /// matrix overload. The fill and its calibrated copy reuse pipeline
  /// buffers, so a zone's epochs must not run concurrently.
  std::size_t observe(std::size_t array_idx, const rfid::ObservationView& obs);
  std::size_t observe(std::size_t array_idx, const rfid::TagObservation& obs) {
    return observe(array_idx, obs.view());
  }

  /// Streaming mode only: true once this epoch's likelihood grid has
  /// converged (stable best-effort argmax + bounded likelihood delta
  /// over `convergence_window` consecutive observations, with evidence
  /// from EVERY healthy array). The serving layer may then seal the
  /// epoch early and emit the fix without waiting for the remaining
  /// reports. Always false when streaming/early_seal is off; reset by
  /// begin_epoch().
  [[nodiscard]] bool early_fix_ready() const noexcept {
    return converged_;
  }

  /// Accumulated per-array evidence for the current epoch (raw).
  [[nodiscard]] const std::vector<AngularEvidence>& evidence() const noexcept {
    return evidence_;
  }

  /// Evidence after the paper's Section 4.3 outlier rejection: a drop is
  /// discarded as a pre-reflection-leg "wrong angle" when its tag shows
  /// drops at 2+ arrays while NO other tag corroborates the angle at
  /// this array. (A genuine final-leg blockage is shared by many tags at
  /// one array; a pre-leg blockage travels with one tag to all arrays.)
  [[nodiscard]] std::vector<AngularEvidence> filtered_evidence() const;

  /// Step 4: single-target fix from the current epoch.
  [[nodiscard]] LocationEstimate localize() const;

  /// Step 4, always-report variant (paper Fig. 14 style): falls back to
  /// the raw likelihood maximum when consensus fails.
  [[nodiscard]] LocationEstimate localize_best_effort() const;

  /// Step 4 with provenance: the fix plus a ConfidenceReport describing
  /// the epoch's evidence (arrays used/excluded, reports dropped,
  /// retries, staleness). `best_effort` selects the Fig. 14 fallback.
  [[nodiscard]] ConfidentEstimate localize_with_confidence(
      bool best_effort = false) const;

  /// The confidence report for the current epoch as it stands.
  [[nodiscard]] ConfidenceReport confidence_report() const;

  /// Step 4 (multi-target).
  [[nodiscard]] std::vector<LocationEstimate> localize_multi(
      std::size_t max_targets, double min_separation = 0.25,
      double relative_floor = 0.35) const;

  /// Step 4 (explicit triangulation + outlier rejection variant).
  [[nodiscard]] TriangulationResult triangulate(
      double cluster_radius = 0.5) const;

  /// Dense likelihood map of the current epoch (heatmaps).
  [[nodiscard]] LikelihoodGrid likelihood_grid() const;

  /// The stored baseline spectrum, if any (for inspection/tests).
  [[nodiscard]] const AngularSpectrum* baseline_spectrum(
      std::size_t array_idx, const rfid::Epc96& epc) const;

  /// The worker pool shared with the localizer; null when num_workers
  /// resolves to 1 (fully serial pipeline).
  [[nodiscard]] const std::shared_ptr<ThreadPool>& thread_pool()
      const noexcept {
    return pool_;
  }

  /// Serving-layer hook: replace the worker pool with an externally
  /// owned (typically fleet-shared) one; nullptr reverts to fully
  /// serial. Safe at any epoch boundary — results are bit-identical
  /// for every pool size, per the likelihood-grid determinism
  /// contract. The pool must outlive the pipeline.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) noexcept {
    pool_ = std::move(pool);
    localizer_.set_thread_pool(pool_);
  }

  /// Serving-layer brownout hook: apply (or clear, with a default
  /// profile) runtime coarsening — localizer grid stride + truncated
  /// P-MUSIC rank cap. Call only at an epoch boundary on the thread
  /// that drives the pipeline (it retunes the estimators the workers
  /// share). set_brownout({}) restores the configured estimators
  /// exactly; subsequent fixes are bit-identical to a pipeline that
  /// was never coarsened.
  void set_brownout(const BrownoutProfile& profile);
  [[nodiscard]] const BrownoutProfile& brownout() const noexcept {
    return brownout_;
  }

 private:
  /// What detect() found for one observation.
  struct Detection {
    std::vector<PathDrop> drops;
    /// The drops' kernel was widened: the correlation rests on fewer
    /// than degraded.min_snapshots snapshot columns.
    bool widened = false;
  };

  /// Row check, copy and phase calibration of one snapshot matrix: the
  /// one pre-processing step (workflow step 2) shared by baselines and
  /// online observations. The result lives in calibrated_ until the
  /// next call.
  [[nodiscard]] const linalg::CMatrix& calibrated(
      std::size_t array_idx, const linalg::CMatrix& snapshots);
  /// A stored reference spectrum with its detection windows, derived
  /// from it when it is stored (never checkpointed: export_state()
  /// carries only the spectrum and restore() derives the windows again).
  struct Baseline {
    AngularSpectrum spectrum;
    DetectionWindows windows;
  };

  /// Drop detection for one observation with a known baseline, on the
  /// online correlation `r` over `num_snapshots` calibrated columns
  /// (this report's in batch mode, the epoch's accumulated ones in
  /// streaming mode). Baseline peak positions come from the P-MUSIC
  /// spectrum; the ONLINE power at those positions is read from the
  /// beamforming power PB, which is free of MUSIC's model-order
  /// jitter, evaluated only at the bins of the baseline's windows.
  [[nodiscard]] Detection detect(std::size_t array_idx,
                                 const rfid::Epc96& epc,
                                 const Baseline& baseline,
                                 const linalg::CMatrix& r,
                                 std::size_t num_snapshots) const;
  void check_array(std::size_t array_idx) const;

  /// The one counting site: adds `n` to this epoch's and the lifetime
  /// count of `field` and, with obs on, to its registry series.
  void tally(std::size_t EvidenceCounters::*field, std::size_t n = 1);

  /// Per-epoch RSS bookkeeping for one observation with a stored
  /// baseline: coherence sampling plus (when the tag is surveyed and a
  /// baseline power exists) the link drop.
  void accumulate_rss(std::size_t array_idx, const rfid::Epc96& epc,
                      const linalg::CMatrix& snapshots);
  [[nodiscard]] std::vector<std::uint8_t> excluded_flags() const;

  /// filtered_evidence(), logging each rejected ghost only when
  /// `log_rejections` is set.
  [[nodiscard]] std::vector<AngularEvidence> filter_ghosts(
      bool log_rejections) const;
  /// localize_best_effort() with the ghost filter's logging switch.
  [[nodiscard]] LocationEstimate best_effort_fix(bool log_ghosts) const;

  /// Run one convergence check after a streaming observation; flips
  /// converged_ once the fix has been stable long enough. The probe is
  /// not a fix: it logs no ghost rejections.
  void check_convergence();

  std::vector<rf::UniformLinearArray> arrays_;
  PipelineOptions options_;
  /// Localizes from phase evidence or, in RSS mode, from RSS links.
  Localizer localizer_;
  SpectrumChangeDetector detector_;
  /// One estimator per array, built once (estimators are immutable and
  /// shared by all workers).
  std::vector<PMusicEstimator> pmusic_;
  std::vector<std::optional<std::vector<double>>> calibration_;
  /// correction_phasors() of each array's calibration (empty when
  /// uncalibrated), derived in set_calibration() and restore().
  std::vector<std::vector<linalg::Complex>> phasors_;
  std::vector<std::map<rfid::Epc96, Baseline>> baselines_;
  /// RSS fallback reference state (NOT checkpointed; see export_state).
  std::vector<std::map<rfid::Epc96, double>> rss_baselines_;
  std::map<rfid::Epc96, rf::Vec2> tag_positions_;
  std::vector<AngularEvidence> evidence_;
  PipelineStats stats_;
  std::shared_ptr<ThreadPool> pool_;
  /// Active brownout coarsening (default = configured behaviour).
  BrownoutProfile brownout_;
  /// Per-epoch state (reset by begin_epoch): the evidence counts this
  /// epoch's ConfidenceReport carries, the staleness watermark and the
  /// RSS fallback's link evidence + phase-health average.
  struct EpochState : EvidenceCounters {
    std::uint64_t watermark_us = 0;
    std::vector<RssLink> rss_links;
    double coherence_sum = 0.0;
    std::size_t coherence_count = 0;
  };
  EpochState epoch_;

  /// Streaming-path state (empty / inert unless options_.streaming is
  /// enabled): one accumulated covariance per (array, tag), reset every
  /// epoch and dropped by restore().
  std::vector<std::map<rfid::Epc96, IncrementalCovariance>> streams_;
  /// Streamed observations per array this epoch (convergence gating).
  std::vector<std::size_t> stream_reports_;
  StreamingStats streaming_stats_;
  /// Convergence detection for the current epoch.
  LocationEstimate last_estimate_;
  std::size_t stable_checks_ = 0;
  bool converged_ = false;
  /// Observation scratch, reused across calls: the snapshot fill's
  /// buffers, the filled matrix and its calibrated copy.
  SnapshotAssembler assembler_;
  linalg::CMatrix raw_;
  linalg::CMatrix calibrated_;
  /// Max of every begun epoch's watermark and every accepted
  /// first_seen_us; carried into the next epoch as the default
  /// watermark when begin_epoch(0) is called with staleness rejection
  /// on. Checkpointed as PipelineState::watermark_us.
  std::uint64_t max_seen_us_ = 0;
};

}  // namespace dwatch::core
