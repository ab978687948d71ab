#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "linalg/simd_kernels.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dwatch::core {

namespace {

/// Process-wide mirrors of the pipeline lifetime counters, registered
/// once and cached as references (registry metrics never move). Only
/// touched inside `if (obs::enabled())` blocks, so a disabled build
/// never even registers them.
struct PipelineCounters {
  obs::Counter& epochs;
  obs::Counter& observations;
  obs::Counter& observations_skipped;
  obs::Counter& drops_detected;
  obs::Counter& stale_observations;
  obs::Counter& low_snapshot_observations;
  obs::Counter& malformed_observations;
  obs::Counter& reports_dropped;
  obs::Counter& transport_retries;
  obs::Counter& transport_timeouts;

  static PipelineCounters& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PipelineCounters counters{
        reg.counter("dwatch_pipeline_epochs_total"),
        reg.counter("dwatch_pipeline_observations_total"),
        reg.counter("dwatch_pipeline_observations_skipped_total"),
        reg.counter("dwatch_pipeline_drops_detected_total"),
        reg.counter("dwatch_pipeline_stale_observations_total"),
        reg.counter("dwatch_pipeline_low_snapshot_observations_total"),
        reg.counter("dwatch_pipeline_malformed_observations_total"),
        reg.counter("dwatch_pipeline_reports_dropped_total"),
        reg.counter("dwatch_pipeline_transport_retries_total"),
        reg.counter("dwatch_pipeline_transport_timeouts_total")};
    return counters;
  }
};

/// Plan-view array centers for the RSS localizer.
std::vector<rf::Vec2> array_centers_xy(
    const std::vector<rf::UniformLinearArray>& arrays) {
  std::vector<rf::Vec2> centers;
  centers.reserve(arrays.size());
  for (const auto& array : arrays) centers.push_back(array.center().xy());
  return centers;
}

/// Mean per-sample power of a snapshot matrix (the RSS observable).
double mean_power(const linalg::CMatrix& x) {
  if (x.rows() == 0 || x.cols() == 0) return 0.0;
  double total = 0.0;
  for (std::size_t n = 0; n < x.cols(); ++n) {
    for (std::size_t m = 0; m < x.rows(); ++m) {
      total += std::norm(x(m, n));
    }
  }
  return total / static_cast<double>(x.rows() * x.cols());
}

}  // namespace

linalg::CMatrix observation_to_snapshots(const rfid::TagObservation& obs,
                                         std::size_t num_elements) {
  if (num_elements == 0) {
    throw std::invalid_argument("observation_to_snapshots: M == 0");
  }
  // Group samples by round.
  std::map<std::uint32_t, std::vector<std::optional<linalg::Complex>>> rounds;
  for (const rfid::PhaseSample& s : obs.samples) {
    if (s.element_id == 0 || s.element_id > num_elements) {
      throw std::invalid_argument(
          "observation_to_snapshots: element id out of range");
    }
    auto& row = rounds[s.round];
    if (row.empty()) row.resize(num_elements);
    row[s.element_id - 1] = s.as_complex();
  }
  // Keep complete rounds only.
  std::vector<const std::vector<std::optional<linalg::Complex>>*> complete;
  for (const auto& [round, row] : rounds) {
    bool full = true;
    for (const auto& v : row) {
      if (!v) {
        full = false;
        break;
      }
    }
    if (full) complete.push_back(&row);
  }
  if (complete.empty()) {
    throw std::invalid_argument(
        "observation_to_snapshots: no complete round");
  }
  linalg::CMatrix x(num_elements, complete.size());
  for (std::size_t n = 0; n < complete.size(); ++n) {
    for (std::size_t m = 0; m < num_elements; ++m) {
      x(m, n) = *(*complete[n])[m];
    }
  }
  return x;
}

DWatchPipeline::DWatchPipeline(std::vector<rf::UniformLinearArray> arrays,
                               SearchBounds bounds, PipelineOptions options)
    : arrays_(std::move(arrays)),
      options_(options),
      localizer_(arrays_, bounds, options.localizer),
      rss_localizer_(array_centers_xy(arrays_), bounds,
                     options.localizer.grid_step, options.rss_only),
      detector_(options.change),
      calibration_(arrays_.size()),
      baselines_(arrays_.size()),
      rss_baselines_(arrays_.size()),
      evidence_(arrays_.size()) {
  // A single-element array has no angular aperture: default_subarray(1)
  // returns 1 and every spectral consumer downstream throws. Reject at
  // construction so the contract surfaces here, not mid-epoch.
  for (const auto& array : arrays_) {
    if (array.num_elements() < 2) {
      throw std::invalid_argument(
          "DWatchPipeline: arrays need >= 2 elements");
    }
  }
  pmusic_.reserve(arrays_.size());
  for (const auto& array : arrays_) {
    pmusic_.emplace_back(array.spacing(), array.lambda(), options_.pmusic);
  }
  streams_.resize(arrays_.size());
  stream_reports_.resize(arrays_.size(), 0);
  // Record which kernel path will serve this pipeline's fixes (gauge
  // dwatch_simd_backend + one simd.dispatch event; no-op with obs off).
  linalg::simd::publish_backend();
  const std::size_t workers =
      options_.num_workers == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options_.num_workers;
  if (workers > 1) {
    pool_ = std::make_shared<ThreadPool>(workers);
    localizer_.set_thread_pool(pool_);
  }
}

void DWatchPipeline::set_brownout(const BrownoutProfile& profile) {
  brownout_ = profile;
  if (brownout_.grid_stride < 1) brownout_.grid_stride = 1;
  localizer_.set_grid_stride(brownout_.grid_stride);
  // Effective rank: 0 in the profile keeps the configured rank; both
  // set -> the smaller (coarser, cheaper) one wins. Clearing the
  // profile therefore restores the configured value exactly.
  const std::size_t configured = options_.pmusic.music.max_signal_rank;
  std::size_t effective = configured;
  if (brownout_.max_signal_rank > 0) {
    effective = configured == 0
                    ? brownout_.max_signal_rank
                    : std::min(configured, brownout_.max_signal_rank);
  }
  for (auto& estimator : pmusic_) estimator.set_max_signal_rank(effective);
}

void DWatchPipeline::check_array(std::size_t array_idx) const {
  if (array_idx >= arrays_.size()) {
    throw std::out_of_range("DWatchPipeline: bad array index");
  }
}

void DWatchPipeline::set_calibration(std::size_t array_idx,
                                     std::vector<double> offsets) {
  check_array(array_idx);
  if (offsets.size() != arrays_[array_idx].num_elements()) {
    throw std::invalid_argument("set_calibration: offset count mismatch");
  }
  calibration_[array_idx] = std::move(offsets);
}

const std::optional<std::vector<double>>& DWatchPipeline::calibration(
    std::size_t array_idx) const {
  check_array(array_idx);
  return calibration_[array_idx];
}

void DWatchPipeline::clear_baselines(std::size_t array_idx) {
  check_array(array_idx);
  baselines_[array_idx].clear();
  rss_baselines_[array_idx].clear();
}

void DWatchPipeline::set_tag_position(const rfid::Epc96& epc,
                                      rf::Vec2 position) {
  tag_positions_[epc] = position;
}

double DWatchPipeline::phase_health() const noexcept {
  return epoch_.coherence_count == 0
             ? 1.0
             : epoch_.coherence_sum /
                   static_cast<double>(epoch_.coherence_count);
}

bool DWatchPipeline::rss_active() const noexcept {
  if (options_.rss_only.force) return true;
  if (options_.rss_only.auto_health_threshold <= 0.0) return false;
  return epoch_.coherence_count > 0 &&
         phase_health() < options_.rss_only.auto_health_threshold;
}

void DWatchPipeline::accumulate_rss(std::size_t array_idx,
                                    const rfid::Epc96& epc, double coherence,
                                    double online_power) {
  epoch_.coherence_sum += coherence;
  ++epoch_.coherence_count;
  const auto pos = tag_positions_.find(epc);
  if (pos == tag_positions_.end()) return;
  const auto base = rss_baselines_[array_idx].find(epc);
  if (base == rss_baselines_[array_idx].end() || base->second <= 0.0) return;
  const double drop = 1.0 - online_power / base->second;
  if (drop <= 0.0) return;
  epoch_.rss_links.push_back(RssLink{
      .array_idx = array_idx,
      .tag_position = pos->second,
      .drop_fraction = std::min(drop, 1.0),
  });
}

std::vector<std::uint8_t> DWatchPipeline::excluded_flags() const {
  std::vector<std::uint8_t> flags;
  flags.reserve(evidence_.size());
  for (const AngularEvidence& e : evidence_) {
    flags.push_back(e.excluded ? 1 : 0);
  }
  return flags;
}

PipelineState DWatchPipeline::export_state() const {
  PipelineState state;
  state.calibration = calibration_;
  state.baselines = baselines_;
  state.excluded.reserve(evidence_.size());
  for (const AngularEvidence& e : evidence_) {
    state.excluded.push_back(e.excluded ? 1 : 0);
  }
  state.stats = stats_;
  state.watermark_us = epoch_.watermark_us;
  return state;
}

void DWatchPipeline::restore(const PipelineState& state) {
  if (state.calibration.size() != arrays_.size() ||
      state.baselines.size() != arrays_.size() ||
      state.excluded.size() != arrays_.size()) {
    throw std::invalid_argument("restore: array count mismatch");
  }
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    if (state.calibration[a] &&
        state.calibration[a]->size() != arrays_[a].num_elements()) {
      throw std::invalid_argument("restore: calibration size mismatch");
    }
  }
  calibration_ = state.calibration;
  baselines_ = state.baselines;
  // The RSS fallback's references are not checkpointed (frozen DWCP v1
  // layout): drop any in-memory remnants so a restored pipeline never
  // pairs old link powers with the reinstalled spectral baselines. The
  // phase path is bit-identical; RSS re-arms on the next re-baseline.
  rss_baselines_.assign(arrays_.size(), {});
  tag_positions_.clear();
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    evidence_[a].drops.clear();
    evidence_[a].excluded = state.excluded[a] != 0;
  }
  stats_ = state.stats;
  epoch_ = EpochState{};
  epoch_.watermark_us = state.watermark_us;
  max_seen_us_ = state.watermark_us;
  // Streaming state is in-memory only (the DWCP v1 layout is frozen):
  // drop accumulated covariances and tracked bases; trackers rebuild
  // from the dense oracle on the first post-restore observation.
  for (auto& per_array : streams_) per_array.clear();
  std::fill(stream_reports_.begin(), stream_reports_.end(), 0);
  last_estimate_ = LocationEstimate{};
  stable_checks_ = 0;
  converged_ = false;
}

AngularSpectrum DWatchPipeline::compute_omega(
    std::size_t array_idx, const linalg::CMatrix& snapshots) const {
  const auto& array = arrays_[array_idx];
  if (snapshots.rows() != array.num_elements()) {
    throw std::invalid_argument("DWatchPipeline: snapshot row mismatch");
  }
  linalg::CMatrix x = snapshots;
  if (calibration_[array_idx]) {
    apply_phase_correction(x, *calibration_[array_idx]);
  }
  return pmusic_[array_idx].estimate(x).omega;
}

AngularSpectrum DWatchPipeline::compute_online_power(
    std::size_t array_idx, const linalg::CMatrix& snapshots) const {
  const auto& array = arrays_[array_idx];
  if (snapshots.rows() != array.num_elements()) {
    throw std::invalid_argument("DWatchPipeline: snapshot row mismatch");
  }
  linalg::CMatrix x = snapshots;
  if (calibration_[array_idx]) {
    apply_phase_correction(x, *calibration_[array_idx]);
  }
  return pmusic_[array_idx].power_spectrum(sample_correlation(x));
}

void DWatchPipeline::add_baseline(std::size_t array_idx,
                                  const rfid::Epc96& epc,
                                  const linalg::CMatrix& snapshots) {
  check_array(array_idx);
  auto [it, inserted] = baselines_[array_idx].insert_or_assign(
      epc, compute_omega(array_idx, snapshots));
  if (inserted) ++stats_.baselines;
  // Calibration is phase-only, so the uncorrected magnitudes double as
  // the RSS fallback's per-link reference power.
  rss_baselines_[array_idx].insert_or_assign(epc, mean_power(snapshots));
}

void DWatchPipeline::add_baseline(std::size_t array_idx,
                                  const rfid::TagObservation& obs) {
  check_array(array_idx);
  add_baseline(array_idx, obs.epc,
               observation_to_snapshots(
                   obs, arrays_[array_idx].num_elements()));
}

void DWatchPipeline::begin_epoch(std::uint64_t watermark_us) {
  for (auto& e : evidence_) e.drops.clear();  // health flags persist
  // Default watermark: carry the highest timestamp accepted so far. A
  // caller that never supplies watermarks (0) used to run with stale
  // rejection silently disabled — the `watermark_us > 0` guard in the
  // staleness gate never fired — so retransmissions of a previous
  // epoch's reports polluted the new epoch. Explicit watermarks (the
  // serving layer's widen-epoch path keeps the FIRST one) still win.
  if (watermark_us == 0 && options_.degraded.reject_stale) {
    watermark_us = max_seen_us_;
  }
  epoch_ = EpochState{};
  epoch_.watermark_us = watermark_us;
  // Streaming per-epoch state: covariances restart (the epoch is the
  // averaging window); trackers keep their basis across epochs — the
  // warm start is the point of tracking.
  if (options_.streaming.enabled) {
    for (auto& per_array : streams_) {
      for (auto& [epc, stream] : per_array) stream.cov.reset();
    }
  }
  std::fill(stream_reports_.begin(), stream_reports_.end(), 0);
  last_estimate_ = LocationEstimate{};
  stable_checks_ = 0;
  converged_ = false;
  ++stats_.epochs;
  if (obs::enabled()) PipelineCounters::get().epochs.inc();
}

void DWatchPipeline::set_array_health(std::size_t array_idx, bool healthy) {
  check_array(array_idx);
  const bool was_excluded = evidence_[array_idx].excluded;
  evidence_[array_idx].excluded = !healthy;
  // K-of-N exclusion changes are rare, discrete and operationally
  // important — exactly what the event log is for.
  if (obs::enabled() && was_excluded == healthy) {
    obs::EventLog::global().emit(
        obs::Event(healthy ? "pipeline.array_restored"
                           : "pipeline.array_excluded")
            .field("array", array_idx)
            .field("arrays_total", arrays_.size()));
  }
}

bool DWatchPipeline::array_healthy(std::size_t array_idx) const {
  check_array(array_idx);
  return !evidence_[array_idx].excluded;
}

void DWatchPipeline::note_transport(std::size_t retries,
                                    std::size_t timeouts) {
  epoch_.transport_retries += retries;
  epoch_.transport_timeouts += timeouts;
  stats_.transport_retries += retries;
  stats_.transport_timeouts += timeouts;
  if (obs::enabled()) {
    PipelineCounters::get().transport_retries.inc(retries);
    PipelineCounters::get().transport_timeouts.inc(timeouts);
  }
}

void DWatchPipeline::note_reports_dropped(std::size_t count) {
  epoch_.reports_dropped += count;
  stats_.reports_dropped += count;
  if (obs::enabled()) PipelineCounters::get().reports_dropped.inc(count);
}

void DWatchPipeline::count_observation(bool has_baseline,
                                       std::size_t num_snapshots,
                                       std::size_t num_drops) {
  const bool enabled = obs::enabled();
  if (!has_baseline) {
    ++stats_.observations_skipped;
    ++epoch_.observations_skipped;
    if (enabled) PipelineCounters::get().observations_skipped.inc();
    return;
  }
  ++stats_.observations;
  ++epoch_.observations;
  if (enabled) PipelineCounters::get().observations.inc();
  if (num_snapshots < options_.degraded.min_snapshots) {
    ++stats_.low_snapshot_observations;
    ++epoch_.low_snapshot_observations;
    if (enabled) PipelineCounters::get().low_snapshot_observations.inc();
  }
  stats_.drops_detected += num_drops;
  epoch_.drops_detected += num_drops;
  if (enabled) PipelineCounters::get().drops_detected.inc(num_drops);
}

std::vector<PathDrop> DWatchPipeline::detect_drops(
    std::size_t array_idx, const rfid::Epc96& epc,
    const AngularSpectrum& baseline, const linalg::CMatrix& snapshots) const {
  // Baseline peak positions come from the P-MUSIC spectrum; the ONLINE
  // power at those positions is read from the beamforming power spectrum
  // PB, which is free of MUSIC's model-order jitter (a vanished weak
  // MUSIC peak must not masquerade as a physical power drop). At a peak
  // the two spectra share the same scale: Omega = PB * Nor(B) with
  // Nor(B) == 1 there.
  const AngularSpectrum online_power =
      compute_online_power(array_idx, snapshots);
  std::vector<PathDrop> drops = detector_.detect(baseline, online_power);
  // Degraded mode: a spectrum computed from too few snapshots carries a
  // less trustworthy peak angle — widen its localization kernel.
  const bool low_snapshots =
      snapshots.cols() < options_.degraded.min_snapshots;
  for (PathDrop& d : drops) {
    d.source_id = epc.serial();
    if (low_snapshots) d.sigma_scale = options_.degraded.sigma_widen;
  }
  return drops;
}

std::vector<PathDrop> DWatchPipeline::detect_drops_streaming(
    std::size_t array_idx, const rfid::Epc96& epc,
    const AngularSpectrum& baseline, const linalg::CMatrix& snapshots) {
  DWATCH_SPAN("pipeline.streaming_observe");
  const auto& array = arrays_[array_idx];
  if (snapshots.rows() != array.num_elements()) {
    throw std::invalid_argument("DWatchPipeline: snapshot row mismatch");
  }
  linalg::CMatrix x = snapshots;
  if (calibration_[array_idx]) {
    apply_phase_correction(x, *calibration_[array_idx]);
  }

  const std::size_t m = array.num_elements();
  auto [it, inserted] = streams_[array_idx].try_emplace(
      epc, StreamState{IncrementalCovariance(m),
                       SubspaceTracker(options_.streaming.tracker)});
  StreamState& stream = it->second;
  stream.cov.accumulate(x);
  ++stream_reports_[array_idx];
  streaming_stats_.rank1_updates += x.cols();

  // The EPOCH-accumulated correlation, not this report's: every new
  // report sharpens the spectrum instead of standing alone, which is
  // why the drops below REPLACE the tag's earlier evidence.
  const linalg::CMatrix r = stream.cov.correlation();
  // Mirror the batch smoothing choice (music.cpp): subarray 0 resolves
  // to the default; L == M skips the smoother.
  std::size_t l = options_.pmusic.music.subarray;
  if (l == 0) l = default_subarray(m);
  const linalg::CMatrix smoothed = l == m ? r : forward_backward_smooth(r, l);
  const SubspaceUpdateResult upd = stream.tracker.update(smoothed);
  if (upd.reset) ++streaming_stats_.tracker_resets;

  // Full Omega = PB(R) * Nor(B) from the TRACKED basis — no dense EVD
  // on the warm path. This is the streamed spectral product (parity
  // contract vs the batch EVD lives in the tracker tests).
  PMusicResult pm = pmusic_[array_idx].compose(
      r, pmusic_[array_idx].music().estimate_from_subspace(
             stream.tracker.subspace(), stream.tracker.eigenvalues(),
             stream.tracker.trace(), stream.cov.num_snapshots()));
  ++streaming_stats_.streamed_spectra;

  // Drop detection mirrors the batch contract EXACTLY: the online
  // power at the baseline peaks is read from the beamforming spectrum
  // PB, never from Omega. Nor(B) < 1 wherever the ONLINE MUSIC peaks
  // have shifted away from a baseline peak, so reading Omega there
  // manufactures phantom drops out of model-order jitter — with thin
  // evidence (few tags) those phantoms outvote the real drops and the
  // likelihood argmax pins at the grid edge.
  std::vector<PathDrop> drops = detector_.detect(baseline, pm.power);
  // Degraded widening keys on the ACCUMULATED snapshot count: once the
  // epoch has gathered enough columns for this tag, its angle is as
  // trustworthy as a batch spectrum over the same data.
  const bool low_snapshots =
      stream.cov.num_snapshots() < options_.degraded.min_snapshots;
  for (PathDrop& d : drops) {
    d.source_id = epc.serial();
    if (low_snapshots) d.sigma_scale = options_.degraded.sigma_widen;
  }
  return drops;
}

void DWatchPipeline::check_convergence() {
  if (!options_.streaming.early_seal || converged_) return;
  // Every healthy array must have (a) contributed min_reports streamed
  // observations and (b) at least one drop on file. One array's
  // evidence alone gives a likelihood ridge whose argmax can pin
  // spuriously, and an array that has BARELY reported can stabilize a
  // partial-evidence ghost (collinear deployments are the worst case:
  // the mirror ambiguity only resolves with the late array's tags).
  for (std::size_t a = 0; a < evidence_.size(); ++a) {
    if (evidence_[a].excluded) continue;
    if (stream_reports_[a] < options_.streaming.min_reports) return;
    if (evidence_[a].drops.empty()) return;
  }
  ++streaming_stats_.convergence_checks;
  // The stability probe runs on a COARSE grid (see StreamingOptions):
  // only the seal-time fix needs full resolution. Never undercut an
  // active brownout stride.
  const std::size_t prev_stride = localizer_.grid_stride();
  localizer_.set_grid_stride(std::max<std::size_t>(
      {1, prev_stride, options_.streaming.convergence_grid_stride}));
  const LocationEstimate est = localize_best_effort();
  localizer_.set_grid_stride(prev_stride);
  if (!est.valid) {
    stable_checks_ = 0;
    last_estimate_ = est;
    return;
  }
  bool stable = false;
  if (last_estimate_.valid) {
    const double dx = est.position.x - last_estimate_.position.x;
    const double dy = est.position.y - last_estimate_.position.y;
    const double denom = std::max(std::abs(last_estimate_.likelihood), 1e-12);
    const double rel =
        std::abs(est.likelihood - last_estimate_.likelihood) / denom;
    stable = std::sqrt(dx * dx + dy * dy) <=
                 options_.streaming.position_tolerance_m &&
             rel <= options_.streaming.likelihood_tolerance;
  }
  stable_checks_ = stable ? stable_checks_ + 1 : 0;
  last_estimate_ = est;
  if (stable_checks_ >= options_.streaming.convergence_window) {
    converged_ = true;
    ++streaming_stats_.early_seals;
    if (obs::enabled()) {
      obs::EventLog::global().emit(
          obs::Event("pipeline.early_seal")
              .field("observations", epoch_.observations)
              .field("x", est.position.x)
              .field("y", est.position.y)
              .field("likelihood", est.likelihood));
    }
  }
}

std::size_t DWatchPipeline::observe(std::size_t array_idx,
                                    const rfid::Epc96& epc,
                                    const linalg::CMatrix& snapshots) {
  DWATCH_SPAN("pipeline.observe");
  check_array(array_idx);
  const auto it = baselines_[array_idx].find(epc);
  if (it == baselines_[array_idx].end()) {
    count_observation(false, snapshots.cols(), 0);
    return 0;
  }
  const bool streaming = options_.streaming.enabled;
  if (streaming && converged_) {
    ++streaming_stats_.post_convergence_observations;
  }
  std::vector<PathDrop> drops =
      streaming ? detect_drops_streaming(array_idx, epc, it->second, snapshots)
                : detect_drops(array_idx, epc, it->second, snapshots);
  count_observation(true, snapshots.cols(), drops.size());
  accumulate_rss(array_idx, epc, phase_coherence(snapshots),
                 mean_power(snapshots));
  auto& sink = evidence_[array_idx].drops;
  if (streaming) {
    // The streamed spectrum covers ALL of this tag's snapshots so far,
    // so its drops supersede — not add to — the tag's earlier evidence.
    std::erase_if(sink, [&](const PathDrop& d) {
      return d.source_id == epc.serial();
    });
  }
  sink.insert(sink.end(), drops.begin(), drops.end());
  if (streaming) check_convergence();
  return drops.size();
}

std::size_t DWatchPipeline::observe_batch(
    std::span<const BatchObservation> batch) {
  DWATCH_SPAN("pipeline.observe_batch");
  for (const BatchObservation& item : batch) check_array(item.array_idx);

  // Deterministic merge order: by array index, then EPC, then input
  // position. The order never depends on worker scheduling, so an
  // epoch's evidence is bit-identical for every num_workers setting.
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&batch](std::size_t a, std::size_t b) {
                     return std::tie(batch[a].array_idx, batch[a].epc) <
                            std::tie(batch[b].array_idx, batch[b].epc);
                   });

  if (options_.streaming.enabled) {
    // The streaming path is stateful per (array, tag) — fanning it out
    // would race on the incremental covariances. Honour the documented
    // "observe() in sorted order" contract by literally running it.
    std::size_t total = 0;
    for (const std::size_t idx : order) {
      const BatchObservation& item = batch[idx];
      total += observe(item.array_idx, item.epc, item.snapshots);
    }
    return total;
  }

  // Fan the spectra out: every slot is written by exactly one task, all
  // shared pipeline state (arrays, calibration, baselines, estimators)
  // is read-only during the scan.
  struct ItemResult {
    bool has_baseline = false;
    std::vector<PathDrop> drops;
    double coherence = 0.0;
    double online_power = 0.0;
  };
  std::vector<ItemResult> results(batch.size());
  const auto process = [&](std::size_t slot) {
    const BatchObservation& item = batch[order[slot]];
    const auto it = baselines_[item.array_idx].find(item.epc);
    if (it == baselines_[item.array_idx].end()) return;
    results[slot].has_baseline = true;
    results[slot].coherence = phase_coherence(item.snapshots);
    results[slot].online_power = mean_power(item.snapshots);
    results[slot].drops =
        detect_drops(item.array_idx, item.epc, it->second, item.snapshots);
  };
  if (pool_ && pool_->num_workers() > 1) {
    pool_->parallel_for(batch.size(), process);
  } else {
    for (std::size_t slot = 0; slot < batch.size(); ++slot) process(slot);
  }

  // Serial merge in the sorted order.
  std::size_t total = 0;
  for (std::size_t slot = 0; slot < batch.size(); ++slot) {
    const ItemResult& r = results[slot];
    const BatchObservation& item = batch[order[slot]];
    // Same bookkeeping, in the same order, as the serial observe() loop,
    // so counters, RSS links and phase health are bit-identical too.
    count_observation(r.has_baseline, item.snapshots.cols(),
                      r.drops.size());
    if (!r.has_baseline) continue;
    accumulate_rss(item.array_idx, item.epc, r.coherence, r.online_power);
    auto& sink = evidence_[item.array_idx].drops;
    sink.insert(sink.end(), r.drops.begin(), r.drops.end());
    total += r.drops.size();
  }
  return total;
}

std::size_t DWatchPipeline::observe(std::size_t array_idx,
                                    const rfid::TagObservation& obs) {
  check_array(array_idx);
  // Staleness gate: a retransmission of a pre-epoch observation must
  // not pollute this epoch's evidence (quarantined, counted, no abort).
  if (options_.degraded.reject_stale && epoch_.watermark_us > 0 &&
      obs.first_seen_us < epoch_.watermark_us) {
    ++stats_.stale_observations;
    ++epoch_.stale_observations;
    if (dwatch::obs::enabled()) {
      PipelineCounters::get().stale_observations.inc();
      dwatch::obs::EventLog::global().emit(
          dwatch::obs::Event("pipeline.stale_observation")
              .field("array", array_idx)
              .field_bytes("epc", obs.epc.bytes())
              .field("first_seen_us", obs.first_seen_us)
              .field("watermark_us", epoch_.watermark_us));
    }
    return 0;
  }
  // Track the frontier of accepted timestamps: begin_epoch(0) carries
  // it forward as the next epoch's default watermark.
  if (obs.first_seen_us > max_seen_us_) max_seen_us_ = obs.first_seen_us;
  linalg::CMatrix snapshots;
  try {
    snapshots =
        observation_to_snapshots(obs, arrays_[array_idx].num_elements());
  } catch (const std::invalid_argument&) {
    // No complete inventory round survived (dead element, sample loss):
    // quarantine the observation instead of aborting the epoch.
    ++stats_.malformed_observations;
    ++epoch_.malformed_observations;
    if (dwatch::obs::enabled()) {
      PipelineCounters::get().malformed_observations.inc();
      dwatch::obs::EventLog::global().emit(
          dwatch::obs::Event("pipeline.malformed_observation")
              .field("array", array_idx)
              .field_bytes("epc", obs.epc.bytes())
              .field("samples", obs.samples.size()));
    }
    return 0;
  }
  return observe(array_idx, obs.epc, snapshots);
}

std::vector<AngularEvidence> DWatchPipeline::filtered_evidence() const {
  if (!options_.ghost_filtering) return evidence_;
  // How many USABLE arrays each tag dropped at. An excluded array's
  // drops never reach localization, so they must not vote here either:
  // counting them would let a dead array's garbage flip `multi_array`
  // and make the filter reject a healthy array's only (uncorroborated)
  // drop — exactly the K-of-N epochs where every drop matters.
  std::map<std::uint32_t, std::size_t> arrays_per_tag;
  for (const auto& e : evidence_) {
    if (e.excluded) continue;
    std::set<std::uint32_t> tags_here;
    for (const PathDrop& d : e.drops) tags_here.insert(d.source_id);
    for (const std::uint32_t t : tags_here) ++arrays_per_tag[t];
  }
  const double tol = 2.0 * options_.localizer.kernel_sigma;
  std::vector<AngularEvidence> out(evidence_.size());
  for (std::size_t a = 0; a < evidence_.size(); ++a) {
    out[a].excluded = evidence_[a].excluded;
    const auto& drops = evidence_[a].drops;
    for (const PathDrop& d : drops) {
      const bool multi_array = arrays_per_tag[d.source_id] >= 2;
      bool corroborated = false;
      for (const PathDrop& other : drops) {
        if (other.source_id != d.source_id &&
            std::abs(other.theta - d.theta) <= tol) {
          corroborated = true;
          break;
        }
      }
      if (multi_array && !corroborated) {
        // Section 4.3 outlier rejection fired: record WHICH angle was
        // thrown away and why, the evidence the paper's accuracy
        // argument rests on. filtered_evidence() runs once per
        // localize/triangulate call, so repeated fixes over one epoch
        // re-emit their rejections (each fix really did reject them).
        if (obs::enabled()) {
          obs::EventLog::global().emit(
              obs::Event("pipeline.ghost_rejected")
                  .field("array", a)
                  .field("theta_rad", d.theta)
                  .field("tag_serial", d.source_id)
                  .field("baseline_power", d.baseline_power)
                  .field("online_power", d.online_power));
        }
        continue;  // wrong-angle ghost
      }
      out[a].drops.push_back(d);
    }
  }
  return out;
}

LocationEstimate DWatchPipeline::localize() const {
  if (rss_active()) {
    return rss_localizer_.localize(epoch_.rss_links, excluded_flags());
  }
  return localizer_.localize(filtered_evidence());
}

ConfidenceReport DWatchPipeline::confidence_report() const {
  ConfidenceReport r;
  r.arrays_total = arrays_.size();
  for (const AngularEvidence& e : evidence_) {
    if (e.excluded) {
      ++r.arrays_excluded;
    } else if (!e.drops.empty()) {
      ++r.arrays_with_evidence;
    }
  }
  r.observations = epoch_.observations;
  r.observations_skipped = epoch_.observations_skipped;
  r.stale_observations = epoch_.stale_observations;
  r.low_snapshot_observations = epoch_.low_snapshot_observations;
  r.malformed_observations = epoch_.malformed_observations;
  r.drops_detected = epoch_.drops_detected;
  r.reports_dropped = epoch_.reports_dropped;
  r.transport_retries = epoch_.transport_retries;
  r.transport_timeouts = epoch_.transport_timeouts;
  r.rss_mode = rss_active();
  r.phase_health = phase_health();
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("dwatch_pipeline_arrays_excluded")
        .set(static_cast<double>(r.arrays_excluded));
    reg.gauge("dwatch_pipeline_arrays_with_evidence")
        .set(static_cast<double>(r.arrays_with_evidence));
  }
  return r;
}

ConfidentEstimate DWatchPipeline::localize_with_confidence(
    bool best_effort) const {
  ConfidentEstimate out;
  out.estimate = best_effort ? localize_best_effort() : localize();
  out.confidence = confidence_report();
  if (obs::enabled()) {
    const ConfidenceReport& c = out.confidence;
    obs::EventLog::global().emit(
        obs::Event("pipeline.confidence")
            .field("x", out.estimate.position.x)
            .field("y", out.estimate.position.y)
            .field("valid", out.estimate.valid)
            .field("consensus", out.estimate.consensus)
            .field("arrays_total", c.arrays_total)
            .field("arrays_with_evidence", c.arrays_with_evidence)
            .field("arrays_excluded", c.arrays_excluded)
            .field("observations", c.observations)
            .field("observations_skipped", c.observations_skipped)
            .field("stale_observations", c.stale_observations)
            .field("low_snapshot_observations", c.low_snapshot_observations)
            .field("malformed_observations", c.malformed_observations)
            .field("drops_detected", c.drops_detected)
            .field("reports_dropped", c.reports_dropped)
            .field("transport_retries", c.transport_retries)
            .field("transport_timeouts", c.transport_timeouts)
            .field("rss_mode", c.rss_mode)
            .field("phase_health", c.phase_health)
            .field("degraded", c.degraded()));
  }
  return out;
}

LocationEstimate DWatchPipeline::localize_best_effort() const {
  if (rss_active()) {
    return rss_localizer_.localize_best_effort(epoch_.rss_links,
                                               excluded_flags());
  }
  return localizer_.localize_best_effort(filtered_evidence());
}

std::vector<LocationEstimate> DWatchPipeline::localize_multi(
    std::size_t max_targets, double min_separation,
    double relative_floor) const {
  if (rss_active()) {
    return rss_localizer_.localize_multi(epoch_.rss_links, excluded_flags(),
                                         max_targets, min_separation,
                                         relative_floor);
  }
  return localizer_.localize_multi(filtered_evidence(), max_targets,
                                   min_separation, relative_floor);
}

TriangulationResult DWatchPipeline::triangulate(double cluster_radius) const {
  TriangulationOptions opts;
  opts.bounds = localizer_.bounds();
  opts.cluster_radius = cluster_radius;
  return triangulate_with_outlier_rejection(arrays_, filtered_evidence(),
                                            opts);
}

LikelihoodGrid DWatchPipeline::likelihood_grid() const {
  if (rss_active()) {
    return rss_localizer_.likelihood_grid(epoch_.rss_links,
                                          excluded_flags());
  }
  return localizer_.likelihood_grid(filtered_evidence());
}

const AngularSpectrum* DWatchPipeline::baseline_spectrum(
    std::size_t array_idx, const rfid::Epc96& epc) const {
  check_array(array_idx);
  const auto it = baselines_[array_idx].find(epc);
  return it == baselines_[array_idx].end() ? nullptr : &it->second;
}

}  // namespace dwatch::core
