#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <set>
#include <stdexcept>
#include <utility>

#include "linalg/simd_kernels.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dwatch::core {

namespace {

using CounterField = std::size_t EvidenceCounters::*;

/// Each evidence counter with its registry series name, both generated
/// from the one DWATCH_EVIDENCE_COUNTERS list.
struct CounterSeries {
  CounterField field;
  const char* name;
};
constexpr CounterSeries kCounterSeries[] = {
#define DWATCH_COUNTER_SERIES(name) \
  {&EvidenceCounters::name, "dwatch_pipeline_" #name "_total"},
    DWATCH_EVIDENCE_COUNTERS(DWATCH_COUNTER_SERIES)
#undef DWATCH_COUNTER_SERIES
};

/// Process-wide mirrors of the pipeline lifetime counters: epochs plus
/// one series per evidence counter. All ten are registered together on
/// first use, so a scrape lists every series from the first obs-on
/// epoch; reached only with obs on, so a disabled run never registers
/// them. Cached as pointers (registry metrics never move).
struct RegistryTwins {
  obs::Counter* epochs = nullptr;
  obs::Counter* evidence[std::size(kCounterSeries)] = {};

  static RegistryTwins& get() {
    static RegistryTwins twins = [] {
      auto& reg = obs::MetricsRegistry::global();
      RegistryTwins t;
      t.epochs = &reg.counter("dwatch_pipeline_epochs_total");
      for (std::size_t i = 0; i < std::size(kCounterSeries); ++i) {
        t.evidence[i] = &reg.counter(kCounterSeries[i].name);
      }
      return t;
    }();
    return twins;
  }

  obs::Counter& of(CounterField field) {
    std::size_t i = 0;
    while (kCounterSeries[i].field != field) ++i;
    return *evidence[i];
  }
};

/// Grid stride of the streaming convergence check (the stability
/// probe), NOT of the sealed fix, which is always computed at full
/// resolution. A stride of s makes each mid-backlog probe ~s^2 cheaper;
/// stability on the coarse grid means the argmax keeps choosing the
/// same cell, which is strictly harder to jitter than the
/// full-resolution argmax. Without it, per-observation probes cost as
/// much as the spectral work early sealing tries to beat, and TTFF
/// stops dropping.
constexpr std::size_t kConvergenceGridStride = 4;
/// A probe is stable when the best-effort fix moved at most this far
/// [m] since the previous probe ...
constexpr double kStablePositionM = 0.05;
/// ... and its likelihood changed by at most this relative amount.
constexpr double kStableLikelihood = 0.02;

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

void SnapshotAssembler::fill(std::span<const rfid::PhaseSample> samples,
                             std::size_t num_elements, linalg::CMatrix& out) {
  if (num_elements == 0) {
    throw std::invalid_argument("observation_to_snapshots: M == 0");
  }
  // The distinct rounds, ascending: the column order of the complete
  // ones. Readers emit a round's samples together, so skipping repeats
  // of the previous round leaves little to sort.
  rounds_.clear();
  for (const rfid::PhaseSample& s : samples) {
    if (s.element_id == 0 || s.element_id > num_elements) {
      throw std::invalid_argument(
          "observation_to_snapshots: element id out of range");
    }
    if (rounds_.empty() || rounds_.back() != s.round) {
      rounds_.push_back(s.round);
    }
  }
  std::sort(rounds_.begin(), rounds_.end());
  rounds_.erase(std::unique(rounds_.begin(), rounds_.end()), rounds_.end());
  // slot[r * M + m] = the last sample of (round r, element m); a round
  // is complete when all M of its slots are filled.
  constexpr std::size_t kNoSample = static_cast<std::size_t>(-1);
  slot_.assign(rounds_.size() * num_elements, kNoSample);
  filled_.assign(rounds_.size(), 0);
  std::size_t r = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (rounds_[r] != samples[i].round) {
      r = static_cast<std::size_t>(
          std::lower_bound(rounds_.begin(), rounds_.end(), samples[i].round) -
          rounds_.begin());
    }
    std::size_t& at = slot_[r * num_elements + samples[i].element_id - 1];
    if (at == kNoSample) ++filled_[r];
    at = i;
  }
  const auto complete = static_cast<std::size_t>(
      std::count(filled_.begin(), filled_.end(), num_elements));
  if (complete == 0) {
    throw std::invalid_argument(
        "observation_to_snapshots: no complete round");
  }
  // Dequantize only the samples that land in the matrix.
  out.resize(num_elements, complete);
  std::size_t n = 0;
  for (r = 0; r < rounds_.size(); ++r) {
    if (filled_[r] != num_elements) continue;
    for (std::size_t m = 0; m < num_elements; ++m) {
      out(m, n) = samples[slot_[r * num_elements + m]].as_complex();
    }
    ++n;
  }
}

linalg::CMatrix observation_to_snapshots(const rfid::TagObservation& obs,
                                         std::size_t num_elements) {
  linalg::CMatrix x;
  SnapshotAssembler().fill(obs.samples, num_elements, x);
  return x;
}

DWatchPipeline::DWatchPipeline(std::vector<rf::UniformLinearArray> arrays,
                               SearchBounds bounds, PipelineOptions options)
    : arrays_(std::move(arrays)),
      options_(options),
      localizer_(arrays_, bounds, options.localizer),
      detector_(options.change),
      calibration_(arrays_.size()),
      phasors_(arrays_.size()),
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
  phasors_[array_idx] = correction_phasors(offsets);
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
                                    const rfid::Epc96& epc,
                                    const linalg::CMatrix& snapshots) {
  epoch_.coherence_sum += phase_coherence(snapshots);
  ++epoch_.coherence_count;
  const auto pos = tag_positions_.find(epc);
  if (pos == tag_positions_.end()) return;
  const auto base = rss_baselines_[array_idx].find(epc);
  if (base == rss_baselines_[array_idx].end() || base->second <= 0.0) return;
  const double drop = 1.0 - mean_power(snapshots) / base->second;
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
  state.baselines.resize(baselines_.size());
  for (std::size_t a = 0; a < baselines_.size(); ++a) {
    for (const auto& [epc, baseline] : baselines_[a]) {
      state.baselines[a].emplace_hint(state.baselines[a].end(), epc,
                                      baseline.spectrum);
    }
  }
  state.excluded.reserve(evidence_.size());
  for (const AngularEvidence& e : evidence_) {
    state.excluded.push_back(e.excluded ? 1 : 0);
  }
  state.stats = stats_;
  // The accepted-timestamp frontier, so begin_epoch(0) after restore()
  // carries the same default watermark as an uninterrupted pipeline.
  // Never below the epoch's own watermark (begin_epoch raised it).
  state.watermark_us = max_seen_us_;
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
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    phasors_[a] = calibration_[a] ? correction_phasors(*calibration_[a])
                                  : std::vector<linalg::Complex>{};
    baselines_[a].clear();
    for (const auto& [epc, spectrum] : state.baselines[a]) {
      baselines_[a].emplace_hint(
          baselines_[a].end(), epc,
          Baseline{spectrum, detector_.prepare(spectrum)});
    }
  }
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
  // drop the accumulated covariances of the discarded epoch.
  for (auto& per_array : streams_) per_array.clear();
  std::fill(stream_reports_.begin(), stream_reports_.end(), 0);
  last_estimate_ = LocationEstimate{};
  stable_checks_ = 0;
  converged_ = false;
}

const linalg::CMatrix& DWatchPipeline::calibrated(
    std::size_t array_idx, const linalg::CMatrix& snapshots) {
  if (snapshots.rows() != arrays_[array_idx].num_elements()) {
    throw std::invalid_argument("DWatchPipeline: snapshot row mismatch");
  }
  calibrated_ = snapshots;  // reuses calibrated_'s storage
  if (calibration_[array_idx]) {
    apply_phase_correction(calibrated_, phasors_[array_idx]);
  }
  return calibrated_;
}

void DWatchPipeline::add_baseline(std::size_t array_idx,
                                  const rfid::Epc96& epc,
                                  const linalg::CMatrix& snapshots) {
  check_array(array_idx);
  AngularSpectrum spectrum =
      pmusic_[array_idx].estimate(calibrated(array_idx, snapshots)).omega;
  DetectionWindows windows = detector_.prepare(spectrum);
  const bool inserted =
      baselines_[array_idx]
          .insert_or_assign(epc, Baseline{std::move(spectrum),
                                          std::move(windows)})
          .second;
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
  // The epoch's watermark is part of the frontier: export_state() can
  // then carry the frontier in the one watermark field it has, and a
  // restored pipeline's next begin_epoch(0) matches this one's.
  max_seen_us_ = std::max(max_seen_us_, watermark_us);
  epoch_ = EpochState{};
  epoch_.watermark_us = watermark_us;
  // Streaming covariances restart: the epoch is the averaging window.
  for (auto& per_array : streams_) {
    for (auto& [epc, cov] : per_array) cov.reset();
  }
  std::fill(stream_reports_.begin(), stream_reports_.end(), 0);
  last_estimate_ = LocationEstimate{};
  stable_checks_ = 0;
  converged_ = false;
  ++stats_.epochs;
  if (obs::enabled()) RegistryTwins::get().epochs->inc();
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

void DWatchPipeline::tally(CounterField field, std::size_t n) {
  epoch_.*field += n;
  stats_.*field += n;
  if (obs::enabled()) RegistryTwins::get().of(field).inc(n);
}

void DWatchPipeline::note_transport(std::size_t retries,
                                    std::size_t timeouts) {
  tally(&EvidenceCounters::transport_retries, retries);
  tally(&EvidenceCounters::transport_timeouts, timeouts);
}

void DWatchPipeline::note_reports_dropped(std::size_t count) {
  tally(&EvidenceCounters::reports_dropped, count);
}

DWatchPipeline::Detection DWatchPipeline::detect(
    std::size_t array_idx, const rfid::Epc96& epc, const Baseline& baseline,
    const linalg::CMatrix& r, std::size_t num_snapshots) const {
  // PB, not Omega: at a baseline peak both share the same scale
  // (Omega = PB * Nor(B) with Nor(B) == 1 there), but Omega would
  // manufacture phantom drops wherever the online MUSIC peaks shifted
  // away from a baseline peak (Nor(B) < 1 there), and with thin
  // evidence those phantoms outvote the real drops. Only the bins the
  // windows read are evaluated; each is bit-identical to the full PB.
  Detection out;
  out.drops = detector_.detect(
      baseline.windows,
      pmusic_[array_idx].power_at(r, baseline.windows.bins));
  // Degraded mode: a spectrum computed from too few snapshots carries a
  // less trustworthy peak angle — widen its localization kernel.
  out.widened = num_snapshots < options_.degraded.min_snapshots;
  for (PathDrop& d : out.drops) {
    d.source_id = epc.serial();
    if (out.widened) d.sigma_scale = options_.degraded.sigma_widen;
  }
  return out;
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
  // The stability probe runs on a COARSE grid (see
  // kConvergenceGridStride) in either mode: only the seal-time fix needs
  // full resolution. Never undercut an active brownout stride.
  const std::size_t prev_stride = localizer_.grid_stride();
  localizer_.set_grid_stride(std::max(prev_stride, kConvergenceGridStride));
  const LocationEstimate est = best_effort_fix(/*log_ghosts=*/false);
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
    stable = std::sqrt(dx * dx + dy * dy) <= kStablePositionM &&
             rel <= kStableLikelihood;
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
    tally(&EvidenceCounters::observations_skipped);
    return 0;
  }
  const bool streaming = options_.streaming.enabled;
  if (streaming && converged_) {
    ++streaming_stats_.post_convergence_observations;
  }
  const linalg::CMatrix& x = calibrated(array_idx, snapshots);
  Detection found;
  if (streaming) {
    DWATCH_SPAN("pipeline.streaming_observe");
    // The EPOCH-accumulated correlation, not this report's: every new
    // report sharpens the spectrum instead of standing alone, which is
    // why the drops below REPLACE the tag's earlier evidence. Widening
    // keys on the accumulated snapshot count too: once the epoch has
    // gathered enough columns for this tag, its angle is as trustworthy
    // as a batch spectrum over the same data.
    IncrementalCovariance& cov =
        streams_[array_idx].try_emplace(epc, x.rows()).first->second;
    cov.accumulate(x);
    ++stream_reports_[array_idx];
    streaming_stats_.rank1_updates += x.cols();
    ++streaming_stats_.streamed_spectra;
    found = detect(array_idx, epc, it->second, cov.correlation(),
                   cov.num_snapshots());
  } else {
    found = detect(array_idx, epc, it->second, sample_correlation(x),
                   x.cols());
  }
  const std::vector<PathDrop>& drops = found.drops;
  tally(&EvidenceCounters::observations);
  // Low-snapshot exactly when detect() widened the drops' kernel.
  if (found.widened) tally(&EvidenceCounters::low_snapshot_observations);
  tally(&EvidenceCounters::drops_detected, drops.size());
  accumulate_rss(array_idx, epc, snapshots);
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

std::size_t DWatchPipeline::observe(std::size_t array_idx,
                                    const rfid::ObservationView& obs) {
  check_array(array_idx);
  // Staleness gate: a retransmission of a pre-epoch observation must
  // not pollute this epoch's evidence (quarantined, counted, no abort).
  if (options_.degraded.reject_stale && epoch_.watermark_us > 0 &&
      obs.first_seen_us < epoch_.watermark_us) {
    tally(&EvidenceCounters::stale_observations);
    if (dwatch::obs::enabled()) {
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
  try {
    assembler_.fill(obs.samples, arrays_[array_idx].num_elements(), raw_);
  } catch (const std::invalid_argument&) {
    // No complete inventory round survived (dead element, sample loss):
    // quarantine the observation instead of aborting the epoch.
    tally(&EvidenceCounters::malformed_observations);
    if (dwatch::obs::enabled()) {
      dwatch::obs::EventLog::global().emit(
          dwatch::obs::Event("pipeline.malformed_observation")
              .field("array", array_idx)
              .field_bytes("epc", obs.epc.bytes())
              .field("samples", obs.samples.size()));
    }
    return 0;
  }
  return observe(array_idx, obs.epc, raw_);
}

std::vector<AngularEvidence> DWatchPipeline::filtered_evidence() const {
  return filter_ghosts(/*log_rejections=*/true);
}

std::vector<AngularEvidence> DWatchPipeline::filter_ghosts(
    bool log_rejections) const {
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
        // re-emit their rejections (each fix really did reject them);
        // streaming convergence probes are not fixes and stay silent.
        if (log_rejections && obs::enabled()) {
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
    return localizer_.localize(epoch_.rss_links, excluded_flags());
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
  static_cast<EvidenceCounters&>(r) = epoch_;
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
  return best_effort_fix(/*log_ghosts=*/true);
}

LocationEstimate DWatchPipeline::best_effort_fix(bool log_ghosts) const {
  if (rss_active()) {
    return localizer_.localize_best_effort(epoch_.rss_links,
                                           excluded_flags());
  }
  return localizer_.localize_best_effort(filter_ghosts(log_ghosts));
}

std::vector<LocationEstimate> DWatchPipeline::localize_multi(
    std::size_t max_targets, double min_separation,
    double relative_floor) const {
  if (rss_active()) {
    return localizer_.localize_multi(epoch_.rss_links, excluded_flags(),
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
    return localizer_.likelihood_grid(epoch_.rss_links, excluded_flags());
  }
  return localizer_.likelihood_grid(filtered_evidence());
}

const AngularSpectrum* DWatchPipeline::baseline_spectrum(
    std::size_t array_idx, const rfid::Epc96& epc) const {
  check_array(array_idx);
  const auto it = baselines_[array_idx].find(epc);
  return it == baselines_[array_idx].end() ? nullptr : &it->second.spectrum;
}

}  // namespace dwatch::core
