// Serving-layer contracts for the streaming spectral path: early
// sealing emits a fix BEFORE the report backlog is exhausted, the
// early-fix observer streams it out mid-epoch, the skip/TTFF
// accounting is exact, and the default-watermark carry works end to
// end through the service (the staleness gate is never silently off).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"
#include "serve/service.hpp"

namespace dwatch::serve {
namespace {

std::vector<rf::UniformLinearArray> zone_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
  };
}

core::SearchBounds zone_bounds() { return {{0.0, 0.0}, {7.0, 10.0}}; }

constexpr rf::Vec2 kTarget{2.0, 3.0};

linalg::CMatrix synth(const rf::UniformLinearArray& array, double angle_rad,
                      double scale, std::uint64_t seed) {
  rf::PropagationPath p;
  p.kind = rf::PathKind::kDirect;
  p.vertices = {{-10, 0, 1.25}, array.center()};
  p.length = 10.0;
  p.aoa = angle_rad;
  p.gain = {0.01, 0.0};
  const std::vector<rf::PropagationPath> paths{p};
  rf::SnapshotOptions opts;
  opts.num_snapshots = 16;
  opts.noise_sigma = rf::noise_sigma_for_snr(paths, 1.0, 35.0);
  rf::Rng rng(seed);
  const std::vector<double> path_scale{scale};
  return rf::synthesize_snapshots(array, paths, path_scale, opts, rng);
}

rfid::TagObservation wire_obs(const linalg::CMatrix& x, const rfid::Epc96& epc,
                              std::uint64_t first_seen_us = 0) {
  rfid::TagObservation obs;
  obs.epc = epc;
  obs.first_seen_us = first_seen_us;
  for (std::size_t n = 0; n < x.cols(); ++n) {
    for (std::size_t m = 0; m < x.rows(); ++m) {
      const auto [pq, rq] = rfid::quantize_sample(x(m, n));
      obs.samples.push_back(rfid::PhaseSample{
          static_cast<std::uint16_t>(m + 1), static_cast<std::uint32_t>(n),
          pq, rq});
    }
  }
  return obs;
}

ZoneConfig streaming_zone(bool streaming_enabled) {
  ZoneConfig cfg;
  cfg.name = "stream0";
  cfg.arrays = zone_arrays();
  cfg.bounds = zone_bounds();
  cfg.pipeline.streaming.enabled = streaming_enabled;
  cfg.pipeline.streaming.early_seal = true;
  cfg.pipeline.streaming.min_reports = 4;
  cfg.pipeline.streaming.convergence_window = 2;
  return cfg;
}

void install_baselines(core::DWatchPipeline& pipe) {
  const auto arrays = zone_arrays();
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const double angle = arrays[a].arrival_angle_planar(kTarget);
    pipe.add_baseline(
        a, rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(a + 1)),
        synth(arrays[a], angle, 1.0, 500 + a));
  }
}

/// One single-observation report per (array, tag); interleaving arrays
/// gives the convergence gate evidence from BOTH arrays early, so the
/// seal lands while plenty of backlog remains.
std::size_t route_interleaved(LocalizationService& service,
                              std::size_t reports_per_array) {
  const auto arrays = zone_arrays();
  std::size_t routed = 0;
  for (std::size_t r = 0; r < reports_per_array; ++r) {
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const double angle = arrays[a].arrival_angle_planar(kTarget);
      rfid::RoAccessReport report;
      report.message_id = static_cast<std::uint32_t>(100 * r + a);
      report.observations.push_back(wire_obs(
          synth(arrays[a], angle, 0.2, 40 + 10 * r + a),
          rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(a + 1))));
      service.add_report(0, a, report);
      ++routed;
    }
  }
  return routed;
}

TEST(StreamingServe, EarlySealEmitsFixBeforeBacklogExhausted) {
  LocalizationService service;
  const std::size_t z = service.add_zone(streaming_zone(true));
  install_baselines(service.zone(z).pipeline());

  std::vector<std::pair<std::size_t, ZoneFix>> observed;
  service.set_early_fix_observer(
      [&](std::size_t zone, const ZoneFix& fix) {
        observed.emplace_back(zone, fix);
      });

  service.begin_epoch(z);
  const std::size_t routed = route_interleaved(service, 8);
  ASSERT_EQ(service.run_pending(), 1u);

  const auto& fixes = service.fixes(z);
  ASSERT_EQ(fixes.size(), 1u);
  const ZoneFix& fix = fixes[0];
  EXPECT_TRUE(fix.early);
  EXPECT_GT(fix.reports_skipped, 0u);
  EXPECT_LT(fix.reports_skipped, routed);
  EXPECT_GT(fix.ttff_us, 0u);
  EXPECT_TRUE(fix.result.estimate.valid);
  EXPECT_NEAR(rf::distance(fix.result.estimate.position, kTarget), 0.0, 0.3);

  // The observer streamed the SAME fix out mid-run, before run_pending
  // returned control to the serving loop.
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].first, z);
  EXPECT_EQ(observed[0].second.seq, fix.seq);
  EXPECT_EQ(observed[0].second.result.estimate.position.x,
            fix.result.estimate.position.x);
  EXPECT_TRUE(observed[0].second.early);

  const ZoneServingStats& stats = service.zone_stats(z);
  EXPECT_EQ(stats.epochs_early_sealed, 1u);
  EXPECT_EQ(stats.reports_skipped_early, fix.reports_skipped);

  const core::StreamingStats& ss =
      service.zone(z).pipeline().streaming_stats();
  EXPECT_GT(ss.early_seals, 0u);
  EXPECT_GT(ss.streamed_spectra, 0u);
  EXPECT_GT(ss.rank1_updates, 0u);
}

TEST(StreamingServe, BatchModeNeverSealsEarly) {
  LocalizationService service;
  const std::size_t z = service.add_zone(streaming_zone(false));
  install_baselines(service.zone(z).pipeline());

  bool observer_fired = false;
  service.set_early_fix_observer(
      [&](std::size_t, const ZoneFix&) { observer_fired = true; });

  service.begin_epoch(z);
  (void)route_interleaved(service, 8);
  ASSERT_EQ(service.run_pending(), 1u);

  const auto& fixes = service.fixes(z);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_FALSE(fixes[0].early);
  EXPECT_EQ(fixes[0].reports_skipped, 0u);
  EXPECT_FALSE(observer_fired);
  EXPECT_EQ(service.zone_stats(z).epochs_early_sealed, 0u);
  EXPECT_EQ(service.zone_stats(z).reports_skipped_early, 0u);
  EXPECT_TRUE(fixes[0].result.estimate.valid);
}

TEST(StreamingServe, EarlySealedFixStaysNearTheFullBacklogFix) {
  // Sealing early must trade LATENCY, not accuracy: the early fix and
  // the full-backlog batch fix land within the convergence tolerance
  // of each other.
  LocalizationService batch_service;
  const std::size_t zb = batch_service.add_zone(streaming_zone(false));
  install_baselines(batch_service.zone(zb).pipeline());
  batch_service.begin_epoch(zb);
  (void)route_interleaved(batch_service, 8);
  ASSERT_EQ(batch_service.run_pending(), 1u);
  const ZoneFix& full = batch_service.fixes(zb)[0];

  LocalizationService stream_service;
  const std::size_t zs = stream_service.add_zone(streaming_zone(true));
  install_baselines(stream_service.zone(zs).pipeline());
  stream_service.begin_epoch(zs);
  (void)route_interleaved(stream_service, 8);
  ASSERT_EQ(stream_service.run_pending(), 1u);
  const ZoneFix& early = stream_service.fixes(zs)[0];

  ASSERT_TRUE(full.result.estimate.valid);
  ASSERT_TRUE(early.result.estimate.valid);
  EXPECT_NEAR(rf::distance(full.result.estimate.position,
                           early.result.estimate.position),
              0.0, 0.25);
}

TEST(StreamingServe, EarlySealedMultiReportEpochMatchesAStandalonePipeline) {
  // The epoch's flat report storage against a standalone streaming
  // pipeline fed the same observations by the same recipe: stop at the
  // first converged observation, count the reports never fed.
  const ZoneConfig cfg = streaming_zone(true);
  LocalizationService service;
  const std::size_t z = service.add_zone(cfg);
  install_baselines(service.zone(z).pipeline());
  std::vector<std::size_t> observed_reports;
  service.set_epoch_observer([&](const EpochObservation& o) {
    observed_reports.push_back(o.reports);
  });

  // Three observations per report, arrays interleaved.
  const auto arrays = zone_arrays();
  std::vector<std::pair<std::size_t, rfid::RoAccessReport>> routed;
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const double angle = arrays[a].arrival_angle_planar(kTarget);
      rfid::RoAccessReport report;
      report.message_id = static_cast<std::uint32_t>(100 * r + a);
      for (std::size_t k = 0; k < 3; ++k) {
        report.observations.push_back(wire_obs(
            synth(arrays[a], angle, 0.2, 40 + 100 * r + 10 * k + a),
            rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(a + 1))));
      }
      routed.emplace_back(a, report);
    }
  }
  service.begin_epoch(z);
  for (const auto& [a, report] : routed) service.add_report(z, a, report);
  ASSERT_EQ(service.run_pending(), 1u);

  ZoneConfig ref_cfg = cfg;
  ref_cfg.pipeline.num_workers = 1;
  core::DWatchPipeline ref(ref_cfg.arrays, ref_cfg.bounds, ref_cfg.pipeline);
  install_baselines(ref);
  ref.begin_epoch(0);
  std::size_t fed = 0;
  for (const auto& [a, report] : routed) {
    if (ref.early_fix_ready()) break;
    ++fed;
    for (const rfid::TagObservation& obs : report.observations) {
      (void)ref.observe(a, obs);
      if (ref.early_fix_ready()) break;
    }
  }
  const core::ConfidentEstimate want =
      ref.localize_with_confidence(cfg.best_effort);

  const auto& fixes = service.fixes(z);
  ASSERT_EQ(fixes.size(), 1u);
  ASSERT_TRUE(fixes[0].early);
  ASSERT_TRUE(ref.early_fix_ready());
  EXPECT_EQ(fixes[0].reports_skipped, routed.size() - fed);
  EXPECT_EQ(observed_reports, std::vector<std::size_t>{routed.size()});
  EXPECT_EQ(fixes[0].result.estimate.position.x, want.estimate.position.x);
  EXPECT_EQ(fixes[0].result.estimate.position.y, want.estimate.position.y);
  EXPECT_EQ(fixes[0].result.estimate.likelihood, want.estimate.likelihood);
  EXPECT_EQ(fixes[0].result.confidence, want.confidence);
}

TEST(StreamingServe, DefaultWatermarkCarriesAcrossServiceEpochs) {
  // Satellite regression, end to end: with reject_stale on and the
  // serving loop passing the DEFAULT watermark (0), the second epoch
  // inherits the first epoch's max-seen timestamp — a replayed stale
  // observation is rejected instead of sailing through a gate that
  // "watermark 0" used to disable.
  ZoneConfig cfg = streaming_zone(false);
  cfg.pipeline.degraded.reject_stale = true;
  LocalizationService service;
  const std::size_t z = service.add_zone(std::move(cfg));
  install_baselines(service.zone(z).pipeline());

  const auto arrays = zone_arrays();
  const double angle = arrays[0].arrival_angle_planar(kTarget);
  const rfid::Epc96 epc = rfid::Epc96::for_tag_index(1);

  service.begin_epoch(z);  // default watermark
  rfid::RoAccessReport fresh;
  fresh.observations.push_back(
      wire_obs(synth(arrays[0], angle, 0.2, 91), epc, 2000));
  service.add_report(z, 0, fresh);
  ASSERT_EQ(service.run_pending(), 1u);
  EXPECT_EQ(service.zone(z).pipeline().stats().stale_observations, 0u);

  service.begin_epoch(z);  // default watermark again: carries 2000
  rfid::RoAccessReport stale;
  stale.observations.push_back(
      wire_obs(synth(arrays[0], angle, 0.2, 92), epc, 5));
  service.add_report(z, 0, stale);
  rfid::RoAccessReport current;
  current.observations.push_back(
      wire_obs(synth(arrays[0], angle, 0.2, 93), epc, 2000));
  service.add_report(z, 0, current);
  ASSERT_EQ(service.run_pending(), 1u);

  const core::PipelineStats stats = service.zone(z).pipeline().stats();
  EXPECT_EQ(stats.stale_observations, 1u);  // the replay bounced
  EXPECT_EQ(stats.observations, 2u);        // epoch 1 + the current one
}

TEST(StreamingServe, ExplicitWatermarkStillBeatsTheCarry) {
  // Explicit serving-loop watermarks (including the widen-epoch path,
  // which re-submits the FIRST tick's watermark) always win over the
  // carried default.
  ZoneConfig cfg = streaming_zone(false);
  cfg.pipeline.degraded.reject_stale = true;
  LocalizationService service;
  const std::size_t z = service.add_zone(std::move(cfg));
  install_baselines(service.zone(z).pipeline());

  const auto arrays = zone_arrays();
  const double angle = arrays[0].arrival_angle_planar(kTarget);
  const rfid::Epc96 epc = rfid::Epc96::for_tag_index(1);

  service.begin_epoch(z);
  rfid::RoAccessReport first;
  first.observations.push_back(
      wire_obs(synth(arrays[0], angle, 0.2, 94), epc, 9000));
  service.add_report(z, 0, first);
  ASSERT_EQ(service.run_pending(), 1u);

  // An EXPLICIT lower watermark (an operator replay window) overrides
  // the 9000 the carry would have imposed.
  service.begin_epoch(z, 100);
  rfid::RoAccessReport replay;
  replay.observations.push_back(
      wire_obs(synth(arrays[0], angle, 0.2, 95), epc, 150));
  service.add_report(z, 0, replay);
  ASSERT_EQ(service.run_pending(), 1u);

  const core::PipelineStats stats = service.zone(z).pipeline().stats();
  EXPECT_EQ(stats.stale_observations, 0u);
  EXPECT_EQ(stats.observations, 2u);
}

}  // namespace
}  // namespace dwatch::serve
