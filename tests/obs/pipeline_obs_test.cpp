// Pipeline <-> obs integration:
//
//  1. Lifetime twins — every per-epoch ConfidenceReport counter has a
//     pipeline-lifetime twin in PipelineStats incremented at the same
//     site, so summing the per-epoch reports MUST reproduce the
//     lifetime totals exactly. This was previously impossible to check
//     from outside (the per-epoch counters reset on begin_epoch and the
//     cumulative view simply did not exist).
//  2. The registry mirrors — when the runtime switch is on, the same
//     increments land in the global dwatch_pipeline_*_total counters.
//  3. Observability observes, never participates — localization output
//     is bit-identical with the obs layer on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "harness/experiment.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/scene.hpp"

namespace dwatch {
namespace {

constexpr std::size_t kEpochs = 3;

sim::Scene make_scene() {
  rf::Rng deploy_rng(42);
  rf::Rng hardware_rng(7);
  sim::Deployment deployment = sim::make_room_deployment(
      sim::Environment::library(), sim::DeploymentOptions{}, deploy_rng);
  return sim::Scene(std::move(deployment), sim::CaptureOptions{},
                    hardware_rng);
}

harness::RunnerOptions runner_options() {
  harness::RunnerOptions opts;
  opts.calibrate = false;
  opts.through_wire = false;
  return opts;
}

void seed_calibration(harness::ExperimentRunner& runner,
                      const sim::Scene& scene) {
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    runner.pipeline().set_calibration(a, scene.reader(a).phase_offsets());
  }
}

/// ConfidenceReport counters summed over epochs, field by field.
struct ReportSums {
  std::size_t observations = 0;
  std::size_t observations_skipped = 0;
  std::size_t stale_observations = 0;
  std::size_t low_snapshot_observations = 0;
  std::size_t malformed_observations = 0;
  std::size_t drops_detected = 0;
  std::size_t reports_dropped = 0;
  std::size_t transport_retries = 0;
  std::size_t transport_timeouts = 0;

  void add(const core::ConfidenceReport& r) {
    observations += r.observations;
    observations_skipped += r.observations_skipped;
    stale_observations += r.stale_observations;
    low_snapshot_observations += r.low_snapshot_observations;
    malformed_observations += r.malformed_observations;
    drops_detected += r.drops_detected;
    reports_dropped += r.reports_dropped;
    transport_retries += r.transport_retries;
    transport_timeouts += r.transport_timeouts;
  }
};

/// Drives every evidence counter: kEpochs simulated epochs with upstream
/// losses noted on the second, then one hand-fed epoch holding a stale
/// retransmission, a malformed observation, a low-snapshot observation
/// and an unknown tag next to one clean observation. Returns the
/// per-epoch confidence reports summed.
ReportSums run_every_counter(harness::ExperimentRunner& runner,
                             const sim::Scene& scene, rf::Rng& rng) {
  const std::vector<sim::CylinderTarget> targets{
      sim::CylinderTarget::human({3.0, 4.0})};
  core::DWatchPipeline& pipe = runner.pipeline();
  ReportSums sums;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    runner.run_epoch(targets, rng);
    if (e == 1) {
      pipe.note_transport(/*retries=*/2, /*timeouts=*/1);
      pipe.note_reports_dropped(3);
    }
    sums.add(pipe.localize_with_confidence(true).confidence);
  }

  std::size_t tag = 0;
  while (!scene.tag_readable(0, tag)) ++tag;
  constexpr std::uint64_t kWatermarkUs = 1'000'000;
  pipe.begin_epoch(kWatermarkUs);
  // A retransmission of a previous epoch's report: stale.
  (void)pipe.observe(
      0, scene.capture_observation(0, tag, targets, rng, kWatermarkUs - 1));
  // No sample survived, so no complete inventory round: malformed.
  rfid::TagObservation empty =
      scene.capture_observation(0, tag, targets, rng, kWatermarkUs + 1);
  empty.samples.clear();
  (void)pipe.observe(0, empty);
  const linalg::CMatrix clean = scene.capture(0, tag, targets, rng);
  const rfid::Epc96& epc = scene.deployment().tags[tag].epc;
  (void)pipe.observe(0, epc, clean);
  // Fewer columns than degraded.min_snapshots: low-snapshot.
  (void)pipe.observe(0, epc, clean.block(0, 0, clean.rows(), 4));
  // A tag with no baseline: skipped.
  (void)pipe.observe(0, rfid::Epc96::for_tag_index(9999), clean);
  sums.add(pipe.localize_with_confidence(true).confidence);
  return sums;
}

TEST(PipelineObs, LifetimeTotalsEqualPerEpochSums) {
  const sim::Scene scene = make_scene();
  harness::ExperimentRunner runner(scene, runner_options());
  seed_calibration(runner, scene);
  rf::Rng rng(9);
  runner.collect_baselines(rng);
  const ReportSums sums = run_every_counter(runner, scene, rng);

  const core::PipelineStats& stats = runner.pipeline().stats();
  EXPECT_EQ(stats.epochs, kEpochs + 1);
  EXPECT_EQ(stats.observations, sums.observations);
  EXPECT_EQ(stats.observations_skipped, sums.observations_skipped);
  EXPECT_EQ(stats.stale_observations, sums.stale_observations);
  EXPECT_EQ(stats.low_snapshot_observations,
            sums.low_snapshot_observations);
  EXPECT_EQ(stats.malformed_observations, sums.malformed_observations);
  EXPECT_EQ(stats.drops_detected, sums.drops_detected);
  EXPECT_EQ(stats.reports_dropped, sums.reports_dropped);
  EXPECT_EQ(stats.transport_retries, sums.transport_retries);
  EXPECT_EQ(stats.transport_timeouts, sums.transport_timeouts);
  // The run actually exercised every counter.
  EXPECT_GT(sums.observations, 0u);
  EXPECT_GT(sums.drops_detected, 0u);
  EXPECT_EQ(sums.observations_skipped, 1u);
  EXPECT_EQ(sums.stale_observations, 1u);
  EXPECT_EQ(sums.malformed_observations, 1u);
  EXPECT_EQ(sums.low_snapshot_observations, 1u);
  EXPECT_EQ(sums.reports_dropped, 3u);
  EXPECT_EQ(sums.transport_retries, 2u);
  EXPECT_EQ(sums.transport_timeouts, 1u);
}

#if DWATCH_OBS_ENABLED

TEST(PipelineObs, RegistryCountersMirrorLifetimeTotals) {
  // The registry is process-global and other tests may have touched the
  // pipeline counters: assert on DELTAS around this run.
  auto& reg = obs::MetricsRegistry::global();
  const auto value = [&reg](const std::string& field) {
    return reg.counter("dwatch_pipeline_" + field + "_total").value();
  };
  const std::vector<std::string> fields{
      "epochs",
      "observations",
      "observations_skipped",
      "drops_detected",
      "stale_observations",
      "low_snapshot_observations",
      "malformed_observations",
      "reports_dropped",
      "transport_retries",
      "transport_timeouts"};
  std::vector<std::uint64_t> before;
  for (const std::string& f : fields) before.push_back(value(f));

  const sim::Scene scene = make_scene();
  harness::ExperimentRunner runner(scene, runner_options());
  seed_calibration(runner, scene);
  rf::Rng rng(9);
  runner.collect_baselines(rng);
  obs::set_enabled(true);
  (void)run_every_counter(runner, scene, rng);
  obs::set_enabled(false);

  const core::PipelineStats& s = runner.pipeline().stats();
  const std::vector<std::size_t> lifetime{
      s.epochs,
      s.observations,
      s.observations_skipped,
      s.drops_detected,
      s.stale_observations,
      s.low_snapshot_observations,
      s.malformed_observations,
      s.reports_dropped,
      s.transport_retries,
      s.transport_timeouts};
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_GT(lifetime[i], 0u) << fields[i];
    EXPECT_EQ(value(fields[i]) - before[i], lifetime[i]) << fields[i];
  }
}

TEST(PipelineObs, LocalizationBitIdenticalWithObsOnAndOff) {
  const std::vector<sim::CylinderTarget> targets{
      sim::CylinderTarget::human({3.0, 4.0})};

  const auto run_once = [&targets](bool obs_on) {
    const sim::Scene scene = make_scene();
    harness::ExperimentRunner runner(scene, runner_options());
    seed_calibration(runner, scene);
    rf::Rng rng(9);
    runner.collect_baselines(rng);
    obs::set_enabled(obs_on);
    core::ConfidentEstimate last{};
    for (std::size_t e = 0; e < kEpochs; ++e) {
      runner.run_epoch(targets, rng);
      last = runner.pipeline().localize_with_confidence(true);
    }
    obs::set_enabled(false);
    return last;
  };

  const core::ConfidentEstimate off = run_once(false);
  const core::ConfidentEstimate on = run_once(true);
  // Bitwise equality: the obs layer observes, it must not perturb.
  EXPECT_EQ(off.estimate.position.x, on.estimate.position.x);
  EXPECT_EQ(off.estimate.position.y, on.estimate.position.y);
  EXPECT_EQ(off.estimate.valid, on.estimate.valid);
  EXPECT_EQ(off.confidence, on.confidence);
}

TEST(PipelineObs, GhostRejectionEmitsOutlierEvent) {
  // Park the target on a tag's direct path: the pre-reflection-leg
  // blockage travels with that tag to every array, so Section 4.3
  // rejects the uncorroborated angle and must log WHICH angle it threw
  // away (the whole point of the event log: auditable rejections).
  const sim::Scene scene = make_scene();
  harness::ExperimentRunner runner(scene, runner_options());
  seed_calibration(runner, scene);
  rf::Rng rng(9);
  runner.collect_baselines(rng);
  const rf::Vec3 tag0 = scene.deployment().tags[0].position;
  const std::vector<sim::CylinderTarget> lurker{
      sim::CylinderTarget::human({tag0.x + 0.25, tag0.y})};

  obs::EventLog::global().clear();
  obs::set_enabled(true);
  runner.run_epoch(lurker, rng);
  (void)runner.pipeline().localize_with_confidence(true);
  obs::set_enabled(false);

  std::size_t ghost_events = 0;
  for (const std::string& line : obs::EventLog::global().snapshot()) {
    if (line.find("\"type\":\"pipeline.ghost_rejected\"") !=
        std::string::npos) {
      ++ghost_events;
      EXPECT_NE(line.find("\"theta_rad\":"), std::string::npos);
      EXPECT_NE(line.find("\"array\":"), std::string::npos);
    }
  }
  EXPECT_GT(ghost_events, 0u);
}

TEST(PipelineObs, StreamingProbesLogOnlyTheSealedFixGhosts) {
  // Convergence probes are not fixes: a streaming epoch must log exactly
  // the rejections of its sealed fix, not one more batch per probe.
  const sim::Scene scene = make_scene();
  harness::RunnerOptions opts = runner_options();
  opts.pipeline.streaming.enabled = true;
  harness::ExperimentRunner runner(scene, opts);
  seed_calibration(runner, scene);
  rf::Rng rng(9);
  runner.collect_baselines(rng);
  const rf::Vec3 tag0 = scene.deployment().tags[0].position;
  // The lurker's ghost plus a second person, so every array holds a
  // drop and the convergence probes run.
  const std::vector<sim::CylinderTarget> targets{
      sim::CylinderTarget::human({tag0.x + 0.25, tag0.y}),
      sim::CylinderTarget::human({3.0, 4.0})};

  obs::EventLog::global().clear();
  obs::set_enabled(true);
  runner.run_epoch(targets, rng);
  (void)runner.pipeline().localize_with_confidence(true);
  obs::set_enabled(false);

  std::size_t ghost_events = 0;
  for (const std::string& line : obs::EventLog::global().snapshot()) {
    if (line.find("\"type\":\"pipeline.ghost_rejected\"") !=
        std::string::npos) {
      ++ghost_events;
    }
  }
  // What the sealed fix rejected: every raw drop the filter removed.
  std::size_t rejected = 0;
  const auto filtered = runner.pipeline().filtered_evidence();
  for (std::size_t a = 0; a < filtered.size(); ++a) {
    rejected += runner.pipeline().evidence()[a].drops.size() -
                filtered[a].drops.size();
  }
  ASSERT_GT(runner.pipeline().streaming_stats().convergence_checks, 0u);
  ASSERT_GT(rejected, 0u) << "fixture rejected no ghost";
  EXPECT_EQ(ghost_events, rejected);
}

TEST(PipelineObs, RssEarlySealProbesOnTheConvergenceStride) {
  // The streaming convergence probe runs on the stride-4 grid in RSS mode
  // as on the phase path. The early_seal event carries the probe's fix,
  // so its position must lie on that grid (0.2 m steps from the origin).
  const sim::Scene scene = make_scene();
  harness::RunnerOptions opts = runner_options();
  opts.pipeline.streaming.enabled = true;
  opts.pipeline.rss_only.force = true;
  harness::ExperimentRunner runner(scene, opts);
  seed_calibration(runner, scene);
  for (const rfid::Tag& tag : scene.deployment().tags) {
    runner.pipeline().set_tag_position(tag.epc, tag.position.xy());
  }
  rf::Rng rng(9);
  runner.collect_baselines(rng);
  ASSERT_TRUE(runner.pipeline().rss_active());

  const std::vector<sim::CylinderTarget> targets{
      sim::CylinderTarget::human({3.0, 4.0})};
  obs::EventLog::global().clear();
  obs::set_enabled(true);
  runner.run_epoch(targets, rng);
  obs::set_enabled(false);
  ASSERT_TRUE(runner.pipeline().early_fix_ready());

  const double step = 4.0 * opts.pipeline.localizer.grid_step;
  const auto on_lattice = [step](double coord) {
    return std::abs(coord - step * std::round(coord / step)) < 1e-9;
  };
  const auto read = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
  };
  std::size_t seals = 0;
  for (const std::string& line : obs::EventLog::global().snapshot()) {
    if (line.find("\"type\":\"pipeline.early_seal\"") == std::string::npos) {
      continue;
    }
    ++seals;
    const double x = read(line, "x");
    const double y = read(line, "y");
    EXPECT_TRUE(on_lattice(x) && on_lattice(y)) << x << "," << y;
  }
  EXPECT_EQ(seals, 1u);
}

#endif  // DWATCH_OBS_ENABLED

}  // namespace
}  // namespace dwatch
