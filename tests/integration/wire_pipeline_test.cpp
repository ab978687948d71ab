// Integration across the WIRE: captures are LLRP-encoded to bytes,
// streamed in chunks, decoded on the server side and fed to the
// pipeline — exactly the paper's reader -> Ethernet -> server split.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "harness/experiment.hpp"
#include "rfid/llrp.hpp"
#include "rfid/report_stream.hpp"
#include "sim/scene.hpp"

namespace dwatch {
namespace {

sim::Scene make_scene() {
  rf::Rng rng(42);
  rf::Rng hw(7);
  sim::DeploymentOptions dopt;
  dopt.num_tags = 21;
  auto dep =
      sim::make_room_deployment(sim::Environment::library(), dopt, rng);
  return sim::Scene(std::move(dep), sim::CaptureOptions{}, hw);
}

/// Encode per-(array,tag) observations as one RO_ACCESS_REPORT per array
/// and return the framed byte streams.
std::vector<std::vector<std::uint8_t>> encode_epoch_reports(
    const sim::Scene& scene, std::span<const sim::CylinderTarget> targets,
    rf::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> streams;
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    rfid::RoAccessReport report;
    report.message_id = static_cast<std::uint32_t>(a + 1);
    for (std::size_t t = 0; t < scene.num_tags(); ++t) {
      if (!scene.tag_readable(a, t)) continue;
      report.observations.push_back(
          scene.capture_observation(a, t, targets, rng));
    }
    streams.push_back(encode(report));
  }
  return streams;
}

TEST(WirePipeline, BytesInFixOut) {
  const sim::Scene scene = make_scene();
  core::PipelineOptions popt;
  core::DWatchPipeline pipeline(
      scene.deployment().arrays,
      core::SearchBounds{{0, 0},
                         {scene.deployment().env.width,
                          scene.deployment().env.depth}},
      popt);
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    pipeline.set_calibration(a, scene.reader(a).phase_offsets());
  }

  rf::Rng rng(3);
  // Baseline epoch over the wire.
  for (std::size_t a = 0;
       const auto& bytes : encode_epoch_reports(scene, {}, rng)) {
    rfid::LlrpStreamDecoder decoder;
    // Chunked feed, 11 bytes at a time.
    for (std::size_t pos = 0; pos < bytes.size(); pos += 11) {
      decoder.feed(std::span(bytes).subspan(
          pos, std::min<std::size_t>(11, bytes.size() - pos)));
    }
    const auto report = decoder.next_report();
    ASSERT_TRUE(report.has_value());
    for (const auto& obs : report->observations) {
      pipeline.add_baseline(a, obs);
    }
    ++a;
  }
  EXPECT_GT(pipeline.stats().baselines, 0u);

  // Online epoch with a human target.
  const sim::CylinderTarget target = sim::CylinderTarget::human({3.5, 5.0});
  const std::vector<sim::CylinderTarget> targets{target};
  pipeline.begin_epoch();
  for (std::size_t a = 0;
       const auto& bytes : encode_epoch_reports(scene, targets, rng)) {
    rfid::LlrpStreamDecoder decoder;
    decoder.feed(bytes);
    const auto report = decoder.next_report();
    ASSERT_TRUE(report.has_value());
    for (const auto& obs : report->observations) {
      (void)pipeline.observe(a, obs);
    }
    ++a;
  }
  const auto est = pipeline.localize_best_effort();
  ASSERT_GT(est.likelihood, 0.0);
  EXPECT_LT(harness::human_error(est.position, target.position), 0.8);
}

TEST(WirePipeline, SnapshotAssemblerInterop) {
  // The SnapshotAssembler path: stream observations into the assembler
  // and verify matrices match direct observation conversion.
  const sim::Scene scene = make_scene();
  rf::Rng rng1(4);
  rf::Rng rng2(4);
  const auto obs = scene.capture_observation(0, 0, {}, rng1);

  rfid::SnapshotAssembler assembler(8, scene.options().num_snapshots);
  assembler.ingest(obs);
  const auto ready = assembler.ready_tags();
  ASSERT_EQ(ready.size(), 1u);
  const auto snap = assembler.take(ready[0]);
  ASSERT_TRUE(snap.has_value());

  const auto direct = core::observation_to_snapshots(
      scene.capture_observation(0, 0, {}, rng2), 8);
  EXPECT_EQ(snap->x.rows(), direct.rows());
  EXPECT_EQ(snap->x.cols(), direct.cols());
  EXPECT_NEAR(snap->x.max_abs_diff(direct), 0.0, 1e-12);
}

TEST(WirePipeline, QuantizationDoesNotBreakDetection) {
  // Compare drops detected via the raw path vs the wire path.
  const sim::Scene scene = make_scene();
  harness::RunnerOptions raw_opts;
  raw_opts.through_wire = false;
  raw_opts.calibrate = false;
  harness::RunnerOptions wire_opts;
  wire_opts.through_wire = true;
  wire_opts.calibrate = false;

  harness::ExperimentRunner raw(scene, raw_opts);
  harness::ExperimentRunner wire(scene, wire_opts);
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    raw.pipeline().set_calibration(a, scene.reader(a).phase_offsets());
    wire.pipeline().set_calibration(a, scene.reader(a).phase_offsets());
  }
  rf::Rng rng1(9);
  rf::Rng rng2(9);
  raw.collect_baselines(rng1);
  wire.collect_baselines(rng2);
  const sim::CylinderTarget t = sim::CylinderTarget::human({3.0, 4.0});
  const std::vector<sim::CylinderTarget> targets{t};
  raw.run_epoch(targets, rng1);
  wire.run_epoch(targets, rng2);
  std::size_t raw_drops = 0;
  std::size_t wire_drops = 0;
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    raw_drops += raw.pipeline().evidence()[a].drops.size();
    wire_drops += wire.pipeline().evidence()[a].drops.size();
  }
  // 16-bit quantization may flip a borderline drop, not wipe them out.
  EXPECT_NEAR(static_cast<double>(wire_drops),
              static_cast<double>(raw_drops), 2.0);
}

}  // namespace
}  // namespace dwatch
