// Worker-count determinism: the same observe() loop fed to pipelines
// with 1, 2 and hardware_concurrency workers must give bit-identical
// evidence, counters and fixes. The pool only runs likelihood-grid
// rows, so this also races the pooled grid behind a real pipeline when
// the suite runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"

namespace dwatch::core {
namespace {

std::vector<rf::UniformLinearArray> two_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
  };
}

SearchBounds bounds() { return {{0.0, 0.0}, {7.0, 10.0}}; }

linalg::CMatrix synth(const rf::UniformLinearArray& array,
                      const std::vector<double>& angles_rad,
                      const std::vector<double>& amps,
                      const std::vector<double>& scale, std::uint64_t seed) {
  std::vector<rf::PropagationPath> paths;
  for (std::size_t i = 0; i < angles_rad.size(); ++i) {
    rf::PropagationPath p;
    p.kind = rf::PathKind::kDirect;
    p.vertices = {{-10, 0, 1.25}, array.center()};
    p.length = 10.0;
    p.aoa = angles_rad[i];
    p.gain = {amps[i], 0.0};
    paths.push_back(p);
  }
  rf::SnapshotOptions opts;
  opts.num_snapshots = 16;
  opts.noise_sigma = rf::noise_sigma_for_snr(paths, 1.0, 35.0);
  rf::Rng rng(seed);
  return rf::synthesize_snapshots(array, paths, scale, opts, rng);
}

constexpr std::size_t kTags = 6;

std::vector<double> tag_angles(std::size_t array_idx, std::size_t tag) {
  return {rf::deg2rad(40.0 + 6.0 * static_cast<double>(tag) +
                      10.0 * static_cast<double>(array_idx)),
          rf::deg2rad(130.0 - 4.0 * static_cast<double>(tag))};
}

std::uint64_t seed_of(std::size_t array_idx, std::size_t tag, bool online) {
  return 1000 + 100 * array_idx + 10 * tag + (online ? 1 : 0);
}

DWatchPipeline make_pipeline(std::size_t workers) {
  PipelineOptions options;
  options.num_workers = workers;
  DWatchPipeline pipe(two_arrays(), bounds(), options);
  const auto arrays = two_arrays();
  const std::vector<double> amps{0.02, 0.012};
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    for (std::size_t t = 0; t < kTags; ++t) {
      pipe.add_baseline(a, rfid::Epc96::for_tag_index(
                               static_cast<std::uint32_t>(t)),
                        synth(arrays[a], tag_angles(a, t), amps, {},
                              seed_of(a, t, false)));
    }
  }
  return pipe;
}

/// One online (array, tag) snapshot matrix.
struct Report {
  std::size_t array_idx = 0;
  rfid::Epc96 epc;
  linalg::CMatrix snapshots;
};

/// The online epoch: the first path of every even tag is blocked at
/// array 0, odd tags at array 1, so both arrays accumulate real drops.
/// One extra report has no baseline (exercises the skip path) and one
/// has fewer columns than degraded.min_snapshots (the low-snapshot
/// path).
std::vector<Report> make_epoch() {
  const auto arrays = two_arrays();
  const std::vector<double> amps{0.02, 0.012};
  std::vector<Report> epoch;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    for (std::size_t t = 0; t < kTags; ++t) {
      const bool blocked = (t % 2) == (a % 2);
      epoch.push_back(Report{
          a, rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(t)),
          synth(arrays[a], tag_angles(a, t), amps,
                blocked ? std::vector<double>{0.15, 1.0}
                        : std::vector<double>{},
                seed_of(a, t, true))});
    }
  }
  epoch.push_back(Report{0, rfid::Epc96::for_tag_index(999),
                         synth(arrays[0], tag_angles(0, 0), amps, {}, 4242)});
  epoch.push_back(Report{
      1, rfid::Epc96::for_tag_index(0),
      synth(arrays[1], tag_angles(1, 0), amps, {0.15, 1.0}, 777)
          .block(0, 0, 8, 4)});
  return epoch;
}

std::size_t observe_all(DWatchPipeline& pipe,
                        const std::vector<Report>& epoch) {
  std::size_t drops = 0;
  for (const Report& r : epoch) {
    drops += pipe.observe(r.array_idx, r.epc, r.snapshots);
  }
  return drops;
}

void expect_identical_evidence(const std::vector<AngularEvidence>& got,
                               const std::vector<AngularEvidence>& want,
                               const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t a = 0; a < got.size(); ++a) {
    ASSERT_EQ(got[a].drops.size(), want[a].drops.size())
        << label << " array " << a;
    for (std::size_t d = 0; d < got[a].drops.size(); ++d) {
      const PathDrop& g = got[a].drops[d];
      const PathDrop& w = want[a].drops[d];
      // Bit-identical, not approximately equal.
      EXPECT_EQ(g.theta, w.theta) << label << " a" << a << " d" << d;
      EXPECT_EQ(g.drop_fraction, w.drop_fraction)
          << label << " a" << a << " d" << d;
      EXPECT_EQ(g.baseline_power, w.baseline_power)
          << label << " a" << a << " d" << d;
      EXPECT_EQ(g.online_power, w.online_power)
          << label << " a" << a << " d" << d;
      EXPECT_EQ(g.source_id, w.source_id) << label << " a" << a << " d" << d;
    }
  }
}

void expect_identical_fix(const LocationEstimate& got,
                          const LocationEstimate& want,
                          const std::string& label) {
  EXPECT_EQ(got.position.x, want.position.x) << label;
  EXPECT_EQ(got.position.y, want.position.y) << label;
  EXPECT_EQ(got.likelihood, want.likelihood) << label;
  EXPECT_EQ(got.consensus, want.consensus) << label;
  EXPECT_EQ(got.valid, want.valid) << label;
}

TEST(ObserveWorkers, ObserveLoopIsIdenticalForEveryWorkerCount) {
  const std::vector<Report> epoch = make_epoch();
  DWatchPipeline reference = make_pipeline(1);
  reference.begin_epoch();
  const std::size_t reference_drops = observe_all(reference, epoch);
  ASSERT_GT(reference_drops, 0u) << "fixture produced no drops";
  ASSERT_EQ(reference.stats().low_snapshot_observations, 1u);
  ASSERT_EQ(reference.stats().observations_skipped, 1u);
  const auto ref_evidence = reference.evidence();
  const auto ref_filtered = reference.filtered_evidence();
  const LocationEstimate ref_fix = reference.localize_best_effort();

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, hw}) {
    DWatchPipeline pipe = make_pipeline(workers);
    pipe.begin_epoch();
    const std::string label = "workers=" + std::to_string(workers);
    EXPECT_EQ(observe_all(pipe, epoch), reference_drops) << label;
    expect_identical_evidence(pipe.evidence(), ref_evidence, label);
    expect_identical_evidence(pipe.filtered_evidence(), ref_filtered,
                              label + " filtered");
    expect_identical_fix(pipe.localize_best_effort(), ref_fix, label);
    EXPECT_EQ(pipe.stats(), reference.stats()) << label;
    EXPECT_EQ(pipe.confidence_report(), reference.confidence_report())
        << label;
  }
}

TEST(ObserveWorkers, BadArrayIndexThrowsAndLeavesEpochClean) {
  DWatchPipeline pipe = make_pipeline(2);
  const std::vector<Report> epoch = make_epoch();
  pipe.begin_epoch();
  EXPECT_THROW((void)pipe.observe(99, epoch.front().epc,
                                  epoch.front().snapshots),
               std::out_of_range);
  for (const auto& e : pipe.evidence()) EXPECT_TRUE(e.drops.empty());
  ConfidenceReport clean;
  clean.arrays_total = 2;
  EXPECT_EQ(pipe.confidence_report(), clean);
}

TEST(ObserveWorkers, RepeatedEpochsAreReproducible) {
  const std::vector<Report> epoch = make_epoch();
  DWatchPipeline pipe = make_pipeline(2);
  pipe.begin_epoch();
  (void)observe_all(pipe, epoch);
  const auto first = pipe.evidence();
  const LocationEstimate first_fix = pipe.localize_best_effort();
  pipe.begin_epoch();
  (void)observe_all(pipe, epoch);
  expect_identical_evidence(pipe.evidence(), first, "second epoch");
  expect_identical_fix(pipe.localize_best_effort(), first_fix,
                       "second epoch");
}

}  // namespace
}  // namespace dwatch::core
