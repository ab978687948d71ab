// observe_batch determinism: the parallel per-tag pipeline must produce
// results bit-identical to serial observe() loops for every worker
// count and any input order.
#include <gtest/gtest.h>

#include <algorithm>
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

/// The online batch: the first path of every even tag is blocked at
/// array 0, odd tags at array 1, so both arrays accumulate real drops.
/// One extra item has no baseline (exercises the skip path).
std::vector<BatchObservation> make_batch() {
  const auto arrays = two_arrays();
  const std::vector<double> amps{0.02, 0.012};
  std::vector<BatchObservation> batch;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    for (std::size_t t = 0; t < kTags; ++t) {
      const bool blocked = (t % 2) == (a % 2);
      BatchObservation item;
      item.array_idx = a;
      item.epc = rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(t));
      item.snapshots =
          synth(arrays[a], tag_angles(a, t), amps,
                blocked ? std::vector<double>{0.15, 1.0}
                        : std::vector<double>{},
                seed_of(a, t, true));
      batch.push_back(std::move(item));
    }
  }
  BatchObservation unknown;
  unknown.array_idx = 0;
  unknown.epc = rfid::Epc96::for_tag_index(999);
  unknown.snapshots = synth(arrays[0], tag_angles(0, 0), amps, {}, 4242);
  batch.push_back(std::move(unknown));
  return batch;
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

TEST(ObserveBatch, MatchesSerialObserveLoopForEveryWorkerCount) {
  std::vector<BatchObservation> batch = make_batch();
  // One observation below degraded.min_snapshots, so the low-snapshot
  // counter is checked on both paths too.
  BatchObservation sparse;
  sparse.array_idx = 1;
  sparse.epc = rfid::Epc96::for_tag_index(0);
  sparse.snapshots = synth(two_arrays()[1], tag_angles(1, 0), {0.02, 0.012},
                           {0.15, 1.0}, 777)
                         .block(0, 0, 8, 4);
  batch.push_back(std::move(sparse));

  // Serial reference: observe() one by one in the batch's deterministic
  // merge order (array index, then EPC, then input position).
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&batch](std::size_t x, std::size_t y) {
                     return std::tie(batch[x].array_idx, batch[x].epc) <
                            std::tie(batch[y].array_idx, batch[y].epc);
                   });
  DWatchPipeline reference = make_pipeline(1);
  reference.begin_epoch();
  std::size_t reference_drops = 0;
  for (const std::size_t i : order) {
    reference_drops += reference.observe(batch[i].array_idx, batch[i].epc,
                                         batch[i].snapshots);
  }
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
    const std::size_t drops = pipe.observe_batch(batch);
    const std::string label = "workers=" + std::to_string(workers);
    EXPECT_EQ(drops, reference_drops) << label;
    expect_identical_evidence(pipe.evidence(), ref_evidence, label);
    expect_identical_evidence(pipe.filtered_evidence(), ref_filtered,
                              label + " filtered");
    const LocationEstimate fix = pipe.localize_best_effort();
    EXPECT_EQ(fix.position.x, ref_fix.position.x) << label;
    EXPECT_EQ(fix.position.y, ref_fix.position.y) << label;
    EXPECT_EQ(fix.likelihood, ref_fix.likelihood) << label;
    EXPECT_EQ(fix.consensus, ref_fix.consensus) << label;
    EXPECT_EQ(fix.valid, ref_fix.valid) << label;
    EXPECT_EQ(pipe.stats(), reference.stats()) << label;
    EXPECT_EQ(pipe.confidence_report(), reference.confidence_report())
        << label;
  }
}

TEST(ObserveBatch, InputOrderDoesNotAffectResults) {
  std::vector<BatchObservation> batch = make_batch();
  DWatchPipeline forward = make_pipeline(2);
  forward.begin_epoch();
  (void)forward.observe_batch(batch);

  std::reverse(batch.begin(), batch.end());
  DWatchPipeline reversed = make_pipeline(2);
  reversed.begin_epoch();
  (void)reversed.observe_batch(batch);

  expect_identical_evidence(reversed.evidence(), forward.evidence(),
                            "reversed input");
}

TEST(ObserveBatch, ValidatesArrayIndexUpFront) {
  DWatchPipeline pipe = make_pipeline(2);
  std::vector<BatchObservation> batch = make_batch();
  batch.front().array_idx = 99;
  pipe.begin_epoch();
  EXPECT_THROW((void)pipe.observe_batch(batch), std::out_of_range);
  // Nothing was merged: the epoch is still clean.
  for (const auto& e : pipe.evidence()) EXPECT_TRUE(e.drops.empty());
}

TEST(ObserveBatch, RepeatedEpochsAreReproducible) {
  const std::vector<BatchObservation> batch = make_batch();
  DWatchPipeline pipe = make_pipeline(2);
  pipe.begin_epoch();
  (void)pipe.observe_batch(batch);
  const auto first = pipe.evidence();
  pipe.begin_epoch();
  (void)pipe.observe_batch(batch);
  expect_identical_evidence(pipe.evidence(), first, "second epoch");
}

}  // namespace
}  // namespace dwatch::core
