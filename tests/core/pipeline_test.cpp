// Tests for the end-to-end pipeline plumbing (baselines, observation
// decoding, evidence accumulation, ghost filtering).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

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

/// Snapshots for one tag as seen by `array` with paths at given angles,
/// optional per-path scale, optional port offsets.
linalg::CMatrix synth(const rf::UniformLinearArray& array,
                      const std::vector<double>& angles_rad,
                      const std::vector<double>& amps,
                      const std::vector<double>& scale, std::uint64_t seed,
                      const std::vector<double>& offsets = {}) {
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
  opts.port_phase_offsets = offsets;
  rf::Rng rng(seed);
  return rf::synthesize_snapshots(array, paths, scale, opts, rng);
}

TEST(ObservationToSnapshots, RoundTrip) {
  rfid::TagObservation obs;
  obs.epc = rfid::Epc96::for_tag_index(1);
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint16_t e = 1; e <= 4; ++e) {
      const auto [pq, rq] =
          rfid::quantize_sample(std::polar(0.01 * e, 0.3 * round));
      obs.samples.push_back(rfid::PhaseSample{e, round, pq, rq});
    }
  }
  const linalg::CMatrix x = observation_to_snapshots(obs, 4);
  EXPECT_EQ(x.rows(), 4u);
  EXPECT_EQ(x.cols(), 3u);
  EXPECT_NEAR(std::abs(x(1, 2)) / 0.02, 1.0, 1e-2);
}

TEST(ObservationToSnapshots, DropsIncompleteRounds) {
  rfid::TagObservation obs;
  obs.epc = rfid::Epc96::for_tag_index(1);
  for (std::uint16_t e = 1; e <= 4; ++e) {
    obs.samples.push_back(rfid::PhaseSample{e, 0, 100, -3000});
  }
  obs.samples.push_back(rfid::PhaseSample{1, 1, 100, -3000});  // partial
  const linalg::CMatrix x = observation_to_snapshots(obs, 4);
  EXPECT_EQ(x.cols(), 1u);
}

TEST(ObservationToSnapshots, Validation) {
  rfid::TagObservation obs;
  obs.samples.push_back(rfid::PhaseSample{9, 0, 0, 0});
  EXPECT_THROW((void)observation_to_snapshots(obs, 4),
               std::invalid_argument);
  rfid::TagObservation empty;
  EXPECT_THROW((void)observation_to_snapshots(empty, 4),
               std::invalid_argument);
  EXPECT_THROW((void)observation_to_snapshots(empty, 0),
               std::invalid_argument);
}

TEST(Pipeline, BaselineBookkeeping) {
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto epc = rfid::Epc96::for_tag_index(7);
  EXPECT_EQ(pipe.baseline_spectrum(0, epc), nullptr);
  pipe.add_baseline(0, epc,
                    synth(arrays[0], {rf::deg2rad(60)}, {0.01}, {}, 1));
  EXPECT_NE(pipe.baseline_spectrum(0, epc), nullptr);
  EXPECT_EQ(pipe.stats().baselines, 1u);
  // Re-adding overwrites, does not double count.
  pipe.add_baseline(0, epc,
                    synth(arrays[0], {rf::deg2rad(60)}, {0.01}, {}, 2));
  EXPECT_EQ(pipe.stats().baselines, 1u);
  EXPECT_THROW((void)pipe.baseline_spectrum(5, epc), std::out_of_range);
}

TEST(Pipeline, ObserveWithoutBaselineSkipped) {
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto n = pipe.observe(
      0, rfid::Epc96::for_tag_index(9),
      synth(arrays[0], {rf::deg2rad(60)}, {0.01}, {}, 3));
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(pipe.stats().observations_skipped, 1u);
}

TEST(Pipeline, DetectsBlockedPathAndAccumulatesEvidence) {
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto epc = rfid::Epc96::for_tag_index(1);
  const std::vector<double> angles{rf::deg2rad(60), rf::deg2rad(120)};
  const std::vector<double> amps{0.02, 0.015};
  pipe.add_baseline(0, epc, synth(arrays[0], angles, amps, {}, 5));
  pipe.begin_epoch();
  const std::vector<double> blocked{0.2, 1.0};
  const auto drops =
      pipe.observe(0, epc, synth(arrays[0], angles, amps, blocked, 6));
  EXPECT_EQ(drops, 1u);
  ASSERT_EQ(pipe.evidence()[0].drops.size(), 1u);
  EXPECT_NEAR(rf::rad2deg(pipe.evidence()[0].drops[0].theta), 60.0, 2.0);
  EXPECT_EQ(pipe.evidence()[0].drops[0].source_id, 1u);
  pipe.begin_epoch();
  EXPECT_TRUE(pipe.evidence()[0].drops.empty());
}

TEST(Pipeline, CalibrationAppliedBeforeSpectra) {
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto epc = rfid::Epc96::for_tag_index(2);
  const std::vector<double> offsets{0.0, 0.9, -1.2, 2.1, 0.4,
                                    -0.8, 1.5, -2.0};
  pipe.set_calibration(0, offsets);
  const std::vector<double> angles{rf::deg2rad(70)};
  const std::vector<double> amps{0.02};
  // Baseline and online both corrupted by the same offsets; with the
  // calibration installed the detected drop angle must be the TRUE one.
  pipe.add_baseline(0, epc, synth(arrays[0], angles, amps, {}, 7, offsets));
  pipe.begin_epoch();
  (void)pipe.observe(0, epc,
                     synth(arrays[0], angles, amps, {0.2}, 8, offsets));
  ASSERT_EQ(pipe.evidence()[0].drops.size(), 1u);
  EXPECT_NEAR(rf::rad2deg(pipe.evidence()[0].drops[0].theta), 70.0, 2.0);
}

TEST(Pipeline, SetCalibrationValidation) {
  DWatchPipeline pipe(two_arrays(), bounds());
  EXPECT_THROW(pipe.set_calibration(0, std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(pipe.set_calibration(7, std::vector<double>(8, 0.0)),
               std::out_of_range);
}

TEST(Pipeline, FilteredEvidenceDropsMultiArraySingleTagGhost) {
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto ghost_tag = rfid::Epc96::for_tag_index(5);
  const auto honest_a = rfid::Epc96::for_tag_index(6);
  const auto honest_b = rfid::Epc96::for_tag_index(7);

  // Ghost pattern: tag 5 drops at BOTH arrays, uncorroborated angles.
  const std::vector<double> g0{rf::deg2rad(30)};
  const std::vector<double> g1{rf::deg2rad(150)};
  const std::vector<double> amp{0.01};
  pipe.add_baseline(0, ghost_tag, synth(arrays[0], g0, amp, {}, 11));
  pipe.add_baseline(1, ghost_tag, synth(arrays[1], g1, amp, {}, 12));
  // Honest pattern: two tags drop at the SAME angle at array 0.
  const std::vector<double> h{rf::deg2rad(75)};
  pipe.add_baseline(0, honest_a, synth(arrays[0], h, amp, {}, 13));
  pipe.add_baseline(0, honest_b, synth(arrays[0], h, amp, {}, 14));

  pipe.begin_epoch();
  (void)pipe.observe(0, ghost_tag,
                     synth(arrays[0], g0, amp, {0.2}, 15));
  (void)pipe.observe(1, ghost_tag,
                     synth(arrays[1], g1, amp, {0.2}, 16));
  (void)pipe.observe(0, honest_a, synth(arrays[0], h, amp, {0.2}, 17));
  (void)pipe.observe(0, honest_b, synth(arrays[0], h, amp, {0.2}, 18));

  ASSERT_EQ(pipe.evidence()[0].drops.size(), 3u);
  ASSERT_EQ(pipe.evidence()[1].drops.size(), 1u);
  const auto filtered = pipe.filtered_evidence();
  // Ghost drops (tag 5) are gone; the corroborated honest pair stays.
  EXPECT_EQ(filtered[0].drops.size(), 2u);
  EXPECT_TRUE(filtered[1].drops.empty());
  for (const auto& d : filtered[0].drops) {
    EXPECT_NE(d.source_id, 5u);
  }
}

TEST(Pipeline, GhostFilterIgnoresExcludedArraysKOfN) {
  // Regression: filtered_evidence() counted tags seen on EXCLUDED
  // arrays in its per-tag array tally. A dead array's garbage drops
  // then flipped `multi_array` true for a tag whose only other drop —
  // at the one surviving healthy array, necessarily uncorroborated —
  // got rejected as a ghost, turning a valid K-of-N fix invalid.
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto tag = rfid::Epc96::for_tag_index(4);
  const std::vector<double> a0{rf::deg2rad(40)};
  const std::vector<double> a1{rf::deg2rad(110)};
  const std::vector<double> amp{0.01};
  pipe.add_baseline(0, tag, synth(arrays[0], a0, amp, {}, 31));
  pipe.add_baseline(1, tag, synth(arrays[1], a1, amp, {}, 32));

  pipe.set_array_health(0, false);  // reader 0 dead; reports still arrive
  pipe.begin_epoch();
  (void)pipe.observe(0, tag, synth(arrays[0], a0, amp, {0.2}, 33));
  (void)pipe.observe(1, tag, synth(arrays[1], a1, amp, {0.2}, 34));
  ASSERT_EQ(pipe.evidence()[1].drops.size(), 1u);

  // The healthy array's only drop must survive: the tag is multi-array
  // only if the excluded array is (wrongly) allowed to vote.
  const auto filtered = pipe.filtered_evidence();
  ASSERT_EQ(filtered[1].drops.size(), 1u);
  EXPECT_EQ(filtered[1].drops[0].source_id, 4u);

  // And the fix flips with it: 1 usable array, effective min_arrays 1
  // (K-of-N), so the epoch localizes iff that drop survived the filter.
  EXPECT_TRUE(pipe.localize().valid);
}

TEST(Pipeline, GhostFilterStillRejectsWhenBothArraysHealthy) {
  // Companion to the K-of-N regression: the SAME traffic with both
  // arrays healthy is the paper's Section 4.3 ghost pattern (one tag,
  // two arrays, no corroboration) and must still be rejected.
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto tag = rfid::Epc96::for_tag_index(4);
  const std::vector<double> a0{rf::deg2rad(40)};
  const std::vector<double> a1{rf::deg2rad(110)};
  const std::vector<double> amp{0.01};
  pipe.add_baseline(0, tag, synth(arrays[0], a0, amp, {}, 31));
  pipe.add_baseline(1, tag, synth(arrays[1], a1, amp, {}, 32));

  pipe.begin_epoch();
  (void)pipe.observe(0, tag, synth(arrays[0], a0, amp, {0.2}, 33));
  (void)pipe.observe(1, tag, synth(arrays[1], a1, amp, {0.2}, 34));

  const auto filtered = pipe.filtered_evidence();
  EXPECT_TRUE(filtered[0].drops.empty());
  EXPECT_TRUE(filtered[1].drops.empty());
  EXPECT_FALSE(pipe.localize().valid);
}

TEST(Pipeline, WireObservationPathWorks) {
  DWatchPipeline pipe(two_arrays(), bounds());
  const auto arrays = two_arrays();
  const auto epc = rfid::Epc96::for_tag_index(3);
  const std::vector<double> angles{rf::deg2rad(65)};
  const std::vector<double> amps{0.02};
  const linalg::CMatrix base = synth(arrays[0], angles, amps, {}, 21);
  // Wrap into a wire observation.
  rfid::TagObservation obs;
  obs.epc = epc;
  for (std::size_t n = 0; n < base.cols(); ++n) {
    for (std::size_t m = 0; m < base.rows(); ++m) {
      const auto [pq, rq] = rfid::quantize_sample(base(m, n));
      obs.samples.push_back(rfid::PhaseSample{
          static_cast<std::uint16_t>(m + 1), static_cast<std::uint32_t>(n),
          pq, rq});
    }
  }
  pipe.add_baseline(0, obs);
  EXPECT_EQ(pipe.stats().baselines, 1u);
  pipe.begin_epoch();
  const linalg::CMatrix online =
      synth(arrays[0], angles, amps, {0.2}, 22);
  rfid::TagObservation online_obs;
  online_obs.epc = epc;
  for (std::size_t n = 0; n < online.cols(); ++n) {
    for (std::size_t m = 0; m < online.rows(); ++m) {
      const auto [pq, rq] = rfid::quantize_sample(online(m, n));
      online_obs.samples.push_back(rfid::PhaseSample{
          static_cast<std::uint16_t>(m + 1), static_cast<std::uint32_t>(n),
          pq, rq});
    }
  }
  EXPECT_EQ(pipe.observe(0, online_obs), 1u);
}

TEST(Pipeline, RestoreCarriesTheDefaultWatermark) {
  // An uninterrupted pipeline carries the highest accepted first_seen_us
  // into begin_epoch(0); a pipeline restored from its export must carry
  // the same frontier, or a retransmission slips past its stale gate.
  const auto arrays = two_arrays();
  const auto epc = rfid::Epc96::for_tag_index(4);
  const std::vector<double> angles{rf::deg2rad(70)};
  const std::vector<double> amps{0.02};
  const auto wire = [&](const linalg::CMatrix& x, std::uint64_t first_seen) {
    rfid::TagObservation obs;
    obs.epc = epc;
    obs.first_seen_us = first_seen;
    for (std::size_t n = 0; n < x.cols(); ++n) {
      for (std::size_t m = 0; m < x.rows(); ++m) {
        const auto [pq, rq] = rfid::quantize_sample(x(m, n));
        obs.samples.push_back(rfid::PhaseSample{
            static_cast<std::uint16_t>(m + 1),
            static_cast<std::uint32_t>(n), pq, rq});
      }
    }
    return obs;
  };

  DWatchPipeline a(arrays, bounds());
  a.add_baseline(0, epc, synth(arrays[0], angles, amps, {}, 41));
  a.begin_epoch(0);
  (void)a.observe(0, wire(synth(arrays[0], angles, amps, {0.2}, 42), 5000));
  ASSERT_EQ(a.stats().stale_observations, 0u);

  DWatchPipeline b(arrays, bounds());
  b.restore(a.export_state());
  const rfid::TagObservation retransmission =
      wire(synth(arrays[0], angles, amps, {0.2}, 43), 3000);
  for (DWatchPipeline* p : {&a, &b}) {
    p->begin_epoch(0);
    EXPECT_EQ(p->observe(0, retransmission), 0u);
    EXPECT_EQ(p->confidence_report().stale_observations, 1u);
    EXPECT_EQ(p->stats().stale_observations, 1u);
  }
}

TEST(Pipeline, TwoElementArraysRunEndToEnd) {
  // The smallest legal deployment: M = 2 per array. default_subarray(2)
  // returns L == M, the MUSIC path skips smoothing, and the whole
  // observe/localize recipe runs without tripping the smoother's
  // L >= 2 contract (the documented tiny-array edge).
  const std::vector<rf::UniformLinearArray> arrays{
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 2),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 2),
  };
  DWatchPipeline pipe(arrays, bounds(), {});
  const auto epc = rfid::Epc96::for_tag_index(1);
  pipe.add_baseline(0, epc, synth(arrays[0], {1.0}, {1.0}, {}, 31));
  pipe.add_baseline(1, epc, synth(arrays[1], {1.6}, {1.0}, {}, 32));
  pipe.begin_epoch();
  (void)pipe.observe(0, epc, synth(arrays[0], {1.0}, {1.0}, {0.2}, 33));
  (void)pipe.observe(1, epc, synth(arrays[1], {1.6}, {1.0}, {0.2}, 34));
  EXPECT_EQ(pipe.stats().observations, 2u);
  (void)pipe.localize_best_effort();  // must not throw
}

}  // namespace
}  // namespace dwatch::core
