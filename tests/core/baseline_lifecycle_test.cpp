// The detection windows a pipeline derives from each stored baseline
// (and the calibration phasors derived from each array's offsets) must
// follow every way the stored state changes: a baseline replaced by
// add_baseline, an array's baselines cleared and captured again, and a
// state exported and restored into a fresh pipeline. In each case the
// drops of later observations must be bit-identical to those of a
// pipeline that only ever held the final state, batch and streaming.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
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

const std::vector<double>& offsets() {
  static const std::vector<double> kOffsets{0.0, 0.4, -1.1, 2.0,
                                            0.3, -0.7, 1.5, -2.4};
  return kOffsets;
}

linalg::CMatrix synth(const rf::UniformLinearArray& array,
                      const std::vector<double>& angles_rad,
                      const std::vector<double>& scale, std::uint64_t seed) {
  std::vector<rf::PropagationPath> paths;
  const std::vector<double> amps{0.02, 0.012};
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
  opts.port_phase_offsets = offsets();
  rf::Rng rng(seed);
  return rf::synthesize_snapshots(array, paths, scale, opts, rng);
}

constexpr std::size_t kTags = 5;

rfid::Epc96 tag(std::size_t t) {
  return rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(t));
}

/// Path angles of tag t at array a; `variant` moves them, so two
/// variants give baselines with different peaks and windows.
std::vector<double> angles(std::size_t a, std::size_t t, int variant) {
  const double shift = 9.0 * variant;
  return {rf::deg2rad(40.0 + shift + 7.0 * static_cast<double>(t) +
                      10.0 * static_cast<double>(a)),
          rf::deg2rad(135.0 - shift - 5.0 * static_cast<double>(t))};
}

DWatchPipeline make_pipeline(bool streaming) {
  PipelineOptions options;
  options.streaming.enabled = streaming;
  DWatchPipeline pipe(two_arrays(), bounds(), options);
  for (std::size_t a = 0; a < 2; ++a) pipe.set_calibration(a, offsets());
  return pipe;
}

void add_baselines(DWatchPipeline& pipe, std::size_t a, int variant) {
  const auto arrays = two_arrays();
  for (std::size_t t = 0; t < kTags; ++t) {
    pipe.add_baseline(a, tag(t),
                      synth(arrays[a], angles(a, t, variant), {},
                            500 + 50 * a + t + 7 * variant));
  }
}

/// Online reports against variant-1 angles: one path of most tags is
/// blocked, two reports per (array, tag) so streaming accumulates.
void observe_epoch(DWatchPipeline& pipe, std::uint64_t seed) {
  const auto arrays = two_arrays();
  pipe.begin_epoch();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t a = 0; a < 2; ++a) {
      for (std::size_t t = 0; t < kTags; ++t) {
        const std::vector<double> scale =
            (t + a) % 3 == 0 ? std::vector<double>{1.0, 0.1}
                             : std::vector<double>{0.12, 1.0};
        (void)pipe.observe(a, tag(t),
                           synth(arrays[a], angles(a, t, 1), scale,
                                 seed + 100 * pass + 10 * a + t));
      }
    }
  }
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Drop-for-drop bit equality of two pipelines' evidence.
::testing::AssertionResult same_evidence(const DWatchPipeline& got,
                                         const DWatchPipeline& want) {
  const auto& g = got.evidence();
  const auto& w = want.evidence();
  if (g.size() != w.size()) return ::testing::AssertionFailure() << "arrays";
  for (std::size_t a = 0; a < g.size(); ++a) {
    if (g[a].drops.size() != w[a].drops.size()) {
      return ::testing::AssertionFailure()
             << "array " << a << ": " << g[a].drops.size() << " vs "
             << w[a].drops.size() << " drops";
    }
    for (std::size_t d = 0; d < g[a].drops.size(); ++d) {
      const PathDrop& x = g[a].drops[d];
      const PathDrop& y = w[a].drops[d];
      if (!same_bits(x.theta, y.theta) ||
          !same_bits(x.drop_fraction, y.drop_fraction) ||
          !same_bits(x.baseline_power, y.baseline_power) ||
          !same_bits(x.online_power, y.online_power) ||
          !same_bits(x.sigma_scale, y.sigma_scale) ||
          x.source_id != y.source_id) {
        return ::testing::AssertionFailure()
               << "array " << a << " drop " << d << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::size_t total_drops(const DWatchPipeline& pipe) {
  std::size_t n = 0;
  for (const auto& e : pipe.evidence()) n += e.drops.size();
  return n;
}

class BaselineLifecycle : public ::testing::TestWithParam<bool> {};

TEST_P(BaselineLifecycle, ReplacedBaselineMatchesAFreshOne) {
  const bool streaming = GetParam();
  DWatchPipeline replaced = make_pipeline(streaming);
  DWatchPipeline fresh = make_pipeline(streaming);
  DWatchPipeline stale = make_pipeline(streaming);
  for (std::size_t a = 0; a < 2; ++a) {
    add_baselines(replaced, a, 0);
    add_baselines(replaced, a, 1);
    add_baselines(fresh, a, 1);
    add_baselines(stale, a, 0);
  }
  EXPECT_EQ(replaced.stats().baselines, fresh.stats().baselines);
  observe_epoch(replaced, 9000);
  observe_epoch(fresh, 9000);
  observe_epoch(stale, 9000);
  ASSERT_GT(total_drops(fresh), 0u);
  EXPECT_TRUE(same_evidence(replaced, fresh));
  // The replaced baseline's windows really differ from the first ones.
  EXPECT_FALSE(same_evidence(stale, fresh));
}

TEST_P(BaselineLifecycle, ClearedAndRecapturedMatchesAFreshOne) {
  const bool streaming = GetParam();
  DWatchPipeline recaptured = make_pipeline(streaming);
  DWatchPipeline fresh = make_pipeline(streaming);
  add_baselines(recaptured, 0, 0);
  add_baselines(recaptured, 1, 1);
  add_baselines(fresh, 0, 1);
  add_baselines(fresh, 1, 1);
  recaptured.clear_baselines(0);
  observe_epoch(recaptured, 7000);  // array 0 has nothing to compare to
  EXPECT_EQ(recaptured.evidence()[0].drops.size(), 0u);
  EXPECT_EQ(recaptured.confidence_report().observations_skipped, 2 * kTags);
  add_baselines(recaptured, 0, 1);
  observe_epoch(recaptured, 9000);
  observe_epoch(fresh, 9000);
  ASSERT_GT(fresh.evidence()[0].drops.size(), 0u);
  EXPECT_TRUE(same_evidence(recaptured, fresh));
}

TEST_P(BaselineLifecycle, RestoredPipelineMatchesTheUninterruptedOne) {
  const bool streaming = GetParam();
  DWatchPipeline running = make_pipeline(streaming);
  for (std::size_t a = 0; a < 2; ++a) add_baselines(running, a, 1);
  observe_epoch(running, 8000);
  // A fresh pipeline with no calibration and no baselines takes the
  // whole state from the export; windows and phasors are derived again.
  PipelineOptions options;
  options.streaming.enabled = streaming;
  DWatchPipeline restored(two_arrays(), bounds(), options);
  restored.restore(running.export_state());
  for (const std::uint64_t seed : {9000u, 9500u}) {
    observe_epoch(running, seed);
    observe_epoch(restored, seed);
    ASSERT_GT(total_drops(running), 0u);
    EXPECT_TRUE(same_evidence(restored, running)) << "seed " << seed;
    const LocationEstimate a = restored.localize_best_effort();
    const LocationEstimate b = running.localize_best_effort();
    EXPECT_TRUE(same_bits(a.position.x, b.position.x));
    EXPECT_TRUE(same_bits(a.position.y, b.position.y));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, BaselineLifecycle, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Streaming" : "Batch";
                         });

}  // namespace
}  // namespace dwatch::core
