// Tests for the incremental spectral path: the chunk-accumulated
// covariance (core/streaming.hpp) must be BIT-IDENTICAL to the batch
// sample_correlation over the concatenated snapshots, and a streaming
// DWatchPipeline must count, widen and checkpoint exactly as its
// accumulated data says.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/covariance.hpp"
#include "core/pipeline.hpp"
#include "linalg/complex_matrix.hpp"
#include "rf/constants.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"

namespace dwatch::core {
namespace {

constexpr double kSpacing = 0.163;
constexpr double kLambda = 2.0 * kSpacing;

/// 64-bit LCG (MMIX constants) — the golden-fixture generator, identical
/// on every platform.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  double uniform() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

/// Two coherent sources + weak noise; `gain2` lets a sequence of epochs
/// evolve slowly (an occluder gradually attenuating the second path).
linalg::CMatrix fixture_snapshots(std::size_t num_elements,
                                  std::size_t num_snapshots,
                                  std::uint64_t seed, double gain2 = 0.45) {
  const double thetas[2] = {0.7, 1.9};
  const double amplitudes[2] = {1.0, gain2};
  Lcg lcg(seed);
  linalg::CMatrix x(num_elements, num_snapshots);
  for (std::size_t n = 0; n < num_snapshots; ++n) {
    const double symbol_phase = rf::kTwoPi * lcg.uniform();
    for (std::size_t m = 0; m < num_elements; ++m) {
      std::complex<double> v{0.0, 0.0};
      for (int k = 0; k < 2; ++k) {
        const double steer = rf::kTwoPi * kSpacing *
                             static_cast<double>(m) * std::cos(thetas[k]) /
                             kLambda;
        v += amplitudes[k] *
             std::complex<double>(std::cos(steer + symbol_phase),
                                  std::sin(steer + symbol_phase));
      }
      v += std::complex<double>(1e-3 * (lcg.uniform() - 0.5),
                                1e-3 * (lcg.uniform() - 0.5));
      x(m, n) = v;
    }
  }
  return x;
}

TEST(IncrementalCovariance, Validation) {
  EXPECT_THROW(IncrementalCovariance{0}, std::invalid_argument);
  IncrementalCovariance cov(4);
  EXPECT_EQ(cov.num_elements(), 4u);
  EXPECT_EQ(cov.num_snapshots(), 0u);
  EXPECT_THROW((void)cov.correlation(), std::logic_error);
  EXPECT_THROW(cov.accumulate(linalg::CMatrix(3, 5)),
               std::invalid_argument);
  EXPECT_THROW(cov.accumulate(linalg::CMatrix(4, 0)),
               std::invalid_argument);
}

TEST(IncrementalCovariance, ChunkedMatchesBatchBitForBit) {
  // The streaming contract: fold the epoch's snapshot chunks one by one
  // and the final correlation is BIT-identical to sample_correlation
  // over the concatenation — the raw sum continues the same addition
  // chain, division by N happens once at the read.
  const std::size_t m = 8;
  const std::size_t chunk_cols[] = {6, 1, 9, 16};
  std::size_t total = 0;
  for (const std::size_t c : chunk_cols) total += c;
  const linalg::CMatrix all = fixture_snapshots(m, total, 0xBEEF);

  IncrementalCovariance cov(m);
  std::size_t col = 0;
  for (const std::size_t c : chunk_cols) {
    linalg::CMatrix chunk(m, c);
    for (std::size_t j = 0; j < c; ++j) {
      for (std::size_t i = 0; i < m; ++i) chunk(i, j) = all(i, col + j);
    }
    col += c;
    cov.accumulate(chunk);
  }
  EXPECT_EQ(cov.num_snapshots(), total);

  const linalg::CMatrix batch = sample_correlation(all);
  const linalg::CMatrix streamed = cov.correlation();
  ASSERT_EQ(streamed.rows(), batch.rows());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(streamed(i, j).real(), batch(i, j).real())
          << "(" << i << "," << j << ") re";
      EXPECT_EQ(streamed(i, j).imag(), batch(i, j).imag())
          << "(" << i << "," << j << ") im";
    }
  }
}

TEST(IncrementalCovariance, ResetStartsAFreshEpoch) {
  const linalg::CMatrix a = fixture_snapshots(4, 12, 1);
  const linalg::CMatrix b = fixture_snapshots(4, 12, 2);
  IncrementalCovariance cov(4);
  cov.accumulate(a);
  cov.reset();
  EXPECT_EQ(cov.num_snapshots(), 0u);
  cov.accumulate(b);
  const linalg::CMatrix direct = sample_correlation(b);
  EXPECT_NEAR(cov.correlation().max_abs_diff(direct), 0.0, 0.0);
}

/// Two M-element arrays on adjacent walls of a 7 x 10 m room.
std::vector<rf::UniformLinearArray> room_arrays(std::size_t num_elements) {
  return {rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, num_elements),
          rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, num_elements)};
}

const SearchBounds kRoomBounds{{0.0, 0.0}, {7.0, 10.0}};

/// Snapshots of one tag whose direct path arrives at `angle_rad`,
/// attenuated by `scale` (1 = the empty scene).
linalg::CMatrix tag_snapshots(const rf::UniformLinearArray& array,
                              double angle_rad, double scale,
                              std::size_t num_snapshots, std::uint64_t seed) {
  rf::PropagationPath p;
  p.kind = rf::PathKind::kDirect;
  p.vertices = {{-10, 0, 1.25}, array.center()};
  p.length = 10.0;
  p.aoa = angle_rad;
  p.gain = {0.01, 0.0};
  const std::vector<rf::PropagationPath> paths{p};
  rf::SnapshotOptions opts;
  opts.num_snapshots = num_snapshots;
  opts.noise_sigma = rf::noise_sigma_for_snr(paths, 1.0, 35.0);
  rf::Rng rng(seed);
  const std::vector<double> path_scale{scale};
  return rf::synthesize_snapshots(array, paths, path_scale, opts, rng);
}

/// The columns [first, first + count) of `x`.
linalg::CMatrix columns(const linalg::CMatrix& x, std::size_t first,
                        std::size_t count) {
  return x.block(0, first, x.rows(), count);
}

rfid::TagObservation wire_obs(const linalg::CMatrix& x,
                              const rfid::Epc96& epc,
                              std::uint64_t first_seen_us) {
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

TEST(StreamingPipeline, LowSnapshotCountFollowsTheAccumulatedColumns) {
  // Three 4-column reports of one tag against min_snapshots 6: only the
  // first streamed spectrum rests on too few columns (4); the second
  // and third rest on 8 and 12, so their drops are NOT widened and they
  // must not be counted as low-snapshot observations either.
  PipelineOptions options;
  options.streaming.enabled = true;
  options.streaming.early_seal = false;
  options.degraded.min_snapshots = 6;
  DWatchPipeline pipe(room_arrays(4), kRoomBounds, options);
  const rf::UniformLinearArray array = room_arrays(4)[0];
  const rfid::Epc96 epc = rfid::Epc96::for_tag_index(1);
  const double angle = rf::deg2rad(60);
  pipe.add_baseline(0, epc, tag_snapshots(array, angle, 1.0, 16, 1));

  pipe.begin_epoch();
  const linalg::CMatrix online = tag_snapshots(array, angle, 0.2, 12, 2);
  const double widen = options.degraded.sigma_widen;
  for (std::size_t report = 0; report < 3; ++report) {
    (void)pipe.observe(0, epc, columns(online, 4 * report, 4));
    EXPECT_EQ(pipe.confidence_report().low_snapshot_observations, 1u)
        << "after report " << report;
    const std::vector<PathDrop>& drops = pipe.evidence()[0].drops;
    ASSERT_FALSE(drops.empty()) << "after report " << report;
    for (const PathDrop& d : drops) {
      EXPECT_EQ(d.sigma_scale, report == 0 ? widen : 1.0)
          << "after report " << report;
    }
  }
  EXPECT_EQ(pipe.stats().low_snapshot_observations, 1u);
  EXPECT_EQ(pipe.confidence_report().observations, 3u);
}

TEST(StreamingPipeline, RestoreAtAnEpochBoundaryMatchesTheUninterrupted) {
  // Pipeline A runs every epoch; B is restored from A's export at an
  // epoch boundary and fed the same reports from then on. Evidence,
  // early sealing, staleness and fixes must agree observation by
  // observation. Each epoch opens with a retransmission of one of the
  // previous epoch's reports, which the carried default watermark
  // rejects.
  PipelineOptions options;
  options.streaming.enabled = true;
  options.streaming.min_reports = 4;
  options.streaming.convergence_window = 2;
  DWatchPipeline a(room_arrays(8), kRoomBounds, options);
  const std::vector<rf::UniformLinearArray> arrays = room_arrays(8);
  const rf::Vec2 target{2.0, 3.0};
  for (std::size_t k = 0; k < arrays.size(); ++k) {
    a.add_baseline(
        k, rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(k + 1)),
        tag_snapshots(arrays[k], arrays[k].arrival_angle_planar(target), 1.0,
                      16, 500 + k));
  }

  constexpr std::size_t kEpochs = 5;
  constexpr std::size_t kRestoreAt = 2;
  constexpr std::size_t kReportsPerArray = 8;
  const auto report = [&](std::size_t epoch, std::size_t r, std::size_t k) {
    const std::uint64_t seed = 1000 * epoch + 10 * r + k;
    return wire_obs(
        tag_snapshots(arrays[k], arrays[k].arrival_angle_planar(target), 0.2,
                      16, seed),
        rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(k + 1)),
        10000 * (epoch + 1) + 10 * r + k);
  };

  std::optional<DWatchPipeline> b;
  std::size_t early_restored_epochs = 0;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch == kRestoreAt) {
      b.emplace(room_arrays(8), kRoomBounds, options);
      b->restore(a.export_state());
    }
    std::vector<DWatchPipeline*> pipes{&a};
    if (b) pipes.push_back(&*b);
    for (DWatchPipeline* p : pipes) p->begin_epoch();
    if (epoch > 0) {
      const rfid::TagObservation stale =
          report(epoch - 1, 0, arrays.size() - 1);
      for (DWatchPipeline* p : pipes) {
        (void)p->observe(arrays.size() - 1, stale);
      }
    }
    for (std::size_t r = 0; r < kReportsPerArray; ++r) {
      for (std::size_t k = 0; k < arrays.size(); ++k) {
        const rfid::TagObservation obs = report(epoch, r, k);
        for (DWatchPipeline* p : pipes) (void)p->observe(k, obs);
        if (!b) continue;
        ASSERT_EQ(b->early_fix_ready(), a.early_fix_ready())
            << "epoch " << epoch << " report " << r << " array " << k;
        for (std::size_t e = 0; e < arrays.size(); ++e) {
          const std::vector<PathDrop>& da = a.evidence()[e].drops;
          const std::vector<PathDrop>& db = b->evidence()[e].drops;
          ASSERT_EQ(db.size(), da.size());
          for (std::size_t i = 0; i < da.size(); ++i) {
            EXPECT_EQ(db[i].theta, da[i].theta);
            EXPECT_EQ(db[i].online_power, da[i].online_power);
            EXPECT_EQ(db[i].sigma_scale, da[i].sigma_scale);
            EXPECT_EQ(db[i].source_id, da[i].source_id);
          }
        }
      }
    }
    if (!b) continue;
    if (a.early_fix_ready()) ++early_restored_epochs;
    const ConfidentEstimate fa = a.localize_with_confidence(true);
    const ConfidentEstimate fb = b->localize_with_confidence(true);
    EXPECT_EQ(fb.estimate.valid, fa.estimate.valid) << "epoch " << epoch;
    EXPECT_EQ(fb.estimate.position.x, fa.estimate.position.x);
    EXPECT_EQ(fb.estimate.position.y, fa.estimate.position.y);
    EXPECT_EQ(fb.estimate.likelihood, fa.estimate.likelihood);
    EXPECT_EQ(fb.confidence, fa.confidence) << "epoch " << epoch;
    EXPECT_EQ(fb.confidence.stale_observations, 1u) << "epoch " << epoch;
    EXPECT_EQ(b->stats(), a.stats()) << "epoch " << epoch;
  }
  // The restored epochs must actually exercise early sealing.
  EXPECT_GT(early_restored_epochs, 0u);
}

}  // namespace
}  // namespace dwatch::core
