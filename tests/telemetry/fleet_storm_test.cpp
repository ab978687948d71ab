// The fleet storm: the admission-control brownout ladder under an
// open-loop load storm, through the real feedback loop (service ->
// TelemetryPlane SLO burn -> BudgetProvider -> admission tier ->
// service).
//
// 64 zones run 8 serving ticks at each offered load of 0.5x, 1x, 2x,
// 4x and 8x the drain capacity. Traffic is mixed: every 4th zone is
// bulk, the rest tracking, and every 16th zone carries calibration
// anchors every 3rd tick. Per-zone DSP is deliberately tiny (4-element
// arrays, 8 snapshots, a 0.5 m grid): the storm exercises the serving
// layer, not the localizer.
//
// Invariants, at every load and worker count:
//   - an anchor-class epoch is never shed;
//   - below capacity (0.5x, 1x) the ladder stays at tier 0 and every
//     offered epoch is processed;
//   - at 2x and above the ladder reaches tier 4 (reject_bulk).
//
// The SLO clock counts epochs and the load schedule is integer, so
// every serving counter is deterministic. The counts are pinned, and
// they must not depend on the worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/pipeline.hpp"
#include "serve/service.hpp"
#include "telemetry/plane.hpp"
#include "tests/telemetry/fleet_fixture.hpp"

namespace dwatch::telemetry {
namespace {

using serve::BrownoutTier;
using serve::LocalizationService;
using serve::TrafficClass;

constexpr std::size_t kZones = 64;
constexpr std::uint64_t kTicks = 8;
/// Zones share geometry across kShapes classes, so traffic and
/// baselines are synthesized once per shape, not once per zone.
constexpr std::size_t kShapes = 8;
/// Report sets per shape, rotated across epochs.
constexpr std::size_t kRotation = 4;
constexpr std::uint64_t kCapacityPerTick = 2;  // == max_queue_per_zone
constexpr std::size_t kSnapshots = 8;

std::vector<rf::UniformLinearArray> storm_arrays() {
  return {
      rf::UniformLinearArray({2.0, 0.1, 1.2}, {1, 0}, 4),
      rf::UniformLinearArray({0.1, 3.0, 1.2}, {0, 1}, 4),
  };
}

rf::Vec2 shape_target(std::size_t shape) {
  return {1.0 + 0.3 * static_cast<double>(shape),
          1.4 + 0.25 * static_cast<double>(shape)};
}

rfid::Epc96 shape_tag(std::size_t shape, std::size_t array) {
  return rfid::Epc96::for_tag_index(
      static_cast<std::uint32_t>(10 * shape + array + 1));
}

/// reports[rotation][shape][array]: every zone of a shape routes the
/// same report.
using StormTraffic =
    std::vector<std::vector<std::vector<rfid::RoAccessReport>>>;

StormTraffic make_traffic() {
  const auto arrays = storm_arrays();
  StormTraffic traffic(kRotation);
  for (std::size_t e = 0; e < kRotation; ++e) {
    traffic[e].resize(kShapes);
    for (std::size_t s = 0; s < kShapes; ++s) {
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        const double angle = arrays[a].arrival_angle_planar(shape_target(s));
        const std::uint64_t seed = 1000 * s + 10 * e + a + 1;
        rfid::RoAccessReport report;
        report.message_id = static_cast<std::uint32_t>(seed);
        report.observations.push_back(testing::wire_obs(
            testing::synth(arrays[a], angle, 0.2, seed, kSnapshots),
            shape_tag(s, a)));
        traffic[e][s].push_back(std::move(report));
      }
    }
  }
  return traffic;
}

/// One calibration measurement per array and shape: enough to make an
/// epoch anchor-class.
using AnchorSets =
    std::vector<std::vector<std::vector<core::CalibrationMeasurement>>>;

AnchorSets make_anchor_sets() {
  const auto arrays = storm_arrays();
  AnchorSets sets(kShapes);
  for (std::size_t s = 0; s < kShapes; ++s) {
    sets[s].resize(arrays.size());
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const double angle = arrays[a].arrival_angle_planar(shape_target(s));
      core::CalibrationMeasurement m;
      m.snapshots =
          testing::synth(arrays[a], angle, 1.0, 9000 + 10 * s + a, kSnapshots);
      m.los_angle = angle;
      sets[s][a].push_back(std::move(m));
    }
  }
  return sets;
}

std::unique_ptr<LocalizationService> make_storm_service(
    std::size_t num_workers) {
  serve::ServiceOptions opts;
  opts.num_workers = num_workers;
  opts.max_queue_per_zone = kCapacityPerTick;
  auto service = std::make_unique<LocalizationService>(opts);
  const auto arrays = storm_arrays();
  for (std::size_t z = 0; z < kZones; ++z) {
    const std::size_t shape = z % kShapes;
    serve::ZoneConfig cfg;
    cfg.name = "zone" + std::to_string(z);
    cfg.arrays = arrays;
    cfg.bounds = {{0.0, 0.0}, {4.0, 4.0}};
    cfg.pipeline.localizer.grid_step = 0.5;
    // Anchor class is earned per epoch by carrying anchors.
    cfg.traffic_class =
        (z % 4 == 3) ? TrafficClass::kBulk : TrafficClass::kTracking;
    const std::size_t id = service->add_zone(std::move(cfg));
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const double angle = arrays[a].arrival_angle_planar(shape_target(shape));
      service->zone(id).pipeline().add_baseline(
          a, shape_tag(shape, a),
          testing::synth(arrays[a], angle, 1.0, 500 + 10 * shape + a,
                         kSnapshots));
      service->bind_reader(100 * (z + 1) + a, id, a);
    }
  }
  return service;
}

struct StormResult {
  std::uint64_t offered = 0;  ///< zone epochs begun
  serve::ServiceStats stats;
  BrownoutTier tier_max = BrownoutTier::kNormal;
};

/// kTicks serving ticks at `x10` tenths of capacity.
StormResult run_storm(std::size_t num_workers, std::uint64_t x10) {
  const StormTraffic traffic = make_traffic();
  const AnchorSets anchors = make_anchor_sets();
  auto service = make_storm_service(num_workers);

  TelemetryOptions topts;
  topts.recorder_ring_epochs = 8;
  // The latency objective reads the wall clock; a preempted epoch on a
  // loaded host would burn it. Shed and quality burn, both counted in
  // epochs, drive the ladder here.
  topts.slo.fix_latency_budget_us = std::numeric_limits<std::uint64_t>::max();
  topts.dump_on_fast_burn = false;
  topts.dump_on_drift = false;
  TelemetryPlane plane(topts);
  plane.attach(*service);

  StormResult result;
  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    // Open loop, integer schedule: ticks 0..T-1 offer exactly
    // floor(T * capacity * x10 / 10) epochs per zone, so a fractional
    // load is spread across ticks instead of rounded away.
    const std::uint64_t offered = (tick + 1) * kCapacityPerTick * x10 / 10 -
                                  tick * kCapacityPerTick * x10 / 10;
    for (std::uint64_t e = 0; e < offered; ++e) {
      const auto& rot = traffic[(tick + e) % kRotation];
      for (std::size_t z = 0; z < kZones; ++z) {
        service->begin_epoch(z);
        const std::size_t shape = z % kShapes;
        for (std::size_t a = 0; a < rot[shape].size(); ++a) {
          (void)service->router().route(100 * (z + 1) + a, rot[shape][a]);
        }
        if (e == 0 && z % 16 == 0 && tick % 3 == 0) {
          service->add_anchors(z, anchors[shape]);
        }
      }
      result.offered += kZones;
    }
    (void)service->run_pending();
    result.tier_max = std::max(result.tier_max, service->admission().tier());
  }
  result.stats = service->stats();
  return result;
}

/// The pinned serving counters of one load point.
struct LoadPoint {
  std::uint64_t x10;
  std::uint64_t offered;
  std::size_t processed;
  std::size_t rejected;
  std::size_t shed;
  std::size_t widened;
  BrownoutTier tier_max;
};

constexpr std::array<LoadPoint, 5> kLoads{{
    {5, 512, 512, 0, 0, 0, BrownoutTier::kNormal},
    {10, 1024, 1024, 0, 0, 0, BrownoutTier::kNormal},
    {20, 2048, 848, 144, 168, 888, BrownoutTier::kRejectBulk},
    {40, 4096, 848, 272, 1192, 1784, BrownoutTier::kRejectBulk},
    {80, 8192, 848, 528, 3240, 3576, BrownoutTier::kRejectBulk},
}};

std::uint64_t anchor_count(
    const std::array<std::uint64_t, serve::kNumTrafficClasses>& by_class) {
  return by_class[static_cast<std::size_t>(TrafficClass::kAnchor)];
}

class FleetStorm : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetStorm, AnchorsSurviveAndTheLadderRestsBelowCapacity) {
  for (const LoadPoint& load : kLoads) {
    SCOPED_TRACE("load x10=" + std::to_string(load.x10));
    const StormResult r = run_storm(GetParam(), load.x10);
    EXPECT_GT(anchor_count(r.stats.submitted_by_class), 0u);
    EXPECT_EQ(anchor_count(r.stats.shed_by_class), 0u);
    if (load.x10 <= 10) {
      EXPECT_STREQ(to_string(r.tier_max), to_string(BrownoutTier::kNormal));
      EXPECT_EQ(r.stats.epochs_processed, r.offered);
    } else {
      EXPECT_STREQ(to_string(r.tier_max),
                   to_string(BrownoutTier::kRejectBulk));
    }
  }
}

TEST_P(FleetStorm, ServingCountsArePinned) {
  for (const LoadPoint& load : kLoads) {
    SCOPED_TRACE("load x10=" + std::to_string(load.x10));
    const StormResult r = run_storm(GetParam(), load.x10);
    EXPECT_EQ(r.offered, load.offered);
    EXPECT_EQ(r.stats.epochs_processed, load.processed);
    EXPECT_EQ(r.stats.epochs_rejected, load.rejected);
    EXPECT_EQ(r.stats.epochs_shed, load.shed);
    EXPECT_EQ(r.stats.epochs_widened, load.widened);
    EXPECT_STREQ(to_string(r.tier_max), to_string(load.tier_max));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, FleetStorm, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return std::to_string(i.param) + "workers";
                         });

}  // namespace
}  // namespace dwatch::telemetry
