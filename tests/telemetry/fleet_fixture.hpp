// Shared mini-fleet fixture for the telemetry suites: a deterministic
// zone workload (same synthesis recipe as tests/serve/service_test.cpp,
// shrunk) so endpoint scrapes, SLO feeds and flight-recorder dumps all
// observe real serving traffic instead of hand-built observations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "rf/constants.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"
#include "serve/service.hpp"

namespace dwatch::telemetry::testing {

inline std::vector<rf::UniformLinearArray> zone_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
  };
}

inline linalg::CMatrix synth(const rf::UniformLinearArray& array,
                             double angle_rad, double scale,
                             std::uint64_t seed,
                             std::size_t num_snapshots = 16) {
  rf::PropagationPath p;
  p.kind = rf::PathKind::kDirect;
  p.vertices = {{-10, 0, array.center().z}, array.center()};
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

inline rfid::TagObservation wire_obs(const linalg::CMatrix& x,
                                     const rfid::Epc96& epc) {
  rfid::TagObservation obs;
  obs.epc = epc;
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

inline rf::Vec2 zone_target(std::size_t zone) {
  return {2.0 + 0.5 * static_cast<double>(zone),
          3.0 + 0.7 * static_cast<double>(zone)};
}

inline rfid::RoAccessReport epoch_report(std::size_t zone, std::size_t array,
                                         std::uint64_t epoch) {
  const auto arrays = zone_arrays();
  const double angle = arrays[array].arrival_angle_planar(zone_target(zone));
  const std::uint64_t seed = 1000 * zone + 10 * epoch + array + 1;
  rfid::RoAccessReport report;
  report.message_id = static_cast<std::uint32_t>(seed);
  report.observations.push_back(
      wire_obs(synth(arrays[array], angle, 0.2, seed),
               rfid::Epc96::for_tag_index(
                   static_cast<std::uint32_t>(10 * zone + array + 1))));
  return report;
}

inline void install_baselines(core::DWatchPipeline& pipe, std::size_t zone) {
  const auto arrays = zone_arrays();
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const double angle = arrays[a].arrival_angle_planar(zone_target(zone));
    pipe.add_baseline(a,
                      rfid::Epc96::for_tag_index(
                          static_cast<std::uint32_t>(10 * zone + a + 1)),
                      synth(arrays[a], angle, 1.0, 500 + 10 * zone + a));
  }
}

inline serve::ZoneConfig zone_config(std::size_t zone) {
  serve::ZoneConfig cfg;
  cfg.name = "zone" + std::to_string(zone);
  cfg.arrays = zone_arrays();
  cfg.bounds = {{0.0, 0.0}, {7.0, 10.0}};
  return cfg;
}

/// Build a `zones`-zone service with baselines installed. `num_workers`
/// = 1 keeps epoch processing fully serial (the determinism tests need
/// that: observer callbacks then arrive in one fixed global order).
/// Heap-allocated: the service owns mutexes (scheduler + admission)
/// and is therefore immovable.
inline std::unique_ptr<serve::LocalizationService> make_fleet(
    std::size_t zones, std::size_t num_workers,
    bool with_baselines = true) {
  serve::ServiceOptions opts;
  opts.num_workers = num_workers;
  auto service = std::make_unique<serve::LocalizationService>(opts);
  for (std::size_t z = 0; z < zones; ++z) {
    const std::size_t id = service->add_zone(zone_config(z));
    if (with_baselines) install_baselines(service->zone(id).pipeline(), z);
  }
  return service;
}

/// Drive `epochs` epochs of traffic into every zone via add_report.
inline void drive_epochs(serve::LocalizationService& service,
                         std::size_t zones, std::uint64_t epochs) {
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::size_t z = 0; z < zones; ++z) {
      service.begin_epoch(z);
      for (std::size_t a = 0; a < 2; ++a) {
        service.add_report(z, a, epoch_report(z, a, e));
      }
    }
    (void)service.run_pending();
  }
}

}  // namespace dwatch::telemetry::testing
