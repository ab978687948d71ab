#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace dwatch::harness {

double human_error(rf::Vec2 estimate, rf::Vec2 truth, double allowance) {
  return std::max(0.0, rf::distance(estimate, truth) - allowance);
}

double point_error(rf::Vec2 estimate, rf::Vec2 truth) {
  return rf::distance(estimate, truth);
}

std::vector<std::size_t> nearest_tags(const sim::Scene& scene,
                                      std::size_t array_idx,
                                      std::size_t count) {
  const auto& dep = scene.deployment();
  const rf::Vec3 c = dep.arrays.at(array_idx).center();
  std::vector<std::size_t> idx(dep.tags.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return rf::distance(dep.tags[a].position, c) <
           rf::distance(dep.tags[b].position, c);
  });
  idx.resize(std::min(count, idx.size()));
  return idx;
}

std::vector<core::CalibrationMeasurement> anchor_measurements(
    const sim::Scene& scene, std::size_t array_idx,
    const rfid::RoAccessReport& report,
    std::span<const std::size_t> anchor_tags) {
  const auto& dep = scene.deployment();
  const auto& array = dep.arrays.at(array_idx);
  const std::size_t m = array.num_elements();
  std::vector<core::CalibrationMeasurement> out;
  for (const std::size_t t : anchor_tags) {
    const rfid::Epc96& epc = dep.tags.at(t).epc;
    for (const rfid::TagObservation& obs : report.observations) {
      if (obs.epc != epc) continue;
      core::CalibrationMeasurement meas;
      try {
        meas.snapshots = core::observation_to_snapshots(obs, m);
      } catch (const std::invalid_argument&) {
        continue;  // no complete round survived the faults this epoch
      }
      meas.los_angle = array.arrival_angle(dep.tags[t].position);
      out.push_back(std::move(meas));
      break;  // first usable observation of this anchor wins
    }
  }
  return out;
}

namespace {

core::SearchBounds bounds_of(const sim::Scene& scene) {
  const auto& env = scene.deployment().env;
  return core::SearchBounds{{0.0, 0.0}, {env.width, env.depth}};
}

}  // namespace

ExperimentRunner::ExperimentRunner(const sim::Scene& scene,
                                   RunnerOptions options)
    : scene_(scene),
      options_(options),
      pipeline_(scene.deployment().arrays, bounds_of(scene),
                options.pipeline) {}

void ExperimentRunner::calibrate(rf::Rng& rng) {
  DWATCH_SPAN("experiment.calibrate");
  calibration_reports_.clear();
  if (!options_.calibrate) return;
  for (std::size_t a = 0; a < scene_.num_arrays(); ++a) {
    const auto& array = scene_.deployment().arrays[a];
    std::vector<core::CalibrationMeasurement> meas;
    for (const std::size_t t :
         nearest_tags(scene_, a, options_.calibration_tags)) {
      if (!scene_.tag_readable(a, t)) continue;
      core::CalibrationMeasurement m;
      m.snapshots = scene_.capture(a, t, {}, rng);
      for (std::size_t extra = 1; extra < options_.calibration_captures;
           ++extra) {
        const linalg::CMatrix more = scene_.capture(a, t, {}, rng);
        linalg::CMatrix joined(m.snapshots.rows(),
                               m.snapshots.cols() + more.cols());
        for (std::size_t r = 0; r < joined.rows(); ++r) {
          for (std::size_t c = 0; c < m.snapshots.cols(); ++c) {
            joined(r, c) = m.snapshots(r, c);
          }
          for (std::size_t c = 0; c < more.cols(); ++c) {
            joined(r, m.snapshots.cols() + c) = more(r, c);
          }
        }
        m.snapshots = std::move(joined);
      }
      m.los_angle =
          array.arrival_angle(scene_.deployment().tags[t].position);
      meas.push_back(std::move(m));
    }
    if (meas.empty()) continue;

    core::WirelessCalibrator calibrator(array.spacing(), array.lambda(),
                                        options_.calibration);
    const core::CalibrationResult result = calibrator.calibrate(meas, rng);

    CalibrationReport report;
    report.estimated = result.offsets;
    report.truth = scene_.reader(a).relative_phase_offsets();
    report.mean_error_rad =
        core::mean_phase_error(report.estimated, report.truth);
    report.residual = result.residual;
    calibration_reports_.push_back(report);
    // The core emits calibration.solve (residual, evaluations); the
    // harness knows the simulator's ground truth, so it adds the actual
    // phase error per array — the paper's Fig. 9 quality number.
    if (obs::enabled()) {
      obs::EventLog::global().emit(
          obs::Event("experiment.calibration")
              .field("array", a)
              .field("tags", meas.size())
              .field("mean_error_rad", report.mean_error_rad)
              .field("residual", report.residual));
    }

    pipeline_.set_calibration(a, result.offsets);
  }
}

std::size_t ExperimentRunner::collect_baselines(rf::Rng& rng) {
  DWATCH_SPAN("experiment.baselines");
  std::size_t stored = 0;
  for (std::size_t a = 0; a < scene_.num_arrays(); ++a) {
    for (std::size_t t = 0; t < scene_.num_tags(); ++t) {
      if (!scene_.tag_readable(a, t)) continue;
      if (options_.through_wire) {
        pipeline_.add_baseline(a, scene_.capture_observation(a, t, {}, rng));
      } else {
        pipeline_.add_baseline(a, scene_.deployment().tags[t].epc,
                               scene_.capture(a, t, {}, rng));
      }
      ++stored;
    }
  }
  return stored;
}

void ExperimentRunner::run_epoch(std::span<const sim::CylinderTarget> targets,
                                 rf::Rng& rng) {
  DWATCH_SPAN("experiment.epoch");
  pipeline_.begin_epoch();
  for (std::size_t a = 0; a < scene_.num_arrays(); ++a) {
    for (std::size_t t = 0; t < scene_.num_tags(); ++t) {
      if (!scene_.tag_readable(a, t)) continue;
      if (options_.through_wire) {
        (void)pipeline_.observe(
            a, scene_.capture_observation(a, t, targets, rng));
      } else {
        (void)pipeline_.observe(a, scene_.deployment().tags[t].epc,
                                scene_.capture(a, t, targets, rng));
      }
    }
  }
}

core::LocationEstimate ExperimentRunner::run_fix(
    std::span<const sim::CylinderTarget> targets, rf::Rng& rng) {
  run_epoch(targets, rng);
  return pipeline_.localize();
}

core::LocationEstimate ExperimentRunner::run_fix_best_effort(
    std::span<const sim::CylinderTarget> targets, rf::Rng& rng) {
  run_epoch(targets, rng);
  return pipeline_.localize_best_effort();
}

std::vector<core::LocationEstimate> ExperimentRunner::run_fix_multi(
    std::span<const sim::CylinderTarget> targets, std::size_t max_targets,
    double min_separation, rf::Rng& rng) {
  run_epoch(targets, rng);
  return pipeline_.localize_multi(max_targets, min_separation);
}

}  // namespace dwatch::harness
