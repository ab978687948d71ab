// Experiment runner: glue between the simulator (sim::Scene) and the
// D-Watch pipeline (core::DWatchPipeline), shared by every figure bench,
// example application and integration test.
//
// Responsibilities:
//  * pick calibration tags and run the wireless calibration per array;
//  * collect the empty-scene baselines (workflow Step 1);
//  * run online fixes with targets present and score them with the
//    paper's error metrics;
//  * the paper's human-width error allowance (Section 6.2).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/localizer.hpp"
#include "core/pipeline.hpp"
#include "rf/noise.hpp"
#include "sim/scene.hpp"

namespace dwatch::harness {

/// Paper Section 6.2 error metric: a human is 32-40 cm wide, so any
/// estimate within `allowance` of the truth counts as zero error;
/// otherwise the error is the distance beyond the allowance.
[[nodiscard]] double human_error(rf::Vec2 estimate, rf::Vec2 truth,
                                 double allowance = 0.18);

/// Plain Euclidean error (bottles, fists).
[[nodiscard]] double point_error(rf::Vec2 estimate, rf::Vec2 truth);

struct RunnerOptions {
  core::PipelineOptions pipeline;
  core::CalibrationOptions calibration;
  /// Tags used for calibration per array (the paper needs >= 4 for
  /// <0.05 rad, Fig. 9). Chosen as the tags nearest each array (clear
  /// dominant LoS, footnote 1).
  std::size_t calibration_tags = 8;
  /// Use the wire path (LLRP encode/decode + quantization) for every
  /// capture instead of raw matrices.
  bool through_wire = true;
  /// Captures concatenated per calibration measurement (longer
  /// observation => steadier noise subspace).
  std::size_t calibration_captures = 2;
  /// Skip calibration entirely (e.g. for no-calibration ablations).
  bool calibrate = true;
};

/// One array's calibration quality (for the Fig. 9/10 benches).
struct CalibrationReport {
  std::vector<double> estimated;  ///< beta offsets incl. reference 0
  std::vector<double> truth;      ///< reader's relative offsets
  double mean_error_rad = 0.0;
  double residual = 0.0;
};

/// Scene + pipeline bound together.
class ExperimentRunner {
 public:
  /// Builds the pipeline over the scene's arrays and environment bounds.
  ExperimentRunner(const sim::Scene& scene, RunnerOptions options);

  [[nodiscard]] core::DWatchPipeline& pipeline() noexcept {
    return pipeline_;
  }
  [[nodiscard]] const std::vector<CalibrationReport>& calibration_reports()
      const noexcept {
    return calibration_reports_;
  }

  /// Workflow Step 2: calibrate every array from its nearest tags.
  /// No-op when options.calibrate is false.
  void calibrate(rf::Rng& rng);

  /// Workflow Step 1: capture empty-scene baselines for every readable
  /// (array, tag) pair. Returns the number of baselines stored.
  std::size_t collect_baselines(rf::Rng& rng);

  /// One online fix with `targets` in the scene.
  [[nodiscard]] core::LocationEstimate run_fix(
      std::span<const sim::CylinderTarget> targets, rf::Rng& rng);

  /// Always-report fix (Fig. 14 style).
  [[nodiscard]] core::LocationEstimate run_fix_best_effort(
      std::span<const sim::CylinderTarget> targets, rf::Rng& rng);

  /// Multi-target fix.
  [[nodiscard]] std::vector<core::LocationEstimate> run_fix_multi(
      std::span<const sim::CylinderTarget> targets, std::size_t max_targets,
      double min_separation, rf::Rng& rng);

  /// Feed one epoch of observations without localizing (exposes the
  /// evidence for custom consumers, e.g. heatmaps).
  void run_epoch(std::span<const sim::CylinderTarget> targets, rf::Rng& rng);

 private:
  const sim::Scene& scene_;
  RunnerOptions options_;
  core::DWatchPipeline pipeline_;
  std::vector<CalibrationReport> calibration_reports_;
};

/// Tags nearest to an array (indices into scene tags), for calibration.
[[nodiscard]] std::vector<std::size_t> nearest_tags(const sim::Scene& scene,
                                                    std::size_t array_idx,
                                                    std::size_t count);

/// Extract calibration measurements for known-LoS anchor tags from one
/// decoded wire report — the per-epoch probe input of the recovery
/// drift watchdog. For each anchor tag index whose EPC appears in the
/// report, the observation is rebuilt into a snapshot matrix and paired
/// with the tag's true LoS angle at this array (which the deployment
/// knows: anchors are the same surveyed tags calibration used).
/// Observations that cannot form a complete round are skipped, not
/// thrown — faulted epochs must degrade the probe, not kill the loop.
[[nodiscard]] std::vector<core::CalibrationMeasurement> anchor_measurements(
    const sim::Scene& scene, std::size_t array_idx,
    const rfid::RoAccessReport& report,
    std::span<const std::size_t> anchor_tags);

}  // namespace dwatch::harness
