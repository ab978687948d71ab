#include "core/change_detector.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace dwatch::core {

SpectrumChangeDetector::SpectrumChangeDetector(ChangeDetectorOptions options)
    : options_(options) {
  if (options_.min_drop_fraction < 0.0 || options_.min_drop_fraction > 1.0) {
    throw std::invalid_argument(
        "SpectrumChangeDetector: min_drop_fraction outside [0,1]");
  }
  if (!(options_.angle_window >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "SpectrumChangeDetector: angle_window must be >= 0");
  }
}

std::pair<std::size_t, std::size_t> SpectrumChangeDetector::window_bins(
    const AngularSpectrum& spectrum, double theta) const {
  // Clamp the window onto the grid and keep the bounds ordered whatever
  // index_of returns for off-grid angles. The bin nearest theta is
  // ALWAYS part of the window: an empty window would leave the maximum
  // at 0.0 and report a healthy edge-of-grid baseline peak as a
  // spurious full drop (drop_fraction == 1.0).
  std::size_t lo = spectrum.index_of(theta - options_.angle_window);
  std::size_t hi = spectrum.index_of(theta + options_.angle_window);
  if (lo > hi) std::swap(lo, hi);
  const std::size_t center = spectrum.index_of(theta);
  lo = std::min(lo, center);
  hi = std::max(hi, center);
  hi = std::min(hi, spectrum.size() - 1);
  return {lo, hi};
}

double SpectrumChangeDetector::windowed_power(const AngularSpectrum& spectrum,
                                              double theta) const {
  const auto [lo, hi] = window_bins(spectrum, theta);
  double best = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    best = std::max(best, spectrum[i]);
  }
  return best;
}

DetectionWindows SpectrumChangeDetector::prepare(
    const AngularSpectrum& baseline) const {
  const std::vector<Peak> peaks = find_peaks(baseline, options_.peaks);
  DetectionWindows out;
  out.windows.reserve(peaks.size());
  std::size_t num_bins = 0;
  for (const Peak& peak : peaks) {
    // A non-positive peak has no fraction to lose; it never drops.
    if (peak.value <= 0.0) continue;
    const auto [lo, hi] = window_bins(baseline, peak.theta);
    out.windows.push_back({.peak = peak, .lo = lo, .hi = hi});
    num_bins += hi - lo + 1;
  }
  // Sized once: the windows live as long as their baseline.
  out.bins.reserve(num_bins);
  for (const DetectionWindows::Window& w : out.windows) {
    for (std::size_t i = w.lo; i <= w.hi; ++i) out.bins.push_back(i);
  }
  return out;
}

std::vector<PathDrop> SpectrumChangeDetector::detect(
    const DetectionWindows& prepared, std::span<const double> online) const {
  DWATCH_SPAN("change.detect");
  if (online.size() != prepared.bins.size()) {
    throw std::invalid_argument(
        "SpectrumChangeDetector: online values do not match the windows");
  }
  std::vector<PathDrop> drops;
  const double* values = online.data();
  for (const DetectionWindows::Window& w : prepared.windows) {
    // windowed_power() over this window's slice of `online`.
    double now = 0.0;
    for (std::size_t i = w.lo; i <= w.hi; ++i) now = std::max(now, *values++);
    const double drop = (w.peak.value - now) / w.peak.value;
    if (drop >= options_.min_drop_fraction) {
      drops.push_back(PathDrop{
          .theta = w.peak.theta,
          .drop_fraction = std::min(drop, 1.0),
          .baseline_power = w.peak.value,
          .online_power = now,
      });
    }
  }
  return drops;
}

std::vector<PathDrop> SpectrumChangeDetector::detect(
    const AngularSpectrum& baseline, const AngularSpectrum& online) const {
  if (baseline.size() != online.size()) {
    throw std::invalid_argument(
        "SpectrumChangeDetector: spectrum size mismatch");
  }
  const DetectionWindows prepared = prepare(baseline);
  std::vector<double> at_bins;
  at_bins.reserve(prepared.bins.size());
  for (const std::size_t i : prepared.bins) at_bins.push_back(online[i]);
  return detect(prepared, at_bins);
}

}  // namespace dwatch::core
