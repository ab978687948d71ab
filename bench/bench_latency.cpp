// Section 8 latency microbenchmarks (google-benchmark).
//
// The paper reports ~57 ms average processing time per fix on a 2016
// i7-4790 desktop, with an end-to-end latency well under 0.5 s at a
// 0.1 s transmission interval. These benches time the individual stages
// and the full fix, plus the hill-climbing vs exhaustive-search ablation
// the DESIGN.md calls out.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_reporter.hpp"

#include "bench_util.hpp"
#include "core/covariance.hpp"
#include "core/pipeline.hpp"
#include "core/pmusic.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "rf/constants.hpp"
#include "rfid/gen2.hpp"
#include "rfid/llrp.hpp"

namespace {

using namespace dwatch;

const sim::Scene& shared_scene() {
  static const sim::Scene scene =
      bench::make_room_scene(sim::Environment::library());
  return scene;
}

linalg::CMatrix shared_snapshots() {
  rf::Rng rng(5);
  return shared_scene().capture(0, 0, {}, rng);
}

void BM_SampleCorrelation(benchmark::State& state) {
  const auto x = shared_snapshots();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_correlation(x));
  }
}
BENCHMARK(BM_SampleCorrelation);

void BM_PMusicSpectrum(benchmark::State& state) {
  const auto x = shared_snapshots();
  const auto& array = shared_scene().deployment().arrays[0];
  core::PMusicEstimator pm(array.spacing(), array.lambda());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.estimate(x));
  }
}
BENCHMARK(BM_PMusicSpectrum);

void BM_OnlinePowerSpectrum(benchmark::State& state) {
  // The per-observation online cost (no eigendecomposition).
  const auto x = shared_snapshots();
  const auto& array = shared_scene().deployment().arrays[0];
  core::PMusicEstimator pm(array.spacing(), array.lambda());
  const auto r = core::sample_correlation(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.power_spectrum(r));
  }
}
BENCHMARK(BM_OnlinePowerSpectrum);

/// The per-observation cost of the pipeline: one wire TagObservation of
/// a library tag, with a person at (3, 4), through
/// DWatchPipeline::observe (snapshot fill, calibration, correlation,
/// PB at the baseline's windows, drop detection, RSS bookkeeping).
/// BM_OnlinePowerSpectrum is the full 361-bin PB it no longer computes.
void BM_Observe(benchmark::State& state) {
  const sim::Scene& scene = shared_scene();
  harness::RunnerOptions opts;
  opts.calibrate = false;
  opts.through_wire = true;
  harness::ExperimentRunner runner(scene, opts);
  core::DWatchPipeline& pipeline = runner.pipeline();
  rf::Rng rng(9);
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    pipeline.set_calibration(a, scene.reader(a).phase_offsets());
  }
  runner.collect_baselines(rng);
  std::size_t t = 0;
  while (!scene.tag_readable(0, t)) ++t;
  const std::vector<sim::CylinderTarget> targets{
      sim::CylinderTarget::human({3.0, 4.0})};
  const rfid::TagObservation obs =
      scene.capture_observation(0, t, targets, rng);
  pipeline.begin_epoch();
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.observe(0, obs));
    // Keep the epoch's evidence list short; amortized over 1024 calls.
    if (++n % 1024 == 0) pipeline.begin_epoch();
  }
}
BENCHMARK(BM_Observe);

/// One full fix: observe every readable (array, tag) pair + localize.
/// The paper's comparable number is ~57 ms processing per fix.
void BM_FullFix(benchmark::State& state) {
  const bool hill = state.range(0) != 0;
  const sim::Scene& scene = shared_scene();
  harness::RunnerOptions opts;
  opts.calibrate = false;
  opts.through_wire = false;
  opts.pipeline.localizer.hill_climbing = hill;
  harness::ExperimentRunner runner(scene, opts);
  rf::Rng rng(9);
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    runner.pipeline().set_calibration(a, scene.reader(a).phase_offsets());
  }
  runner.collect_baselines(rng);
  const sim::CylinderTarget target = sim::CylinderTarget::human({3.0, 4.0});
  const std::vector<sim::CylinderTarget> targets{target};
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_fix_best_effort(targets, rng));
  }
}
BENCHMARK(BM_FullFix)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A runner that has observed one library epoch with a person at
/// (3, 4), ready to localize.
std::unique_ptr<harness::ExperimentRunner> observed_epoch(bool hill) {
  const sim::Scene& scene = shared_scene();
  harness::RunnerOptions opts;
  opts.calibrate = false;
  opts.through_wire = false;
  opts.pipeline.localizer.hill_climbing = hill;
  auto runner = std::make_unique<harness::ExperimentRunner>(scene, opts);
  rf::Rng rng(9);
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    runner->pipeline().set_calibration(a, scene.reader(a).phase_offsets());
  }
  runner->collect_baselines(rng);
  const sim::CylinderTarget target = sim::CylinderTarget::human({3.0, 4.0});
  const std::vector<sim::CylinderTarget> targets{target};
  runner->run_epoch(targets, rng);
  return runner;
}

void BM_LocalizeOnly(benchmark::State& state) {
  const auto runner = observed_epoch(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner->pipeline().localize_best_effort());
  }
}
BENCHMARK(BM_LocalizeOnly)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Reference row for BM_LocalizeOnly: the dense heatmap grid (every cell
/// evaluated, serial) on the same epoch. The exact branch-and-bound
/// search of BM_LocalizeOnly/0 returns the same peaks as a scan of this
/// grid; hill climbing (/1) may miss some.
void BM_LikelihoodGrid(benchmark::State& state) {
  const auto runner = observed_epoch(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner->pipeline().likelihood_grid());
  }
}
BENCHMARK(BM_LikelihoodGrid)->Unit(benchmark::kMillisecond);

void BM_CalibrationSolve(benchmark::State& state) {
  const sim::Scene& scene = shared_scene();
  const auto& array = scene.deployment().arrays[0];
  rf::Rng rng(11);
  std::vector<core::CalibrationMeasurement> meas;
  for (const std::size_t t : harness::nearest_tags(scene, 0, 6)) {
    core::CalibrationMeasurement m;
    m.snapshots = scene.capture(0, t, {}, rng);
    m.los_angle = array.arrival_angle(scene.deployment().tags[t].position);
    meas.push_back(std::move(m));
  }
  core::WirelessCalibrator calibrator(array.spacing(), array.lambda());
  for (auto _ : state) {
    rf::Rng opt_rng(13);
    benchmark::DoNotOptimize(calibrator.calibrate(meas, opt_rng));
  }
}
BENCHMARK(BM_CalibrationSolve)->Unit(benchmark::kMillisecond);

void BM_LlrpEncodeDecode(benchmark::State& state) {
  const sim::Scene& scene = shared_scene();
  rf::Rng rng(15);
  rfid::RoAccessReport report;
  report.message_id = 1;
  for (std::size_t t = 0; t < scene.num_tags(); ++t) {
    report.observations.push_back(
        scene.capture_observation(0, t, {}, rng));
  }
  const auto bytes = encode(report);
  std::size_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::decode_ro_access_report(bytes));
    total += bytes.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_LlrpEncodeDecode);

/// One RO_ACCESS_REPORT decode at the two perfbench shapes. Arg 0 is a
/// rooms report: every tag of one library array (M = 8). Arg 1 is a
/// fleet report: one tag of a 4-element array, 8 rounds (32 samples).
void BM_DecodeReport(benchmark::State& state) {
  rfid::RoAccessReport report;
  report.message_id = 1;
  rf::Rng rng(15);
  if (state.range(0) == 0) {
    const sim::Scene& scene = shared_scene();
    for (std::size_t t = 0; t < scene.num_tags(); ++t) {
      report.observations.push_back(scene.capture_observation(0, t, {}, rng));
    }
  } else {
    rfid::TagObservation obs;
    obs.epc = rfid::Epc96::for_tag_index(1);
    for (std::uint32_t n = 0; n < 8; ++n) {
      for (std::uint16_t m = 1; m <= 4; ++m) {
        const auto [pq, rq] = rfid::quantize_sample(
            std::polar(0.01, rng.uniform(0.0, rf::kTwoPi)));
        obs.samples.push_back(rfid::PhaseSample{m, n, pq, rq});
      }
    }
    report.observations.push_back(std::move(obs));
  }
  const auto bytes = encode(report);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::decode_ro_access_report(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeReport)->Arg(0)->Arg(1);

/// The snapshot fill with dequantization: one library tag's wire
/// observation to its M x N matrix.
void BM_ObservationToSnapshots(benchmark::State& state) {
  const sim::Scene& scene = shared_scene();
  rf::Rng rng(9);
  std::size_t t = 0;
  while (!scene.tag_readable(0, t)) ++t;
  const rfid::TagObservation obs = scene.capture_observation(0, t, {}, rng);
  const std::size_t m = scene.deployment().arrays[0].num_elements();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::observation_to_snapshots(obs, m));
  }
}
BENCHMARK(BM_ObservationToSnapshots);

/// Full fixes with the observability layer switched ON. Two jobs in
/// one: the wall-clock time is the instrumented-path overhead (compare
/// against BM_FullFix/1 — the budget is <2%), and the obs histograms
/// accumulated across all iterations are exported as per-stage
/// p50/p95/p99 counters, so BENCH_latency.json carries a stage-level
/// latency breakdown (pmusic.spectrum_p95_us, localize.grid_p99_us,
/// ...) alongside the whole-fix numbers. With DWATCH_OBS=OFF this
/// degenerates to exactly BM_FullFix/1 and exports no counters.
void BM_StagePercentiles(benchmark::State& state) {
  const sim::Scene& scene = shared_scene();
  harness::RunnerOptions opts;
  opts.calibrate = false;
  opts.through_wire = false;
  opts.pipeline.localizer.hill_climbing = true;
  harness::ExperimentRunner runner(scene, opts);
  rf::Rng rng(9);
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    runner.pipeline().set_calibration(a, scene.reader(a).phase_offsets());
  }
  runner.collect_baselines(rng);
  const std::vector<sim::CylinderTarget> targets{
      sim::CylinderTarget::human({3.0, 4.0})};
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_fix_best_effort(targets, rng));
  }
  obs::set_enabled(false);
  obs::MetricsRegistry::global().for_each_histogram(
      [&state](const std::string& name, const std::string& labels,
               const obs::Histogram& h) {
        if (name != "dwatch_stage_latency_us" || h.count() == 0) return;
        // labels is `stage="<name>"`; pull out the quoted stage name.
        const std::size_t open = labels.find('"');
        const std::size_t close = labels.rfind('"');
        if (open == std::string::npos || close <= open) return;
        const std::string stage = labels.substr(open + 1, close - open - 1);
        state.counters[stage + "_p50_us"] = h.percentile(50.0);
        state.counters[stage + "_p95_us"] = h.percentile(95.0);
        state.counters[stage + "_p99_us"] = h.percentile(99.0);
      });
}
BENCHMARK(BM_StagePercentiles)->Unit(benchmark::kMillisecond);

void BM_Gen2Inventory(benchmark::State& state) {
  const auto tags = static_cast<std::size_t>(state.range(0));
  rfid::Gen2Config cfg;
  rf::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::run_inventory(tags, cfg, rng));
  }
}
BENCHMARK(BM_Gen2Inventory)->Arg(21)->Arg(47);

}  // namespace

DWATCH_BENCH_MAIN()
