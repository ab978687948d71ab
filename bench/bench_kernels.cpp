// Per-kernel spectral microbenchmarks: the four SIMD-dispatched kernels
// measured scalar-vs-vector on identical inputs, plus the truncated
// eigensolver against the dense solver it replaces and the end-to-end
// P-MUSIC estimate both ways.
//
// Each kernel runs as two arms (simd:0 = the scalar `_lanes` kernels
// under a forced kScalar backend, simd:1 = the detected vector backend)
// on the production shape: M = 8 elements, G = 361 grid columns,
// N = 16 snapshots. The vector arm also reports `speedup_vs_scalar`
// (median-over-median, measured in-process) so BENCH_latency.json
// records the ratio directly; it measures the speedup against the
// scalar `_lanes` kernels, not the pre-SIMD std::complex loops. Every
// arm reports manual p50/p99 per-call latency alongside
// google-benchmark's mean.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "core/covariance.hpp"
#include "core/music.hpp"
#include "core/pmusic.hpp"
#include "core/spectrum.hpp"
#include "core/steering_cache.hpp"
#include "linalg/complex_matrix.hpp"
#include "linalg/hermitian_eig.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/soa_complex.hpp"
#include "linalg/truncated_eig.hpp"
#include "rf/constants.hpp"

namespace {

using namespace dwatch;
namespace simd = linalg::simd;

constexpr double kSpacing = 0.163;
constexpr double kLambda = 2.0 * kSpacing;
constexpr std::size_t kElements = 8;
constexpr std::size_t kSnapshots = 16;

struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  double uniform() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

/// Two coherent paths + weak noise — the golden-spectrum scene.
linalg::CMatrix bench_snapshots(std::size_t num_elements,
                                std::uint64_t seed) {
  const double thetas[2] = {0.7, 1.9};
  const double amplitudes[2] = {1.0, 0.45};
  Lcg lcg(seed);
  linalg::CMatrix x(num_elements, kSnapshots);
  for (std::size_t n = 0; n < kSnapshots; ++n) {
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

struct Fixtures {
  linalg::CMatrix x;                ///< M x N snapshots
  linalg::CMatrix r;                ///< M x M correlation
  linalg::CMatrix smoothed;         ///< L x L smoothed correlation
  linalg::CMatrix noise_subspace;   ///< M x (M - 2)
  std::shared_ptr<const core::SteeringManifold> manifold;  ///< M x G
};

const Fixtures& fixtures() {
  static const Fixtures f = [] {
    Fixtures out;
    out.x = bench_snapshots(kElements, 0xBE9C);
    out.r = core::sample_correlation(out.x);
    out.smoothed = core::forward_backward_smooth(out.r, kElements - 2);
    const linalg::EigenDecomposition eig = linalg::hermitian_eig(out.r);
    out.noise_subspace =
        eig.eigenvectors.block(0, 2, kElements, kElements - 2);
    out.manifold = core::SteeringCache::instance().get(
        kElements, kSpacing, kLambda, core::AngularSpectrum::kDefaultPoints);
    return out;
  }();
  return f;
}

struct ScopedBackend {
  explicit ScopedBackend(simd::Backend b) { simd::set_backend_override(b); }
  ~ScopedBackend() { simd::clear_backend_override(); }
};

bool simd_arm(const benchmark::State& state) { return state.range(0) == 1; }

/// The arm's backend, or kScalar when the host has no vector unit (the
/// caller skips the arm in that case).
simd::Backend arm_backend(const benchmark::State& state) {
  return simd_arm(state) ? simd::detected_backend() : simd::Backend::kScalar;
}

/// Skips the vector arm on a host without a vector backend.
bool skip_arm(benchmark::State& state) {
  if (simd_arm(state) && simd::detected_backend() == simd::Backend::kScalar) {
    state.SkipWithError("no vector backend on this host");
    return true;
  }
  return false;
}

void report_percentiles(benchmark::State& state, std::vector<double>& us) {
  if (us.empty()) return;
  std::sort(us.begin(), us.end());
  const auto pct = [&us](double q) {
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(us.size() - 1));
    return us[i];
  };
  state.counters["p50_us"] = pct(0.50);
  state.counters["p99_us"] = pct(0.99);
}

/// Median wall time of `fn` over `iters` calls, in microseconds.
template <typename Fn>
double median_us(Fn&& fn, int iters) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

/// speedup_vs_scalar counter on the vector arm: median time of `call`
/// under a forced kScalar backend (the scalar `_lanes` kernels) over its
/// median time on the vector backend, both measured here and now.
template <typename Fn>
void report_speedup(benchmark::State& state, Fn&& call) {
  if (!simd_arm(state)) return;
  double scalar_med = 0.0;
  {
    const ScopedBackend scalar(simd::Backend::kScalar);
    scalar_med = median_us(call, 200);
  }
  const ScopedBackend vector(arm_backend(state));
  const double simd_med = median_us(call, 200);
  if (simd_med > 0.0) {
    state.counters["speedup_vs_scalar"] = scalar_med / simd_med;
  }
}

/// Times one kernel arm: `call` runs on the arm's backend, per-call
/// p50/p99, `items` per call, and speedup_vs_scalar on the vector arm.
template <typename Fn>
void run_arm(benchmark::State& state, Fn&& call, std::size_t items) {
  const ScopedBackend scope(arm_backend(state));
  std::vector<double> us;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(items));
  report_percentiles(state, us);
  report_speedup(state, call);
}

// ---- kernel arms -----------------------------------------------------

void BM_KernelBatchedQuadraticForm(benchmark::State& state) {
  if (skip_arm(state)) return;
  const Fixtures& f = fixtures();
  run_arm(
      state,
      [&f] {
        benchmark::DoNotOptimize(
            simd::batched_quadratic_form(f.r, f.manifold->soa()));
      },
      f.manifold->grid_points());
}
BENCHMARK(BM_KernelBatchedQuadraticForm)
    ->ArgNames({"simd"})->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_KernelMatmulHermitianLeft(benchmark::State& state) {
  if (skip_arm(state)) return;
  const Fixtures& f = fixtures();
  run_arm(
      state,
      [&f] {
        benchmark::DoNotOptimize(
            simd::matmul_hermitian_left(f.noise_subspace, f.manifold->soa()));
      },
      f.manifold->grid_points());
}
BENCHMARK(BM_KernelMatmulHermitianLeft)
    ->ArgNames({"simd"})->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_KernelColumnSquaredNorms(benchmark::State& state) {
  if (skip_arm(state)) return;
  const Fixtures& f = fixtures();
  run_arm(
      state,
      [&f] {
        benchmark::DoNotOptimize(
            simd::column_squared_norms(f.manifold->soa()));
      },
      f.manifold->grid_points());
}
BENCHMARK(BM_KernelColumnSquaredNorms)
    ->ArgNames({"simd"})->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_KernelSampleCorrelation(benchmark::State& state) {
  if (skip_arm(state)) return;
  const Fixtures& f = fixtures();
  // Through core::sample_correlation, SoA conversion included: that is
  // the real per-call cost.
  run_arm(
      state,
      [&f] { benchmark::DoNotOptimize(core::sample_correlation(f.x)); },
      kSnapshots);
}
BENCHMARK(BM_KernelSampleCorrelation)
    ->ArgNames({"simd"})->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// ---- eigensolver and end-to-end -------------------------------------

void BM_EigDense(benchmark::State& state) {
  const Fixtures& f = fixtures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::hermitian_eig(f.smoothed));
  }
}
BENCHMARK(BM_EigDense);

void BM_EigTruncated(benchmark::State& state) {
  const Fixtures& f = fixtures();
  linalg::TruncatedEigOptions opt;
  opt.rank = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::truncated_hermitian_eig(f.smoothed, opt));
  }
}
BENCHMARK(BM_EigTruncated)->ArgNames({"k"})->Arg(1)->Arg(2);

void BM_PMusicEstimate(benchmark::State& state) {
  const Fixtures& f = fixtures();
  core::PMusicOptions opts;
  if (state.range(0) == 1) opts.music.max_signal_rank = 2;
  const core::PMusicEstimator pmusic(kSpacing, kLambda, opts);
  std::vector<double> us;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pmusic.estimate(f.x));
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  report_percentiles(state, us);
}
BENCHMARK(BM_PMusicEstimate)
    ->ArgNames({"truncated"})->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
