// Kernel-parity suite: the SIMD kernels promise BIT-IDENTICAL results
// to the legacy scalar loops (simd_kernels.hpp) for finite inputs, on
// every backend. Those loops survive only here, frozen as test-local
// oracles. The sweep covers M in {1..9, 16, 33} crossed with grid
// widths that exercise every tail shape (G mod 4 in {0,1,2,3}, G
// smaller than one vector, and the production G = 361), and asserts
// 0-ULP equality by comparing raw bit patterns — EXPECT_EQ on doubles
// would already conflate +0/-0.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "linalg/complex_matrix.hpp"
#include "linalg/simd_detail.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/soa_complex.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace dwatch::linalg::simd {
namespace {

/// 64-bit LCG (MMIX constants) — same generator as the golden-spectrum
/// fixtures, so inputs are identical on every platform.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  double uniform() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  double centered() { return 2.0 * uniform() - 1.0; }
};

CMatrix random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  Lcg lcg(seed);
  CMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = Complex{lcg.centered(), lcg.centered()};
    }
  }
  return m;
}

[[nodiscard]] std::uint64_t bits_of(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

::testing::AssertionResult same_bits(double a, double b) {
  if (bits_of(a) == bits_of(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits differ: 0x" << std::hex << bits_of(a)
         << " vs 0x" << bits_of(b) << ")";
}

/// Forces a backend for one scope, restoring the unforced state after.
struct ScopedBackend {
  explicit ScopedBackend(Backend b) { set_backend_override(b); }
  ~ScopedBackend() { clear_backend_override(); }
};

/// Backends worth testing on this machine: always scalar, plus the
/// detected vector backend when there is one.
std::vector<Backend> backends_under_test() {
  std::vector<Backend> out{Backend::kScalar};
  if (detected_backend() != Backend::kScalar) {
    out.push_back(detected_backend());
  }
  return out;
}

constexpr std::size_t kElementCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33};
constexpr std::size_t kGridWidths[] = {1, 2, 3, 4, 5, 7, 8, 31, 361};

// ---- frozen test-local oracles: the legacy CMatrix kernels ----

/// q_i = Re(a_i^H R a_i): y = R a_i accumulated col-inner, then a_i^H y.
std::vector<double> batched_quadratic_form_oracle(const CMatrix& r,
                                                  const CMatrix& a) {
  const std::size_t m = r.rows();
  const std::size_t g = a.cols();
  std::vector<double> out(g);
  std::vector<Complex> y(m);  // y = R a_i, reused across columns
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t row = 0; row < m; ++row) {
      Complex sum{};
      for (std::size_t col = 0; col < m; ++col) {
        sum += r(row, col) * a(col, i);
      }
      y[row] = sum;
    }
    Complex quad{};
    for (std::size_t row = 0; row < m; ++row) {
      quad += std::conj(a(row, i)) * y[row];
    }
    out[i] = quad.real();
  }
  return out;
}

/// n_j = sum_i |a_ij|^2, row-outer accumulation.
std::vector<double> column_squared_norms_oracle(const CMatrix& a) {
  std::vector<double> out(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      out[c] += std::norm(a(r, c));
    }
  }
  return out;
}

TEST(SimdKernels, BatchedQuadraticFormMatchesOracleBitForBit) {
  for (const std::size_t m : kElementCounts) {
    for (const std::size_t g : kGridWidths) {
      const CMatrix r = random_matrix(m, m, 0xB0 + m * 1000 + g);
      const CMatrix a = random_matrix(m, g, 0xA0 + m * 1000 + g);
      const SplitComplexMatrix soa = SplitComplexMatrix::from_matrix(a);
      const std::vector<double> oracle = batched_quadratic_form_oracle(r, a);
      for (const Backend backend : backends_under_test()) {
        const ScopedBackend scope(backend);
        const std::vector<double> got = batched_quadratic_form(r, soa);
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(same_bits(got[i], oracle[i]))
              << "backend=" << backend_name(backend) << " m=" << m
              << " g=" << g << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernels, MatmulHermitianLeftMatchesOracleBitForBit) {
  for (const std::size_t m : kElementCounts) {
    for (const std::size_t g : kGridWidths) {
      const std::size_t q = m / 2 + 1;  // subspace width
      CMatrix u = random_matrix(m, q, 0xC0 + m * 1000 + g);
      // Exercise the oracle's zero-skip: zero out a diagonal stripe.
      for (std::size_t k = 0; k < m; ++k) u(k, k % q) = Complex{};
      const CMatrix c = random_matrix(m, g, 0xD0 + m * 1000 + g);
      const SplitComplexMatrix soa = SplitComplexMatrix::from_matrix(c);
      const CMatrix oracle = linalg::matmul_hermitian_left(u, c);
      for (const Backend backend : backends_under_test()) {
        const ScopedBackend scope(backend);
        const SplitComplexMatrix got = matmul_hermitian_left(u, soa);
        ASSERT_EQ(got.rows(), oracle.rows());
        ASSERT_EQ(got.cols(), oracle.cols());
        for (std::size_t p = 0; p < got.rows(); ++p) {
          for (std::size_t i = 0; i < got.cols(); ++i) {
            EXPECT_TRUE(same_bits(got.at(p, i).real(), oracle(p, i).real()))
                << "backend=" << backend_name(backend) << " m=" << m
                << " g=" << g << " (" << p << "," << i << ") re";
            EXPECT_TRUE(same_bits(got.at(p, i).imag(), oracle(p, i).imag()))
                << "backend=" << backend_name(backend) << " m=" << m
                << " g=" << g << " (" << p << "," << i << ") im";
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ColumnSquaredNormsMatchesOracleBitForBit) {
  for (const std::size_t m : kElementCounts) {
    for (const std::size_t g : kGridWidths) {
      const CMatrix a = random_matrix(m, g, 0xE0 + m * 1000 + g);
      const SplitComplexMatrix soa = SplitComplexMatrix::from_matrix(a);
      const std::vector<double> oracle = column_squared_norms_oracle(a);
      for (const Backend backend : backends_under_test()) {
        const ScopedBackend scope(backend);
        const std::vector<double> got = column_squared_norms(soa);
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(same_bits(got[i], oracle[i]))
              << "backend=" << backend_name(backend) << " m=" << m
              << " g=" << g << " i=" << i;
        }
      }
    }
  }
}

/// Test-local oracle: the exact legacy core::sample_correlation loop
/// (kept inline here so the oracle cannot silently change when core
/// re-routes through the SIMD layer).
CMatrix sample_correlation_oracle(const CMatrix& x) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  CMatrix r(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      Complex sum{};
      for (std::size_t k = 0; k < n; ++k) {
        sum += x(i, k) * std::conj(x(j, k));
      }
      r(i, j) = sum / static_cast<double>(n);
    }
  }
  return r;
}

TEST(SimdKernels, SampleCorrelationMatchesOracleBitForBit) {
  for (const std::size_t m : kElementCounts) {
    for (const std::size_t n : {1u, 3u, 16u, 33u}) {
      const CMatrix x = random_matrix(m, n, 0xF0 + m * 1000 + n);
      const SplitComplexMatrix xt =
          SplitComplexMatrix::from_matrix_transposed(x);
      const CMatrix oracle = sample_correlation_oracle(x);
      for (const Backend backend : backends_under_test()) {
        const ScopedBackend scope(backend);
        const CMatrix got = sample_correlation(xt);
        ASSERT_EQ(got.rows(), oracle.rows());
        ASSERT_EQ(got.cols(), oracle.cols());
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            EXPECT_TRUE(same_bits(got(i, j).real(), oracle(i, j).real()))
                << "backend=" << backend_name(backend) << " m=" << m
                << " n=" << n << " (" << i << "," << j << ") re";
            EXPECT_TRUE(same_bits(got(i, j).imag(), oracle(i, j).imag()))
                << "backend=" << backend_name(backend) << " m=" << m
                << " n=" << n << " (" << i << "," << j << ") im";
          }
        }
      }
    }
  }
}

TEST(SimdKernels, AccumulateOuterProductsMatchesLanesOracleBitForBit) {
  for (const std::size_t m : kElementCounts) {
    for (const std::size_t n : {1u, 3u, 16u, 33u}) {
      const CMatrix x = random_matrix(m, n, 0x5A0 + m * 1000 + n);
      const SplitComplexMatrix xt =
          SplitComplexMatrix::from_matrix_transposed(x);
      // Oracle: the shared scalar lanes kernel, resumed from a non-zero
      // accumulator (the chaining case the incremental covariance uses).
      SplitComplexMatrix oracle(m, m);
      detail::accumulate_outer_products_lanes(xt, 0, m, oracle);
      detail::accumulate_outer_products_lanes(xt, 0, m, oracle);
      for (const Backend backend : backends_under_test()) {
        const ScopedBackend scope(backend);
        SplitComplexMatrix acc(m, m);
        accumulate_outer_products(xt, acc);
        accumulate_outer_products(xt, acc);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            EXPECT_TRUE(same_bits(acc.at(i, j).real(), oracle.at(i, j).real()))
                << "backend=" << backend_name(backend) << " m=" << m
                << " n=" << n << " (" << i << "," << j << ") re";
            EXPECT_TRUE(same_bits(acc.at(i, j).imag(), oracle.at(i, j).imag()))
                << "backend=" << backend_name(backend) << " m=" << m
                << " n=" << n << " (" << i << "," << j << ") im";
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ChunkedAccumulationMatchesBatchSampleCorrelation) {
  // The streaming contract: accumulating a snapshot stream chunk by
  // chunk and dividing at the end is BIT-IDENTICAL to the batch
  // sample_correlation over the concatenated matrix — the inner
  // k-ascending addition chain is simply resumed across chunks.
  for (const std::size_t m : {2u, 4u, 7u, 8u}) {
    const std::size_t chunks[] = {5, 1, 8, 3};
    std::size_t total = 0;
    for (const std::size_t c : chunks) total += c;
    const CMatrix all = random_matrix(m, total, 0xC0FFEE + m);
    for (const Backend backend : backends_under_test()) {
      const ScopedBackend scope(backend);
      const CMatrix batch =
          sample_correlation(SplitComplexMatrix::from_matrix_transposed(all));
      SplitComplexMatrix acc(m, m);
      std::size_t col = 0;
      for (const std::size_t c : chunks) {
        CMatrix chunk(m, c);
        for (std::size_t j = 0; j < c; ++j) {
          for (std::size_t i = 0; i < m; ++i) chunk(i, j) = all(i, col + j);
        }
        col += c;
        accumulate_outer_products(
            SplitComplexMatrix::from_matrix_transposed(chunk), acc);
      }
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          const Complex streamed =
              acc.at(i, j) / static_cast<double>(total);
          EXPECT_TRUE(same_bits(streamed.real(), batch(i, j).real()))
              << "backend=" << backend_name(backend) << " m=" << m << " ("
              << i << "," << j << ") re";
          EXPECT_TRUE(same_bits(streamed.imag(), batch(i, j).imag()))
              << "backend=" << backend_name(backend) << " m=" << m << " ("
              << i << "," << j << ") im";
        }
      }
    }
  }
}

TEST(SimdKernels, DimensionMismatchesThrowLikeTheOracle) {
  const CMatrix r = random_matrix(4, 4, 1);
  const CMatrix bad = random_matrix(3, 5, 2);
  const SplitComplexMatrix bad_soa = SplitComplexMatrix::from_matrix(bad);
  EXPECT_THROW((void)batched_quadratic_form(r, bad_soa),
               std::invalid_argument);
  EXPECT_THROW((void)matmul_hermitian_left(r, bad_soa),
               std::invalid_argument);
  EXPECT_THROW((void)sample_correlation(SplitComplexMatrix{}),
               std::invalid_argument);
  SplitComplexMatrix acc(4, 4);
  EXPECT_THROW((void)accumulate_outer_products(SplitComplexMatrix{}, acc),
               std::invalid_argument);
  SplitComplexMatrix wrong(3, 3);
  const CMatrix x4 = random_matrix(4, 6, 9);
  EXPECT_THROW((void)accumulate_outer_products(
                   SplitComplexMatrix::from_matrix_transposed(x4), wrong),
               std::invalid_argument);
}

// ---- dispatch machinery ----

TEST(SimdDispatch, EnvParsingTable) {
  EXPECT_FALSE(detail::parse_env(nullptr).forced_scalar);
  EXPECT_FALSE(detail::parse_env(nullptr).has_request);
  EXPECT_TRUE(detail::parse_env("off").forced_scalar);
  EXPECT_TRUE(detail::parse_env("OFF").forced_scalar);
  EXPECT_TRUE(detail::parse_env("scalar").forced_scalar);
  EXPECT_TRUE(detail::parse_env("0").forced_scalar);
  EXPECT_TRUE(detail::parse_env("avx2").has_request);
  EXPECT_EQ(detail::parse_env("avx2").requested, Backend::kAvx2);
  EXPECT_TRUE(detail::parse_env("neon").has_request);
  EXPECT_EQ(detail::parse_env("neon").requested, Backend::kNeon);
  // Unknown values and "auto" fall through to detection, not failure.
  EXPECT_FALSE(detail::parse_env("auto").forced_scalar);
  EXPECT_FALSE(detail::parse_env("auto").has_request);
  EXPECT_FALSE(detail::parse_env("warp-drive").has_request);
  EXPECT_FALSE(detail::parse_env("").has_request);
}

TEST(SimdDispatch, BackendNamesAreStable) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kNeon), "neon");
}

TEST(SimdDispatch, OverrideClampsToSupported) {
  {
    const ScopedBackend scope(Backend::kScalar);
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
  // Requesting the detected backend always sticks...
  {
    const ScopedBackend scope(detected_backend());
    EXPECT_EQ(active_backend(), detected_backend());
  }
  // ...and requesting a foreign-architecture backend clamps to scalar.
#if defined(__x86_64__) || defined(__i386__)
  {
    const ScopedBackend scope(Backend::kNeon);
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
#elif defined(__aarch64__)
  {
    const ScopedBackend scope(Backend::kAvx2);
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
#endif
}

TEST(SimdDispatch, CompiledFlagConsistentWithDetection) {
  if (!compiled_with_simd()) {
    EXPECT_EQ(detected_backend(), Backend::kScalar);
  }
}

TEST(SimdDispatch, PublishRecordsGaugeAndEvent) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  obs::EventLog::global().clear();
  publish_backend();
  obs::set_enabled(false);
  if (!DWATCH_OBS_ENABLED) {
    GTEST_SKIP() << "obs compiled out";
  }
  const Backend backend = active_backend();
  std::string labels = "backend=\"";
  labels += backend_name(backend);
  labels += '"';
  EXPECT_EQ(obs::MetricsRegistry::global()
                .gauge("dwatch_simd_backend", labels)
                .value(),
            static_cast<double>(static_cast<int>(backend)));
  bool saw_event = false;
  for (const std::string& line : obs::EventLog::global().snapshot()) {
    if (line.find("\"simd.dispatch\"") != std::string::npos &&
        line.find(backend_name(backend)) != std::string::npos) {
      saw_event = true;
    }
  }
  EXPECT_TRUE(saw_event);
}

TEST(SimdDispatch, PublishIsSilentWhileDisabled) {
  obs::set_enabled(false);
  obs::EventLog::global().clear();
  publish_backend();
  for (const std::string& line : obs::EventLog::global().snapshot()) {
    EXPECT_EQ(line.find("\"simd.dispatch\""), std::string::npos);
  }
}

/// Concurrency shake-out for the TSan tree: hammer first-call backend
/// resolution, kernels and publication from many threads at once. The
/// assertions are weak on purpose — the value is the data-race-free
/// execution under -fsanitize=thread.
TEST(SimdDispatch, ConcurrentDispatchAndKernelsAreRaceFree) {
  clear_backend_override();
  const CMatrix r = random_matrix(6, 6, 77);
  const CMatrix a = random_matrix(6, 101, 78);
  const SplitComplexMatrix soa = SplitComplexMatrix::from_matrix(a);
  const std::vector<double> expected = batched_quadratic_form(r, soa);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 25; ++iter) {
        (void)active_backend();
        publish_backend();
        const std::vector<double> got = batched_quadratic_form(r, soa);
        if (got != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dwatch::linalg::simd
