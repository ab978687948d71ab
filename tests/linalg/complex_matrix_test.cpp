// Unit tests for the dense complex matrix/vector primitives.
#include "linalg/complex_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace dwatch::linalg {
namespace {

using namespace std::complex_literals;

TEST(CMatrix, DefaultConstructedIsEmpty) {
  const CMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(CMatrix, SizedConstructionZeroInitializes) {
  const CMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(m(r, c), Complex{});
    }
  }
}

TEST(CMatrix, FillConstruction) {
  const CMatrix m(2, 2, Complex{1.0, -2.0});
  EXPECT_EQ(m(1, 1), (Complex{1.0, -2.0}));
}

TEST(CMatrix, InitializerListLayout) {
  const CMatrix m{{1.0 + 2.0i, 3.0}, {4.0, 5.0 - 1.0i}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 0), 1.0 + 2.0i);
  EXPECT_EQ(m(0, 1), Complex{3.0});
  EXPECT_EQ(m(1, 1), 5.0 - 1.0i);
}

TEST(CMatrix, RaggedInitializerThrows) {
  EXPECT_THROW((CMatrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(CMatrix, AtBoundsChecked) {
  CMatrix m(2, 2);
  EXPECT_NO_THROW((void)m.at(1, 1));
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
  const CMatrix& cm = m;
  EXPECT_THROW((void)cm.at(2, 2), std::out_of_range);
}

TEST(CMatrix, IdentityAndDiagonal) {
  const CMatrix i3 = CMatrix::identity(3);
  EXPECT_EQ(i3(0, 0), Complex{1.0});
  EXPECT_EQ(i3(1, 0), Complex{});
  const CMatrix d = CMatrix::diagonal({1.0 + 1.0i, 2.0});
  EXPECT_EQ(d.rows(), 2u);
  EXPECT_EQ(d(0, 0), 1.0 + 1.0i);
  EXPECT_EQ(d(0, 1), Complex{});
}

TEST(CMatrix, AdditionSubtraction) {
  const CMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const CMatrix b{{0.5, 0.5}, {0.5, 0.5}};
  const CMatrix sum = a + b;
  EXPECT_EQ(sum(0, 0), Complex{1.5});
  const CMatrix diff = sum - b;
  EXPECT_NEAR(diff.max_abs_diff(a), 0.0, 1e-15);
}

TEST(CMatrix, ShapeMismatchThrows) {
  CMatrix a(2, 2);
  const CMatrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW((void)a.max_abs_diff(b), std::invalid_argument);
}

TEST(CMatrix, ScalarOps) {
  CMatrix a{{1.0, 2.0}};
  a *= 2.0i;
  EXPECT_EQ(a(0, 0), 2.0i);
  a /= 2.0i;
  EXPECT_NEAR(std::abs(a(0, 0) - Complex{1.0}), 0.0, 1e-15);
  EXPECT_THROW(a /= Complex{}, std::invalid_argument);
}

TEST(CMatrix, MatrixProduct) {
  const CMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const CMatrix b{{0.0, 1.0}, {1.0, 0.0}};
  const CMatrix ab = a * b;
  EXPECT_EQ(ab(0, 0), Complex{2.0});
  EXPECT_EQ(ab(0, 1), Complex{1.0});
  EXPECT_EQ(ab(1, 0), Complex{4.0});
  EXPECT_EQ(ab(1, 1), Complex{3.0});
}

TEST(CMatrix, ProductDimensionMismatchThrows) {
  const CMatrix a(2, 3);
  const CMatrix b(2, 2);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
}

TEST(CMatrix, ProductWithIdentityIsNoop) {
  const CMatrix a{{1.0 + 1.0i, 2.0}, {3.0, 4.0 - 2.0i}};
  EXPECT_NEAR((a * CMatrix::identity(2)).max_abs_diff(a), 0.0, 1e-15);
  EXPECT_NEAR((CMatrix::identity(2) * a).max_abs_diff(a), 0.0, 1e-15);
}

TEST(CMatrix, TransposeAndHermitian) {
  const CMatrix a{{1.0 + 1.0i, 2.0}, {3.0, 4.0}};
  const CMatrix t = a.transpose();
  EXPECT_EQ(t(0, 0), 1.0 + 1.0i);
  EXPECT_EQ(t(1, 0), Complex{2.0});
  const CMatrix h = a.hermitian();
  EXPECT_EQ(h(0, 0), 1.0 - 1.0i);
  EXPECT_EQ(h(0, 1), Complex{3.0});
}

TEST(CMatrix, ConjugateElementwise) {
  const CMatrix a{{1.0 + 2.0i}};
  EXPECT_EQ(a.conjugate()(0, 0), 1.0 - 2.0i);
}

TEST(CMatrix, BlockRowCol) {
  const CMatrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const CMatrix b = a.block(1, 1, 2, 2);
  EXPECT_EQ(b(0, 0), Complex{5.0});
  EXPECT_EQ(b(1, 1), Complex{9.0});
  EXPECT_EQ(a.col(2)(1, 0), Complex{6.0});
  EXPECT_EQ(a.row(2)(0, 0), Complex{7.0});
  EXPECT_THROW((void)a.block(2, 2, 2, 2), std::out_of_range);
  EXPECT_THROW((void)a.col(3), std::out_of_range);
  EXPECT_THROW((void)a.row(3), std::out_of_range);
}

TEST(CMatrix, FrobeniusNormAndTrace) {
  const CMatrix a{{3.0, 0.0}, {0.0, 4.0i}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_EQ(a.trace(), 3.0 + 4.0i);
  const CMatrix rect(2, 3);
  EXPECT_THROW((void)rect.trace(), std::logic_error);
}

TEST(CMatrix, IsHermitianDetection) {
  const CMatrix h{{2.0, 1.0 - 1.0i}, {1.0 + 1.0i, 3.0}};
  EXPECT_TRUE(h.is_hermitian());
  const CMatrix nh{{2.0, 1.0}, {2.0, 3.0}};
  EXPECT_FALSE(nh.is_hermitian());
  EXPECT_FALSE(CMatrix(2, 3).is_hermitian());
}

TEST(CMatrix, StreamOutputContainsDims) {
  std::ostringstream os;
  os << CMatrix(2, 2);
  EXPECT_NE(os.str().find("2x2"), std::string::npos);
}

TEST(CVector, BasicOps) {
  CVector v{1.0, 2.0i};
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 2.0i);
  EXPECT_THROW((void)v.at(2), std::out_of_range);
  v *= 2.0;
  EXPECT_EQ(v[0], Complex{2.0});
  const CVector w = v + v;
  EXPECT_EQ(w[0], Complex{4.0});
  const CVector z = w - v;
  EXPECT_EQ(z[1], 4.0i);
  EXPECT_THROW(v += CVector(3), std::invalid_argument);
}

TEST(CVector, NormAndConjugate) {
  const CVector v{3.0, 4.0i};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_EQ(v.conjugate()[1], -4.0i);
}

TEST(CVector, AsColumn) {
  const CVector v{1.0, 2.0};
  const CMatrix m = v.as_column();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_EQ(m(1, 0), Complex{2.0});
}

TEST(InnerProduct, ConjugatesFirstArgument) {
  const CVector x{1.0i};
  const CVector y{1.0};
  // <x, y> = conj(i) * 1 = -i.
  EXPECT_EQ(inner_product(x, y), -1.0i);
  EXPECT_THROW((void)inner_product(x, CVector(2)), std::invalid_argument);
}

TEST(InnerProduct, NormConsistency) {
  const CVector x{1.0 + 1.0i, 2.0 - 3.0i};
  const Complex xx = inner_product(x, x);
  EXPECT_NEAR(xx.real(), x.norm() * x.norm(), 1e-12);
  EXPECT_NEAR(xx.imag(), 0.0, 1e-12);
}

TEST(OuterProduct, Rank1Structure) {
  const CVector x{1.0, 2.0i};
  const CMatrix m = outer_product(x, x);
  EXPECT_TRUE(m.is_hermitian());
  EXPECT_EQ(m(0, 0), Complex{1.0});
  EXPECT_EQ(m(1, 1), Complex{4.0});
  EXPECT_EQ(m(1, 0), 2.0i);
  EXPECT_THROW((void)outer_product(x, CVector(3)), std::invalid_argument);
}

TEST(Matvec, MultipliesCorrectly) {
  const CMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const CVector x{1.0, 1.0};
  const CVector y = matvec(a, x);
  EXPECT_EQ(y[0], Complex{3.0});
  EXPECT_EQ(y[1], Complex{7.0});
  EXPECT_THROW((void)matvec(a, CVector(3)), std::invalid_argument);
}

TEST(MatvecHermitian, EqualsExplicitHermitianProduct) {
  const CMatrix a{{1.0 + 1.0i, 2.0}, {0.0, 3.0i}};
  const CVector x{1.0, 2.0};
  const CVector lhs = matvec_hermitian(a, x);
  const CVector rhs = matvec(a.hermitian(), x);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(std::abs(lhs[i] - rhs[i]), 0.0, 1e-14);
  }
  EXPECT_THROW((void)matvec_hermitian(a, CVector(3)), std::invalid_argument);
}

namespace {
/// Deterministic pseudo-random fill.
CMatrix pseudo_random(std::size_t rows, std::size_t cols, double seed) {
  CMatrix m(rows, cols);
  double v = seed;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      v = std::fmod(v * 37.7 + 0.1, 2.0) - 1.0;
      m(i, j) = Complex{v, -v * 0.5};
    }
  }
  return m;
}
}  // namespace

TEST(MatmulHermitianLeft, EqualsExplicitHermitianProduct) {
  const CMatrix a = pseudo_random(8, 5, 0.3);   // M x P
  const CMatrix c = pseudo_random(8, 11, 0.7);  // M x G
  const CMatrix fast = matmul_hermitian_left(a, c);
  const CMatrix reference = a.hermitian() * c;
  ASSERT_EQ(fast.rows(), 5u);
  ASSERT_EQ(fast.cols(), 11u);
  EXPECT_NEAR(fast.max_abs_diff(reference), 0.0, 1e-13);
  EXPECT_THROW((void)matmul_hermitian_left(a, pseudo_random(7, 3, 0.1)),
               std::invalid_argument);
}

/// Property sweep: (A B)^H == B^H A^H across shapes.
class MatrixShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatrixShapeTest, HermitianOfProductReversesOrder) {
  const auto [m, k, n] = GetParam();
  CMatrix a(m, k);
  CMatrix b(k, n);
  // Deterministic pseudo-random fill.
  double v = 0.3;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      v = std::fmod(v * 37.7 + 0.1, 2.0) - 1.0;
      a(i, j) = Complex{v, -v * 0.5};
    }
  }
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      v = std::fmod(v * 17.3 + 0.7, 2.0) - 1.0;
      b(i, j) = Complex{-v, v * 0.25};
    }
  }
  const CMatrix lhs = (a * b).hermitian();
  const CMatrix rhs = b.hermitian() * a.hermitian();
  EXPECT_NEAR(lhs.max_abs_diff(rhs), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixShapeTest,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{4, 4, 4},
                                           std::tuple{8, 2, 5},
                                           std::tuple{5, 8, 1}));

}  // namespace
}  // namespace dwatch::linalg
