#include "linalg/complex_matrix.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace dwatch::linalg {

CMatrix::CMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

CMatrix::CMatrix(std::size_t rows, std::size_t cols, Complex fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

CMatrix::CMatrix(std::initializer_list<std::initializer_list<Complex>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("CMatrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = Complex{1.0, 0.0};
  return m;
}

CMatrix CMatrix::diagonal(const std::vector<Complex>& diag) {
  CMatrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Complex& CMatrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("CMatrix::at: index out of range");
  }
  return data_[r * cols_ + c];
}

const Complex& CMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("CMatrix::at: index out of range");
  }
  return data_[r * cols_ + c];
}

namespace {
void require_same_shape(const CMatrix& a, const CMatrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("CMatrix: shape mismatch in ") +
                                op);
  }
}
}  // namespace

CMatrix& CMatrix::operator+=(const CMatrix& rhs) {
  require_same_shape(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

CMatrix& CMatrix::operator-=(const CMatrix& rhs) {
  require_same_shape(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

CMatrix& CMatrix::operator*=(Complex scalar) noexcept {
  for (auto& v : data_) v *= scalar;
  return *this;
}

CMatrix& CMatrix::operator/=(Complex scalar) {
  if (scalar == Complex{}) {
    throw std::invalid_argument("CMatrix: division by zero scalar");
  }
  for (auto& v : data_) v /= scalar;
  return *this;
}

CMatrix operator*(const CMatrix& lhs, const CMatrix& rhs) {
  if (lhs.cols() != rhs.rows()) {
    throw std::invalid_argument("CMatrix: inner dimension mismatch in *");
  }
  CMatrix out(lhs.rows(), rhs.cols());
  for (std::size_t i = 0; i < lhs.rows(); ++i) {
    for (std::size_t k = 0; k < lhs.cols(); ++k) {
      const Complex lik = lhs(i, k);
      if (lik == Complex{}) continue;
      for (std::size_t j = 0; j < rhs.cols(); ++j) {
        out(i, j) += lik * rhs(k, j);
      }
    }
  }
  return out;
}

CMatrix CMatrix::transpose() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

CMatrix CMatrix::hermitian() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = std::conj((*this)(r, c));
    }
  }
  return out;
}

CMatrix CMatrix::conjugate() const {
  CMatrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = std::conj(data_[i]);
  }
  return out;
}

CMatrix CMatrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                       std::size_t nc) const {
  if (r0 + nr > rows_ || c0 + nc > cols_) {
    throw std::out_of_range("CMatrix::block: out of range");
  }
  CMatrix out(nr, nc);
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t c = 0; c < nc; ++c) out(r, c) = (*this)(r0 + r, c0 + c);
  }
  return out;
}

CMatrix CMatrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("CMatrix::col: out of range");
  return block(0, c, rows_, 1);
}

CMatrix CMatrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("CMatrix::row: out of range");
  return block(r, 0, 1, cols_);
}

double CMatrix::frobenius_norm() const noexcept {
  double sum = 0.0;
  for (const auto& v : data_) sum += std::norm(v);
  return std::sqrt(sum);
}

Complex CMatrix::trace() const {
  if (rows_ != cols_) {
    throw std::logic_error("CMatrix::trace: matrix not square");
  }
  Complex t{};
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double CMatrix::max_abs_diff(const CMatrix& other) const {
  require_same_shape(*this, other, "max_abs_diff");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool CMatrix::is_hermitian(double tol) const noexcept {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - std::conj((*this)(c, r))) > tol) {
        return false;
      }
    }
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const CMatrix& m) {
  os << "CMatrix(" << m.rows_ << "x" << m.cols_ << ")[\n";
  for (std::size_t r = 0; r < m.rows_; ++r) {
    os << "  ";
    for (std::size_t c = 0; c < m.cols_; ++c) {
      const Complex& v = m(r, c);
      os << v.real() << (v.imag() >= 0 ? "+" : "") << v.imag() << "j ";
    }
    os << "\n";
  }
  return os << "]";
}

// --- CVector -------------------------------------------------------------

Complex& CVector::at(std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range("CVector::at: out of range");
  return data_[i];
}

const Complex& CVector::at(std::size_t i) const {
  if (i >= data_.size()) throw std::out_of_range("CVector::at: out of range");
  return data_[i];
}

CVector& CVector::operator+=(const CVector& rhs) {
  if (size() != rhs.size()) {
    throw std::invalid_argument("CVector: size mismatch in +=");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

CVector& CVector::operator-=(const CVector& rhs) {
  if (size() != rhs.size()) {
    throw std::invalid_argument("CVector: size mismatch in -=");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

CVector& CVector::operator*=(Complex scalar) noexcept {
  for (auto& v : data_) v *= scalar;
  return *this;
}

double CVector::norm() const noexcept {
  double sum = 0.0;
  for (const auto& v : data_) sum += std::norm(v);
  return std::sqrt(sum);
}

CVector CVector::conjugate() const {
  CVector out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = std::conj(data_[i]);
  return out;
}

CMatrix CVector::as_column() const {
  CMatrix out(size(), 1);
  for (std::size_t i = 0; i < size(); ++i) out(i, 0) = data_[i];
  return out;
}

std::ostream& operator<<(std::ostream& os, const CVector& v) {
  os << "CVector(" << v.size() << ")[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Complex& x = v[i];
    os << x.real() << (x.imag() >= 0 ? "+" : "") << x.imag() << "j ";
  }
  return os << "]";
}

Complex inner_product(const CVector& x, const CVector& y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("inner_product: size mismatch");
  }
  Complex sum{};
  for (std::size_t i = 0; i < x.size(); ++i) sum += std::conj(x[i]) * y[i];
  return sum;
}

CMatrix outer_product(const CVector& x, const CVector& y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("outer_product: size mismatch");
  }
  CMatrix out(x.size(), x.size());
  for (std::size_t r = 0; r < x.size(); ++r) {
    for (std::size_t c = 0; c < x.size(); ++c) {
      out(r, c) = x[r] * std::conj(y[c]);
    }
  }
  return out;
}

CVector matvec(const CMatrix& a, const CVector& x) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec: dimension mismatch");
  }
  CVector y(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    Complex sum{};
    for (std::size_t c = 0; c < a.cols(); ++c) sum += a(r, c) * x[c];
    y[r] = sum;
  }
  return y;
}

CMatrix matmul_hermitian_left(const CMatrix& a, const CMatrix& c) {
  if (a.rows() != c.rows()) {
    throw std::invalid_argument("matmul_hermitian_left: row mismatch");
  }
  CMatrix out(a.cols(), c.cols());
  // k-outer loop keeps both operands in row-major streaming order: row k
  // of A scales row k of C into every output row.
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const Complex akp = std::conj(a(k, p));
      if (akp == Complex{}) continue;
      for (std::size_t q = 0; q < c.cols(); ++q) {
        out(p, q) += akp * c(k, q);
      }
    }
  }
  return out;
}

CVector matvec_hermitian(const CMatrix& a, const CVector& x) {
  if (a.rows() != x.size()) {
    throw std::invalid_argument("matvec_hermitian: dimension mismatch");
  }
  CVector y(a.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    Complex sum{};
    for (std::size_t r = 0; r < a.rows(); ++r) {
      sum += std::conj(a(r, c)) * x[r];
    }
    y[c] = sum;
  }
  return y;
}

}  // namespace dwatch::linalg
