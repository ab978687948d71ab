// Dense complex matrix/vector primitives for array signal processing.
//
// D-Watch's algorithms (MUSIC, P-MUSIC, wireless phase calibration) operate
// on small dense complex matrices: array snapshots X (M x N), correlation
// matrices R (M x M, Hermitian), steering vectors a(theta) (M x 1) and
// subspace bases U_N (M x Q). M is the antenna count (4..8 in the paper),
// so these are tiny matrices where a simple, well-tested dense
// implementation beats pulling in a heavyweight dependency.
//
// Conventions:
//  - Row-major storage, zero-based indexing.
//  - at(r, c) is bounds-checked and throws std::out_of_range;
//    operator()(r, c) is unchecked for hot loops.
//  - All operations have value semantics; there is no aliasing surprise.
#pragma once

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace dwatch::linalg {

using Complex = std::complex<double>;

/// Dense row-major complex matrix.
class CMatrix {
 public:
  /// Empty 0x0 matrix.
  CMatrix() = default;

  /// rows x cols matrix, zero-initialized.
  CMatrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `fill`.
  CMatrix(std::size_t rows, std::size_t cols, Complex fill);

  /// Construct from nested initializer list: CMatrix{{a,b},{c,d}}.
  /// Throws std::invalid_argument on ragged rows.
  CMatrix(std::initializer_list<std::initializer_list<Complex>> rows);

  /// Identity matrix of size n.
  [[nodiscard]] static CMatrix identity(std::size_t n);

  /// Diagonal matrix from a vector of diagonal entries.
  [[nodiscard]] static CMatrix diagonal(const std::vector<Complex>& diag);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access (hot paths).
  [[nodiscard]] Complex& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const Complex& operator()(std::size_t r,
                                          std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Reshape to rows x cols, reusing the storage when it is large
  /// enough. The entries are left unspecified: overwrite every one.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Bounds-checked element access; throws std::out_of_range.
  [[nodiscard]] Complex& at(std::size_t r, std::size_t c);
  [[nodiscard]] const Complex& at(std::size_t r, std::size_t c) const;

  /// Raw storage (row-major), e.g. for serialization.
  [[nodiscard]] const std::vector<Complex>& data() const noexcept {
    return data_;
  }

  // --- arithmetic (dimension mismatches throw std::invalid_argument) ---
  CMatrix& operator+=(const CMatrix& rhs);
  CMatrix& operator-=(const CMatrix& rhs);
  CMatrix& operator*=(Complex scalar) noexcept;
  CMatrix& operator/=(Complex scalar);

  [[nodiscard]] friend CMatrix operator+(CMatrix lhs, const CMatrix& rhs) {
    lhs += rhs;
    return lhs;
  }
  [[nodiscard]] friend CMatrix operator-(CMatrix lhs, const CMatrix& rhs) {
    lhs -= rhs;
    return lhs;
  }
  [[nodiscard]] friend CMatrix operator*(CMatrix lhs, Complex scalar) {
    lhs *= scalar;
    return lhs;
  }
  [[nodiscard]] friend CMatrix operator*(Complex scalar, CMatrix rhs) {
    rhs *= scalar;
    return rhs;
  }

  /// Matrix product; throws std::invalid_argument if inner dims mismatch.
  friend CMatrix operator*(const CMatrix& lhs, const CMatrix& rhs);

  /// Transpose (no conjugation).
  [[nodiscard]] CMatrix transpose() const;

  /// Hermitian (conjugate) transpose — the `(.)^H` of the paper.
  [[nodiscard]] CMatrix hermitian() const;

  /// Elementwise complex conjugate.
  [[nodiscard]] CMatrix conjugate() const;

  /// Contiguous block copy [r0, r0+nr) x [c0, c0+nc); bounds-checked.
  [[nodiscard]] CMatrix block(std::size_t r0, std::size_t c0, std::size_t nr,
                              std::size_t nc) const;

  /// Column `c` as an M x 1 matrix; bounds-checked.
  [[nodiscard]] CMatrix col(std::size_t c) const;

  /// Row `r` as a 1 x N matrix; bounds-checked.
  [[nodiscard]] CMatrix row(std::size_t r) const;

  /// Frobenius norm sqrt(sum |a_ij|^2).
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Sum of diagonal entries; throws std::logic_error if non-square.
  [[nodiscard]] Complex trace() const;

  /// Max |a_ij - b_ij|; throws std::invalid_argument on shape mismatch.
  [[nodiscard]] double max_abs_diff(const CMatrix& other) const;

  /// True iff square and ‖A - A^H‖_max <= tol.
  [[nodiscard]] bool is_hermitian(double tol = 1e-10) const noexcept;

  friend std::ostream& operator<<(std::ostream& os, const CMatrix& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
};

/// Dense complex column vector; thin wrapper kept separate from CMatrix so
/// steering-vector code reads like the paper's math.
class CVector {
 public:
  CVector() = default;
  explicit CVector(std::size_t n) : data_(n) {}
  CVector(std::initializer_list<Complex> init) : data_(init) {}
  explicit CVector(std::vector<Complex> data) : data_(std::move(data)) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] Complex& operator[](std::size_t i) noexcept {
    return data_[i];
  }
  [[nodiscard]] const Complex& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] Complex& at(std::size_t i);
  [[nodiscard]] const Complex& at(std::size_t i) const;

  [[nodiscard]] const std::vector<Complex>& data() const noexcept {
    return data_;
  }

  CVector& operator+=(const CVector& rhs);
  CVector& operator-=(const CVector& rhs);
  CVector& operator*=(Complex scalar) noexcept;

  [[nodiscard]] friend CVector operator+(CVector lhs, const CVector& rhs) {
    lhs += rhs;
    return lhs;
  }
  [[nodiscard]] friend CVector operator-(CVector lhs, const CVector& rhs) {
    lhs -= rhs;
    return lhs;
  }
  [[nodiscard]] friend CVector operator*(CVector lhs, Complex scalar) {
    lhs *= scalar;
    return lhs;
  }
  [[nodiscard]] friend CVector operator*(Complex scalar, CVector rhs) {
    rhs *= scalar;
    return rhs;
  }

  /// Euclidean norm.
  [[nodiscard]] double norm() const noexcept;

  /// Elementwise conjugate.
  [[nodiscard]] CVector conjugate() const;

  /// As M x 1 matrix.
  [[nodiscard]] CMatrix as_column() const;

  friend std::ostream& operator<<(std::ostream& os, const CVector& v);

 private:
  std::vector<Complex> data_;
};

/// Inner product <x, y> = x^H y (conjugates the FIRST argument, physics
/// convention, matching a(theta)^H u usage in the paper).
[[nodiscard]] Complex inner_product(const CVector& x, const CVector& y);

/// Outer product x y^H producing an n x n rank-1 matrix.
[[nodiscard]] CMatrix outer_product(const CVector& x, const CVector& y);

/// y = A x; throws std::invalid_argument on dimension mismatch.
[[nodiscard]] CVector matvec(const CMatrix& a, const CVector& x);

/// y = A^H x without forming A^H.
[[nodiscard]] CVector matvec_hermitian(const CMatrix& a, const CVector& x);

/// B = A^H C without forming A^H. A is m x p, C is m x q, result p x q.
/// The batched form of matvec_hermitian: column j of the result is
/// A^H c_j, so projecting a steering manifold onto a subspace is one
/// call instead of one matvec per grid point. Throws
/// std::invalid_argument on row-count mismatch.
[[nodiscard]] CMatrix matmul_hermitian_left(const CMatrix& a,
                                            const CMatrix& c);

}  // namespace dwatch::linalg
