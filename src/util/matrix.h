#ifndef DPLEARN_UTIL_MATRIX_H_
#define DPLEARN_UTIL_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace dplearn {

/// Dense column vector backed by std::vector<double>. This is the small,
/// purpose-built linear algebra the learning substrate needs (ridge solves,
/// gradient steps); it is not a general BLAS.
using Vector = std::vector<double>;

/// Returns the dot product of `a` and `b`. Aborts on size mismatch via CHECK
/// in the implementation (programming error, not data error).
double Dot(const Vector& a, const Vector& b);

/// Returns a + b.
Vector Add(const Vector& a, const Vector& b);

/// Returns a - b.
Vector Sub(const Vector& a, const Vector& b);

/// Returns s * a.
Vector Scale(const Vector& a, double s);

/// In-place a += s * b (the AXPY kernel of every gradient loop here).
void AxpyInPlace(Vector* a, double s, const Vector& b);

/// Returns the Euclidean (L2) norm of `a`.
double Norm2(const Vector& a);

/// Returns the L1 norm of `a`.
double Norm1(const Vector& a);

/// Returns the L-infinity norm of `a`.
double NormInf(const Vector& a);

/// Dense row-major matrix with a minimal operation set: multiply, transpose
/// products, Cholesky solve. Dimensions are fixed at construction.
class Matrix {
 public:
  /// Creates a rows x cols zero matrix. rows and cols must be positive;
  /// violated preconditions abort (programming error).
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates a matrix from row-major `data`; data.size() must equal
  /// rows*cols.
  static StatusOr<Matrix> FromRowMajor(std::size_t rows, std::size_t cols,
                                       std::vector<double> data);

  /// Returns the identity matrix of size n.
  static Matrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& At(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double At(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Returns this * x. Error if x.size() != cols().
  StatusOr<Vector> MatVec(const Vector& x) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace dplearn

#endif  // DPLEARN_UTIL_MATRIX_H_
