#include "util/matrix.h"

#include <cmath>
#include <string>

#include "util/logging.h"

namespace dplearn {

double Dot(const Vector& a, const Vector& b) {
  DPLEARN_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Vector Add(const Vector& a, const Vector& b) {
  DPLEARN_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector Sub(const Vector& a, const Vector& b) {
  DPLEARN_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector Scale(const Vector& a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void AxpyInPlace(Vector* a, double s, const Vector& b) {
  DPLEARN_CHECK_EQ(a->size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

double Norm1(const Vector& a) {
  double s = 0.0;
  for (double v : a) s += std::fabs(v);
  return s;
}

double NormInf(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  DPLEARN_CHECK_GT(rows, 0u);
  DPLEARN_CHECK_GT(cols, 0u);
}

StatusOr<Matrix> Matrix::FromRowMajor(std::size_t rows, std::size_t cols,
                                      std::vector<double> data) {
  if (rows == 0 || cols == 0) {
    return InvalidArgumentError("Matrix::FromRowMajor: dimensions must be positive");
  }
  if (data.size() != rows * cols) {
    return InvalidArgumentError("Matrix::FromRowMajor: data size " +
                                std::to_string(data.size()) + " != rows*cols " +
                                std::to_string(rows * cols));
  }
  Matrix m(rows, cols);
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

StatusOr<Vector> Matrix::MatVec(const Vector& x) const {
  if (x.size() != cols_) {
    return InvalidArgumentError("Matrix::MatVec: size mismatch");
  }
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += At(r, c) * x[c];
    out[r] = s;
  }
  return out;
}

}  // namespace dplearn
