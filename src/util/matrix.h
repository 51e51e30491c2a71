#ifndef DPLEARN_UTIL_MATRIX_H_
#define DPLEARN_UTIL_MATRIX_H_

#include <vector>

namespace dplearn {

/// Dense column vector backed by std::vector<double>, with the few vector
/// operations the learning substrate needs (dot products, norms, gradient
/// steps); it is not a general BLAS.
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

/// Returns the L-infinity norm of `a`.
double NormInf(const Vector& a);

}  // namespace dplearn

#endif  // DPLEARN_UTIL_MATRIX_H_
