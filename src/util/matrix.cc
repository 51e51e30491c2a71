#include "util/matrix.h"

#include <algorithm>
#include <cmath>

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

double NormInf(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace dplearn
