#include "util/matrix.h"

#include <gtest/gtest.h>

namespace dplearn {
namespace {

TEST(VectorOpsTest, DotAddSubScale) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, 5.0, 6.0};
  EXPECT_EQ(Dot(a, b), 32.0);
  EXPECT_EQ(Add(a, b), (Vector{5.0, 7.0, 9.0}));
  EXPECT_EQ(Sub(b, a), (Vector{3.0, 3.0, 3.0}));
  EXPECT_EQ(Scale(a, 2.0), (Vector{2.0, 4.0, 6.0}));
}

TEST(VectorOpsTest, AxpyInPlace) {
  Vector a = {1.0, 1.0};
  AxpyInPlace(&a, 2.0, Vector{3.0, 4.0});
  EXPECT_EQ(a, (Vector{7.0, 9.0}));
}

TEST(VectorOpsTest, Norms) {
  Vector a = {3.0, -4.0};
  EXPECT_NEAR(Norm2(a), 5.0, 1e-12);
  EXPECT_NEAR(NormInf(a), 4.0, 1e-12);
}

}  // namespace
}  // namespace dplearn
