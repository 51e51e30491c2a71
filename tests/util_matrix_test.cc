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
  EXPECT_NEAR(Norm1(a), 7.0, 1e-12);
  EXPECT_NEAR(NormInf(a), 4.0, 1e-12);
}

TEST(MatrixTest, FromRowMajorValidation) {
  EXPECT_TRUE(Matrix::FromRowMajor(2, 2, {1.0, 2.0, 3.0, 4.0}).ok());
  EXPECT_FALSE(Matrix::FromRowMajor(2, 2, {1.0, 2.0}).ok());
  EXPECT_FALSE(Matrix::FromRowMajor(0, 2, {}).ok());
}

TEST(MatrixTest, IdentityAndAt) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id.At(0, 0), 1.0);
  EXPECT_EQ(id.At(0, 1), 0.0);
  EXPECT_EQ(id.rows(), 3u);
  EXPECT_EQ(id.cols(), 3u);
}

TEST(MatrixTest, MatVec) {
  Matrix m = Matrix::FromRowMajor(2, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}).value();
  auto y = m.MatVec({1.0, 0.0, -1.0});
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, (Vector{-2.0, -2.0}));
  EXPECT_FALSE(m.MatVec({1.0, 2.0}).ok());
}

}  // namespace
}  // namespace dplearn
