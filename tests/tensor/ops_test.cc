#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ppn {
namespace {

TEST(ElementwiseTest, AddSubMulDiv) {
  Tensor a({2}, {4.0f, 9.0f});
  Tensor b({2}, {2.0f, 3.0f});
  EXPECT_TRUE(Add(a, b).AllClose(Tensor({2}, {6.0f, 12.0f})));
  EXPECT_TRUE(Sub(a, b).AllClose(Tensor({2}, {2.0f, 6.0f})));
  EXPECT_TRUE(Mul(a, b).AllClose(Tensor({2}, {8.0f, 27.0f})));
  EXPECT_TRUE(Div(a, b).AllClose(Tensor({2}, {2.0f, 3.0f})));
}

TEST(ElementwiseTest, ShapeMismatchAborts) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_DEATH(Add(a, b), "shape mismatch");
}

TEST(ElementwiseTest, ScalarOps) {
  Tensor a({2}, {1.0f, 2.0f});
  EXPECT_TRUE(AddScalar(a, 1.0f).AllClose(Tensor({2}, {2.0f, 3.0f})));
  EXPECT_TRUE(MulScalar(a, -2.0f).AllClose(Tensor({2}, {-2.0f, -4.0f})));
}

TEST(MapTest, AppliesFunction) {
  Tensor a({3}, {1.0f, 4.0f, 9.0f});
  Tensor r = MapFused(a, [](float x) { return std::sqrt(x); });
  EXPECT_TRUE(r.AllClose(Tensor({3}, {1.0f, 2.0f, 3.0f})));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(MatMulTest, InnerDimMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({2, 2});
  EXPECT_DEATH(MatMul(a, b), "PPN_CHECK");
}

TEST(MatMulTest, TransAEqualsExplicitTranspose) {
  Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 4}, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
  EXPECT_TRUE(MatMulTransA(a, b).AllClose(MatMul(Transpose2D(a), b)));
}

TEST(MatMulTest, TransBEqualsExplicitTranspose) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({4, 3}, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
  EXPECT_TRUE(MatMulTransB(a, b).AllClose(MatMul(a, Transpose2D(b))));
}

TEST(TransposeTest, Known) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2D(a);
  EXPECT_TRUE(t.AllClose(Tensor({3, 2}, {1, 4, 2, 5, 3, 6})));
}

TEST(ReduceTest, SumAndMean) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(SumAll(a), 10.0);
  EXPECT_DOUBLE_EQ(MeanAll(a), 2.5);
}

TEST(ReduceTest, SumRows) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(SumRows(a).AllClose(Tensor({3}, {5, 7, 9})));
}

TEST(BroadcastTest, AddRowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  EXPECT_TRUE(
      AddRowVector(a, b).AllClose(Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(ConcatTest, Axis0) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_TRUE(c.AllClose(Tensor({3, 2}, {1, 2, 3, 4, 5, 6})));
}

TEST(ConcatTest, Axis1) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_TRUE(c.AllClose(Tensor({2, 3}, {1, 3, 4, 2, 5, 6})));
}

TEST(ConcatTest, NegativeAxis) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({2, 1}, {3, 4});
  Tensor c = Concat({a, b}, -1);
  EXPECT_TRUE(c.AllClose(Tensor({2, 2}, {1, 3, 2, 4})));
}

TEST(ConcatTest, IncompatibleShapesAbort) {
  Tensor a({2, 2});
  Tensor b({3, 3});
  EXPECT_DEATH(Concat({a, b}, 0), "PPN_CHECK");
}

TEST(NarrowTest, MiddleSlice) {
  Tensor a({4}, {1, 2, 3, 4});
  EXPECT_TRUE(Narrow(a, 0, 1, 2).AllClose(Tensor({2}, {2, 3})));
}

TEST(NarrowTest, Axis1Of2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(Narrow(a, 1, 1, 2).AllClose(Tensor({2, 2}, {2, 3, 5, 6})));
}

TEST(NarrowTest, ConcatNarrowRoundTrip) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 3}, {5, 6, 7, 8, 9, 10});
  Tensor c = Concat({a, b}, 1);
  EXPECT_TRUE(Narrow(c, 1, 0, 2).AllClose(a));
  EXPECT_TRUE(Narrow(c, 1, 2, 3).AllClose(b));
}

TEST(NarrowTest, OutOfRangeAborts) {
  Tensor a({3});
  EXPECT_DEATH(Narrow(a, 0, 2, 2), "Narrow out of range");
}

TEST(RandomTensorTest, UniformBoundsAndDeterminism) {
  Rng rng1(5);
  Rng rng2(5);
  Tensor a = RandomUniform({100}, -1.0f, 1.0f, &rng1);
  Tensor b = RandomUniform({100}, -1.0f, 1.0f, &rng2);
  EXPECT_TRUE(a.AllClose(b));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a[i], -1.0f);
    EXPECT_LT(a[i], 1.0f);
  }
}

// ------------------------------------------------------------ im2col ----

TEST(Im2ColTest, Identity1x1) {
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  Conv2dGeometry g;  // 1x1 kernel.
  Tensor cols = Im2Col(input, g);
  EXPECT_EQ(cols.dim(0), 4);
  EXPECT_EQ(cols.dim(1), 1);
  EXPECT_TRUE(cols.AllClose(Tensor({4, 1}, {1, 2, 3, 4})));
}

TEST(Im2ColTest, CausalPaddingReadsZeros) {
  // 1x3 causal kernel along width with pad_left=2 keeps width.
  Tensor input({1, 1, 1, 3}, {1, 2, 3});
  Conv2dGeometry g;
  g.kernel_w = 3;
  g.pad_left = 2;
  Tensor cols = Im2Col(input, g);
  ASSERT_EQ(cols.dim(0), 3);
  ASSERT_EQ(cols.dim(1), 3);
  // Output position 0 sees [0, 0, 1]; position 2 sees [1, 2, 3].
  EXPECT_TRUE(cols.AllClose(
      Tensor({3, 3}, {0, 0, 1, 0, 1, 2, 1, 2, 3})));
}

TEST(Im2ColTest, DilationSkipsTaps) {
  Tensor input({1, 1, 1, 5}, {1, 2, 3, 4, 5});
  Conv2dGeometry g;
  g.kernel_w = 2;
  g.dilation_w = 2;
  // out_w = 5 - 2 = 3: positions see (1,3), (2,4), (3,5).
  Tensor cols = Im2Col(input, g);
  EXPECT_TRUE(cols.AllClose(Tensor({3, 2}, {1, 3, 2, 4, 3, 5})));
}

TEST(Im2ColTest, MultiChannelLayout) {
  // 2 channels, 1x1 kernel: each column is [c0, c1].
  Tensor input({1, 2, 1, 2}, {1, 2, 10, 20});
  Conv2dGeometry g;
  Tensor cols = Im2Col(input, g);
  EXPECT_TRUE(cols.AllClose(Tensor({2, 2}, {1, 10, 2, 20})));
}

TEST(Col2ImTest, AdjointOfIm2Col) {
  // <Im2Col(x), y> == <x, Col2Im(y)> for random x, y (adjoint property).
  Rng rng(9);
  Tensor x = RandomNormal({2, 3, 4, 5}, 0.0f, 1.0f, &rng);
  Conv2dGeometry g;
  g.kernel_h = 2;
  g.kernel_w = 3;
  g.dilation_w = 2;
  g.pad_top = 1;
  g.pad_left = 2;
  Tensor cols = Im2Col(x, g);
  Tensor y = RandomNormal(cols.shape(), 0.0f, 1.0f, &rng);
  Tensor back = Col2Im(y, x.shape(), g);
  double lhs = 0.0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  double rhs = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Conv2dGeometryTest, OutputSizes) {
  Conv2dGeometry g;
  g.kernel_w = 3;
  g.dilation_w = 4;
  g.pad_left = 8;
  EXPECT_EQ(g.OutW(30), 30);  // Causal shape-preserving config.
  EXPECT_EQ(g.OutH(12), 12);
}

}  // namespace
}  // namespace ppn
