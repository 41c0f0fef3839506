#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

// Pins the blocked/vectorized kernels in tensor/ops.cc to the naive
// reference loops BIT-FOR-BIT — under EVERY dispatch path. The
// production kernels are allowed any blocking, SIMD width, or thread
// count as long as each output element's k terms accumulate in
// ascending order into a single float — these tests are the contract's
// enforcement (see DESIGN.md "Memory & kernel architecture" and §2.8).

namespace ppn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();

// Runs `fn` once per available dispatch path (scalar always; AVX2 when
// the host supports it), with the path forced for the duration. Tests
// written against this helper therefore prove scalar==naive and
// avx2==naive, i.e. scalar==avx2 bit-for-bit.
template <typename Fn>
void ForEachPath(Fn fn) {
  {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
    fn("scalar");
  }
  if (dispatch::Avx2Available()) {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kAvx2);
    fn("avx2");
  }
}

// Reference implementations: the seed repo's triple loops, one float
// accumulator per output element, k ascending.

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.Data()[i * k + p] * b.Data()[p * n + j];
      }
      out.MutableData()[i * n + j] = acc;
    }
  }
  return out;
}

Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b) {
  const int64_t k = a.shape()[0], m = a.shape()[1], n = b.shape()[1];
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.Data()[p * m + i] * b.Data()[p * n + j];
      }
      out.MutableData()[i * n + j] = acc;
    }
  }
  return out;
}

Tensor NaiveMatMulTransB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[0];
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.Data()[i * k + p] * b.Data()[j * k + p];
      }
      out.MutableData()[i * n + j] = acc;
    }
  }
  return out;
}

// EXPECT-style bitwise tensor equality. AllClose would hide both
// rounding drift and NaN-payload differences; bit_cast hides nothing.
void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const char* label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  const float* pg = got.Data();
  const float* pw = want.Data();
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(pg[i]), std::bit_cast<uint32_t>(pw[i]))
        << label << ": element " << i << " got " << pg[i] << " want " << pw[i];
  }
}

// Random matrix with a sprinkling of exact zeros (the seed kernels had a
// `== 0.0f` fast path; zeros must still round-trip bit-identically) and
// negative values (exercises -0.0-adjacent products).
Tensor TestMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = RandomUniform({rows, cols}, -2.0f, 2.0f, &rng);
  float* p = t.MutableData();
  for (int64_t i = 0; i < t.numel(); i += 7) p[i] = 0.0f;
  return t;
}

struct Dims {
  int64_t m, k, n;
};

// Odd shapes chosen to hit every edge path of the blocked driver: unit,
// sub-block, exact-block, non-multiple-of-block, tall/skinny in each
// dimension, sizes big enough to trip the OpenMP branch, and
// SIMD-hostile cases — k=1 (single-term accumulators), n in {7, 9, 17}
// (odd vector tails around the 8-lane width), and zero-size extents
// (empty loops must not touch the null buffer; k=0 must still write
// zeros). k in {255, 256, 257, 513} sits on either side of the 256-term
// chunk, where tiles park their accumulators in the output and resume,
// both serially and on the OpenMP branch.
const Dims kShapes[] = {
    {1, 1, 1},     {1, 5, 1},     {5, 9, 7},     {13, 21, 17}, {37, 3, 65},
    {3, 64, 2},    {8, 8, 8},     {16, 16, 16},  {64, 64, 64}, {2, 100, 9},
    {100, 2, 3},   {9, 7, 100},   {48, 48, 48},  {8, 1, 8},    {16, 1, 17},
    {8, 8, 7},     {9, 5, 9},     {24, 24, 17},  {0, 3, 4},    {3, 0, 4},
    {3, 4, 0},     {9, 255, 17},  {8, 256, 8},   {13, 257, 9}, {16, 513, 24},
    {17, 257, 33}, {40, 513, 12},
};

TEST(KernelEquivalenceTest, MatMulBitIdenticalToNaive) {
  ForEachPath([](const char* path) {
    SCOPED_TRACE(path);
    for (const Dims& d : kShapes) {
      Tensor a = TestMatrix(d.m, d.k, 101 + d.m);
      Tensor b = TestMatrix(d.k, d.n, 202 + d.n);
      ExpectBitIdentical(MatMul(a, b), NaiveMatMul(a, b), "MatMul");
    }
  });
}

TEST(KernelEquivalenceTest, MatMulTransABitIdenticalToNaive) {
  ForEachPath([](const char* path) {
    SCOPED_TRACE(path);
    for (const Dims& d : kShapes) {
      Tensor a = TestMatrix(d.k, d.m, 303 + d.m);
      Tensor b = TestMatrix(d.k, d.n, 404 + d.n);
      ExpectBitIdentical(MatMulTransA(a, b), NaiveMatMulTransA(a, b),
                         "MatMulTransA");
    }
  });
}

// The conv weight gradient MatMulTransA(grad [M, c_out], columns
// [M, patch]) of every PPN conv at the paper's batch (B=32: M = B·m·k =
// 11520 rows for the TCCB convs, B·m = 384 for Conv4) and at B=1. At
// B=32 c_out is one or two row blocks, so the OpenMP branch has only the
// column tiles to split and the k-chunk loop runs 2-45 times.
TEST(KernelEquivalenceTest, ConvWeightGradientShapesBitIdenticalToNaive) {
  constexpr int64_t kAssets = 12, kWindow = 30;
  struct WeightGrad {
    int64_t c_out, patch, rows_per_image;
  };
  const WeightGrad convs[] = {
      {8, 12, kAssets * kWindow},   // TCCB1 dconv1: 4 ch x 1x3
      {8, 24, kAssets * kWindow},   // TCCB1 dconv2
      {8, 96, kAssets * kWindow},   // TCCB1 cconv: 8 ch x 12x1
      {16, 24, kAssets * kWindow},  // TCCB2 dconv1
      {16, 48, kAssets * kWindow},  // TCCB2/3 dconv2, TCCB3 dconv1
      {16, 192, kAssets * kWindow}, // TCCB2/3 cconv
      {16, 480, kAssets},           // Conv4: 16 ch x 1x30, VALID
  };
  for (const int64_t batch : {32, 1}) {
    for (const WeightGrad& conv : convs) {
      const int64_t k = batch * conv.rows_per_image;
      Tensor grad = TestMatrix(k, conv.c_out, 1000 + conv.patch);
      Tensor columns = TestMatrix(k, conv.patch, 2000 + conv.patch);
      const Tensor want = NaiveMatMulTransA(grad, columns);
      ForEachPath([&](const char* path) {
        SCOPED_TRACE(testing::Message() << path << " B=" << batch << " c_out="
                                        << conv.c_out << " patch=" << conv.patch);
        ExpectBitIdentical(MatMulTransA(grad, columns), want, "weight grad");
      });
    }
  }
}

TEST(KernelEquivalenceTest, MatMulTransBBitIdenticalToNaive) {
  ForEachPath([](const char* path) {
    SCOPED_TRACE(path);
    for (const Dims& d : kShapes) {
      Tensor a = TestMatrix(d.m, d.k, 505 + d.m);
      Tensor b = TestMatrix(d.n, d.k, 606 + d.n);
      ExpectBitIdentical(MatMulTransB(a, b), NaiveMatMulTransB(a, b),
                         "MatMulTransB");
    }
  });
}

// Inputs sliced out of a larger matrix with Narrow at an odd column
// offset: the slice copies element patterns that started at a
// misaligned address, and the odd widths keep every row's vector tail
// busy. (Kernels use unaligned loads throughout; this pins that no
// future "aligned fast path" sneaks in wrong.)
TEST(KernelEquivalenceTest, NarrowedViewsBitIdenticalAcrossPaths) {
  Tensor big_a = TestMatrix(21, 40, 1111);
  Tensor big_b = TestMatrix(40, 33, 2222);
  Tensor a = Narrow(big_a, /*axis=*/1, /*start=*/1, /*length=*/19);   // 21x19
  Tensor b2 = Narrow(big_b, /*axis=*/0, /*start=*/3, /*length=*/19);  // 19x33
  Tensor b = Narrow(b2, /*axis=*/1, /*start=*/5, /*length=*/17);      // 19x17
  Tensor want_sum;
  {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
    want_sum = SumRows(a);
  }
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    ExpectBitIdentical(MatMul(a, b), NaiveMatMul(a, b), "MatMul/narrowed");
    ExpectBitIdentical(SumRows(a), want_sum, "SumRows/narrowed");
  });
  // Direct unaligned-pointer check on the raw tables: feed the
  // elementwise kernels a pointer offset by one float (4 bytes past the
  // pool's 64-byte line). Scalar and AVX2 must agree bitwise.
  if (dispatch::Avx2Available()) {
    Tensor x = TestMatrix(1, 64, 3333);
    Tensor ys(std::vector<int64_t>{63});
    Tensor yv(std::vector<int64_t>{63});
    const vec::KernelTable& scalar = vec::ScalarKernels();
    const vec::KernelTable& avx2 = *vec::Avx2KernelsOrNull();
    scalar.unary(vec::UnaryOp::kMulScalar, x.Data() + 1, ys.MutableData(), 63,
                 1.5f, 0.0f);
    avx2.unary(vec::UnaryOp::kMulScalar, x.Data() + 1, yv.MutableData(), 63,
               1.5f, 0.0f);
    ExpectBitIdentical(yv, ys, "unary/unaligned");
  }
}

// Every enumerated elementwise kernel, both paths, against the seed's
// scalar lambda — over odd tail sizes and a value set that includes
// +/-0, +/-Inf, NaN, denormals, and the clamp boundaries.
TEST(KernelEquivalenceTest, ElementwiseOpsBitIdenticalAcrossPaths) {
  constexpr float kDenorm = 1e-40f;
  std::vector<float> specials = {0.0f,  -0.0f,   1.0f,   -1.0f, 0.5f,
                                 -2.5f, kInf,    -kInf,  kQNaN, kDenorm,
                                 -kDenorm, 1e30f, -1e30f, 0.25f, -0.75f};
  const int64_t sizes[] = {0, 1, 7, 8, 9, 16, 17, 100};
  const float lo = -1.0f, hi = 1.0f;
  for (const int64_t n : sizes) {
    Tensor a = Tensor::Uninitialized({n});
    Tensor b = Tensor::Uninitialized({n});
    Rng rng(40 + n);
    for (int64_t i = 0; i < n; ++i) {
      // Mix specials with random values; b gets a shifted special cycle
      // so special-vs-special pairs occur.
      a.MutableData()[i] = (i % 3 == 0)
                               ? specials[i % specials.size()]
                               : static_cast<float>(rng.Uniform(-2.0, 2.0));
      b.MutableData()[i] = (i % 4 == 0)
                               ? specials[(i + 5) % specials.size()]
                               : static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    // Seed-exact references for each enum entry.
    auto ref_unary = [&](vec::UnaryOp op, float x) -> float {
      switch (op) {
        case vec::UnaryOp::kAddScalar: return x + 0.75f;
        case vec::UnaryOp::kMulScalar: return x * 0.75f;
        case vec::UnaryOp::kReluFwd: return x > 0.0f ? x : 0.0f;
        case vec::UnaryOp::kAbsFwd: return std::fabs(x);
        case vec::UnaryOp::kClampFwd: return x < lo ? lo : (x > hi ? hi : x);
      }
      return 0.0f;
    };
    auto ref_binary = [&](vec::BinaryOp op, float g, float y) -> float {
      switch (op) {
        case vec::BinaryOp::kAdd: return g + y;
        case vec::BinaryOp::kSub: return g - y;
        case vec::BinaryOp::kMul: return g * y;
        case vec::BinaryOp::kDiv: return g / y;
        case vec::BinaryOp::kTanhBwd: return g * (1.0f - y * y);
        case vec::BinaryOp::kSigmoidBwd: return g * (y * (1.0f - y));
        case vec::BinaryOp::kReluBwd: return g * (y > 0.0f ? 1.0f : 0.0f);
        case vec::BinaryOp::kAbsBwd:
          return g * (y > 0.0f ? 1.0f : (y < 0.0f ? -1.0f : 0.0f));
        case vec::BinaryOp::kSqrtBwd:
          return g * (0.5f / (y > 1e-12f ? y : 1e-12f));
        case vec::BinaryOp::kClampBwd:
          return g * ((y > lo && y < hi) ? 1.0f : 0.0f);
      }
      return 0.0f;
    };
    for (const vec::UnaryOp op :
         {vec::UnaryOp::kAddScalar, vec::UnaryOp::kMulScalar,
          vec::UnaryOp::kReluFwd, vec::UnaryOp::kAbsFwd,
          vec::UnaryOp::kClampFwd}) {
      Tensor want = Tensor::Uninitialized({n});
      for (int64_t i = 0; i < n; ++i) {
        want.MutableData()[i] = ref_unary(op, a.Data()[i]);
      }
      const float p0 = op == vec::UnaryOp::kClampFwd ? lo : 0.75f;
      const float p1 = op == vec::UnaryOp::kClampFwd ? hi : 0.0f;
      ForEachPath([&](const char* path) {
        SCOPED_TRACE(testing::Message() << path << " n=" << n << " unary op "
                                        << static_cast<int>(op));
        ExpectBitIdentical(EltwiseUnary(op, a, p0, p1), want, "unary");
      });
    }
    for (const vec::BinaryOp op :
         {vec::BinaryOp::kAdd, vec::BinaryOp::kSub, vec::BinaryOp::kMul,
          vec::BinaryOp::kDiv, vec::BinaryOp::kTanhBwd,
          vec::BinaryOp::kSigmoidBwd, vec::BinaryOp::kReluBwd,
          vec::BinaryOp::kAbsBwd, vec::BinaryOp::kSqrtBwd,
          vec::BinaryOp::kClampBwd}) {
      Tensor want = Tensor::Uninitialized({n});
      for (int64_t i = 0; i < n; ++i) {
        want.MutableData()[i] = ref_binary(op, a.Data()[i], b.Data()[i]);
      }
      ForEachPath([&](const char* path) {
        SCOPED_TRACE(testing::Message() << path << " n=" << n << " binary op "
                                        << static_cast<int>(op));
        ExpectBitIdentical(EltwiseBinary(op, a, b, lo, hi), want, "binary");
      });
    }
  }
}

// Row reductions across paths, including odd column tails.
TEST(KernelEquivalenceTest, RowKernelsBitIdenticalAcrossPaths) {
  for (const int64_t n : {1LL, 7LL, 8LL, 9LL, 17LL, 100LL}) {
    Tensor a = TestMatrix(13, n, 50 + n);
    Tensor b = TestMatrix(1, n, 90 + n).Reshaped({n});
    Tensor want_sum(std::vector<int64_t>{n});
    for (int64_t i = 0; i < 13; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        want_sum.MutableData()[j] += a.Data()[i * n + j];
      }
    }
    Tensor want_arv = Tensor::Uninitialized({13, n});
    for (int64_t i = 0; i < 13; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        want_arv.MutableData()[i * n + j] = a.Data()[i * n + j] + b.Data()[j];
      }
    }
    ForEachPath([&](const char* path) {
      SCOPED_TRACE(testing::Message() << path << " n=" << n);
      ExpectBitIdentical(SumRows(a), want_sum, "SumRows");
      ExpectBitIdentical(AddRowVector(a, b), want_arv, "AddRowVector");
    });
  }
}

// Reference conv lowering: the bounds-checked loops the range-clamped
// kernels replaced. Every tap checks its input coordinate; out-of-bounds
// taps read +0 (im2col) or are skipped (col2im). Col2Im scatters in the
// reference order: output pixels in raster order, then (ch, ky, kx).

Tensor NaiveIm2Col(const Tensor& input, const Conv2dGeometry& g) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t out_h = g.OutH(h), out_w = g.OutW(w);
  Tensor columns =
      Tensor::Uninitialized({n * out_h * out_w, c * g.kernel_h * g.kernel_w});
  float* col = columns.MutableData();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const int64_t in_y = oy - g.pad_top + ky * g.dilation_h;
            for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const int64_t in_x = ox - g.pad_left + kx * g.dilation_w;
              float value = 0.0f;
              if (in_y >= 0 && in_y < h && in_x >= 0 && in_x < w) {
                value = input.Data()[((b * c + ch) * h + in_y) * w + in_x];
              }
              *col++ = value;
            }
          }
        }
      }
    }
  }
  return columns;
}

Tensor NaiveCol2Im(const Tensor& columns, const std::vector<int64_t>& shape,
                   const Conv2dGeometry& g) {
  const int64_t n = shape[0], c = shape[1], h = shape[2], w = shape[3];
  const int64_t out_h = g.OutH(h), out_w = g.OutW(w);
  Tensor image(shape);
  const float* col = columns.Data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const int64_t in_y = oy - g.pad_top + ky * g.dilation_h;
            for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const int64_t in_x = ox - g.pad_left + kx * g.dilation_w;
              const float value = *col++;
              if (in_y >= 0 && in_y < h && in_x >= 0 && in_x < w) {
                image.MutableData()[((b * c + ch) * h + in_y) * w + in_x] +=
                    value;
              }
            }
          }
        }
      }
    }
  }
  return image;
}

// Uniform values with -0, NaN and `inf` sprinkled in, so a wrong padding
// value (+0 versus -0) or a dropped add shows in the bits. One Inf sign
// per tensor: Inf + -Inf makes a NaN of the other sign, and which of two
// NaNs an add returns depends on the operand order the compiler picks.
Tensor WithSpecials(const std::vector<int64_t>& shape, uint64_t seed,
                    float inf) {
  Rng rng(seed);
  Tensor t = RandomUniform(shape, -2.0f, 2.0f, &rng);
  const float specials[] = {-0.0f, kQNaN, inf};
  float* p = t.MutableData();
  for (int64_t i = 0; i < t.numel(); i += 11) p[i] = specials[(i / 11) % 3];
  return t;
}

// Every PPN conv geometry on a [B, C, m, k=30] input: the causal time
// convs (1x3, dilations 1/2/4), the correlational conv (kernel_h = m,
// SAME, for odd and even m), Conv4 (1x30 VALID) and the pointwise
// decision conv; plus a padded 3x3 (boundaries on both axes at both
// ends) and an over-padded dilated conv whose first pixels have no
// in-bounds tap at all. B=24 takes the OpenMP branch where the geometry
// is big enough.
TEST(KernelEquivalenceTest, ConvLoweringBitIdenticalToNaive) {
  struct Geo {
    const char* label;
    int64_t assets;
    Conv2dGeometry g;
  };
  auto causal = [](int64_t dilation) {
    Conv2dGeometry g;
    g.kernel_w = 3;
    g.dilation_w = dilation;
    g.pad_left = 2 * dilation;
    return g;
  };
  auto correlational = [](int64_t m) {
    Conv2dGeometry g;
    g.kernel_h = m;
    g.pad_top = (m - 1) / 2;
    g.pad_bottom = (m - 1) - g.pad_top;
    return g;
  };
  Conv2dGeometry conv4;
  conv4.kernel_w = 30;
  Conv2dGeometry sym;
  sym.kernel_h = 3;
  sym.kernel_w = 3;
  sym.pad_top = 1;
  sym.pad_bottom = 1;
  sym.pad_left = 1;
  sym.pad_right = 1;
  Conv2dGeometry over_padded = causal(4);
  over_padded.pad_left = 10;
  const Geo geos[] = {
      {"causal d=1", 12, causal(1)},
      {"causal d=2", 12, causal(2)},
      {"causal d=4", 12, causal(4)},
      {"correlational m=11", 11, correlational(11)},
      {"correlational m=12", 12, correlational(12)},
      {"conv4", 12, conv4},
      {"pointwise", 12, Conv2dGeometry{}},
      {"3x3", 12, sym},
      {"over-padded", 12, over_padded},
  };
  for (const float inf : {kInf, -kInf}) {
    for (const int64_t batch : {2, 24}) {
      for (const Geo& geo : geos) {
        const std::vector<int64_t> shape = {batch, 3, geo.assets, 30};
        const Tensor input = WithSpecials(shape, 7000 + batch, inf);
        const Tensor want_cols = NaiveIm2Col(input, geo.g);
        const Tensor grad_cols =
            WithSpecials(want_cols.shape(), 8000 + batch, inf);
        const Tensor want_img = NaiveCol2Im(grad_cols, shape, geo.g);
        ForEachPath([&](const char* path) {
          SCOPED_TRACE(testing::Message() << path << " " << geo.label << " B="
                                          << batch << " inf=" << inf);
          ExpectBitIdentical(Im2Col(input, geo.g), want_cols, "Im2Col");
          ExpectBitIdentical(Col2Im(grad_cols, shape, geo.g), want_img,
                             "Col2Im");
        });
      }
    }
  }
}

// Regression for the seed's `a_ip == 0.0f` skip, which silently dropped
// the 0 * Inf = NaN and 0 * NaN = NaN terms required by IEEE 754. A
// non-finite value anywhere in the reduction must poison the output.

TEST(NonFinitePropagationTest, ZeroTimesInfIsNaNInMatMul) {
  // a row contains an explicit 0 lined up against Inf in b.
  Tensor a({2, 3}, {0.0f, 1.0f, 2.0f,  //
                    1.0f, 0.0f, 1.0f});
  Tensor b({3, 2}, {kInf, 1.0f,  //
                    1.0f, kInf,  //
                    1.0f, 1.0f});
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    Tensor c = MatMul(a, b);
    // Row 0: 0*Inf + 1*1 + 2*1 = NaN ; 0*1 + 1*Inf + 2*1 = Inf.
    EXPECT_TRUE(std::isnan(c.Data()[0]));
    EXPECT_TRUE(std::isinf(c.Data()[1]));
    // Row 1: 1*Inf + 0*1 + 1*1 = Inf ; 1*1 + 0*Inf + 1*1 = NaN.
    EXPECT_TRUE(std::isinf(c.Data()[2]));
    EXPECT_TRUE(std::isnan(c.Data()[3]));
  });
}

TEST(NonFinitePropagationTest, NaNAgainstZeroPropagatesInAllVariants) {
  // A NaN in `a` must reach every output element its row/column feeds,
  // even where the other operand is zero.
  Tensor a({2, 2}, {kQNaN, 1.0f, 1.0f, 1.0f});
  Tensor zeros({2, 2}, {0.0f, 0.0f, 0.0f, 0.0f});
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    for (float v : {MatMul(a, zeros).Data()[0], MatMul(zeros, a).Data()[0],
                    MatMulTransA(a, zeros).Data()[0],
                    MatMulTransB(zeros, a).Data()[0]}) {
      EXPECT_TRUE(std::isnan(v));
    }
  });
}

TEST(NonFinitePropagationTest, MatchesNaiveReferenceOnNonFiniteInputs) {
  // Beyond "is NaN": the full non-finite pattern must match the naive
  // loops (which never had the skip).
  Rng rng(42);
  Tensor a = RandomUniform({9, 11}, -1.0f, 1.0f, &rng);
  Tensor b = RandomUniform({11, 6}, -1.0f, 1.0f, &rng);
  a.MutableData()[3] = kInf;
  a.MutableData()[25] = 0.0f;
  b.MutableData()[7] = kQNaN;
  b.MutableData()[30] = -kInf;
  Tensor want = NaiveMatMul(a, b);
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    Tensor got = MatMul(a, b);
    const float* pg = got.Data();
    const float* pw = want.Data();
    for (int64_t i = 0; i < got.numel(); ++i) {
      if (std::isnan(pw[i])) {
        EXPECT_TRUE(std::isnan(pg[i])) << "element " << i;
      } else {
        EXPECT_EQ(std::bit_cast<uint32_t>(pg[i]),
                  std::bit_cast<uint32_t>(pw[i]))
            << "element " << i;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ResolvePathSpecHonorsForcedValues) {
  EXPECT_EQ(dispatch::ResolvePathSpec("scalar"), dispatch::SimdPath::kScalar);
  if (dispatch::Avx2Available()) {
    EXPECT_EQ(dispatch::ResolvePathSpec("avx2"), dispatch::SimdPath::kAvx2);
    EXPECT_EQ(dispatch::ResolvePathSpec("auto"), dispatch::SimdPath::kAvx2);
  } else {
    EXPECT_EQ(dispatch::ResolvePathSpec("auto"), dispatch::SimdPath::kScalar);
  }
}

TEST(SimdDispatchTest, ScopedForcePathRestoresPreviousPath) {
  const dispatch::SimdPath before = dispatch::ActivePath();
  {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
    EXPECT_EQ(dispatch::ActivePath(), dispatch::SimdPath::kScalar);
  }
  EXPECT_EQ(dispatch::ActivePath(), before);
}

TEST(SimdDispatchDeathTest, MalformedPpnSimdValueAborts) {
  // The same parser backs the env read at first kernel use: a typo'd
  // PPN_SIMD must abort with a message naming the knob, never silently
  // fall back.
  EXPECT_DEATH(dispatch::ResolvePathSpec("avx512"),
               "PPN_SIMD: unknown value .*avx512");
  EXPECT_DEATH(dispatch::ResolvePathSpec(""), "PPN_SIMD: unknown value");
}

}  // namespace
}  // namespace ppn
