#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "tensor/dispatch.h"

namespace ppn {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  PPN_CHECK(SameShape(a, b)) << op << ": shape mismatch "
                             << ShapeToString(a.shape()) << " vs "
                             << ShapeToString(b.shape());
}

// ---------------------------------------------------------------------------
// The kernel bodies live in src/tensor/vec/ (one instantiation per ISA,
// selected at runtime by tensor/dispatch.{h,cc} — CPUID + PPN_SIMD).
// All variants keep ONE float accumulator per output element that sums
// its k terms in ascending order — the exact summation order of the
// naive i/p/j loops — so register blocking, SIMD over j (lanes are
// distinct output elements), and OpenMP over row blocks are all
// bit-identical to the reference kernels AND across dispatch paths. Do
// not introduce per-element partial sums (k-splitting); see DESIGN.md
// §2.4 and §2.8.
// ---------------------------------------------------------------------------

}  // namespace

void RecordMatMul(int64_t m, int64_t n, int64_t k) {
  if (obs::Enabled()) {
    static thread_local obs::Counter& calls =
        obs::GetCounter("tensor.matmul.calls");
    static thread_local obs::Counter& flops =
        obs::GetCounter("tensor.matmul.flops");
    calls.Add(1.0);
    flops.Add(2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k));
  }
}

Tensor EltwiseUnary(vec::UnaryOp op, const Tensor& a, float p0, float p1) {
  Tensor out = Tensor::Uninitialized(a.shape());
  dispatch::Kernels().unary(op, a.Data(), out.MutableData(), a.numel(), p0,
                            p1);
  return out;
}

Tensor EltwiseBinary(vec::BinaryOp op, const Tensor& a, const Tensor& b,
                     float p0, float p1) {
  CheckSameShape(a, b, "EltwiseBinary");
  Tensor out = Tensor::Uninitialized(a.shape());
  dispatch::Kernels().binary(op, a.Data(), b.Data(), out.MutableData(),
                             a.numel(), p0, p1);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  return EltwiseBinary(vec::BinaryOp::kAdd, a, b);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  return EltwiseBinary(vec::BinaryOp::kSub, a, b);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  return EltwiseBinary(vec::BinaryOp::kMul, a, b);
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Div");
  return EltwiseBinary(vec::BinaryOp::kDiv, a, b);
}

Tensor AddScalar(const Tensor& a, float s) {
  return EltwiseUnary(vec::UnaryOp::kAddScalar, a, s);
}

Tensor MulScalar(const Tensor& a, float s) {
  return EltwiseUnary(vec::UnaryOp::kMulScalar, a, s);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  PPN_CHECK_EQ(k, b.dim(0)) << "MatMul inner dims " << ShapeToString(a.shape())
                            << " x " << ShapeToString(b.shape());
  RecordMatMul(m, n, k);
  // Matmuls run at very high frequency; only trace the ones big enough to
  // show up on a timeline.
  obs::Span span("tensor.matmul", /*min_duration_us=*/20.0);
  span.AddArg("m", static_cast<double>(m));
  span.AddArg("n", static_cast<double>(n));
  span.AddArg("k", static_cast<double>(k));
  Tensor out = Tensor::Uninitialized({m, n});
  dispatch::Kernels().matmul(a.Data(), k, b.Data(), n, out.MutableData(), m, n,
                             k, InnerParallelEnabled());
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 2);
  const int64_t k = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t n = b.dim(1);
  PPN_CHECK_EQ(k, b.dim(0));
  RecordMatMul(m, n, k);
  obs::Span span("tensor.matmul_ta", /*min_duration_us=*/20.0);
  Tensor out = Tensor::Uninitialized({m, n});
  // a is [k, m]: A(i,p) = a[p*m + i], contiguous across the register
  // block's i dimension.
  dispatch::Kernels().matmul_ta(a.Data(), m, b.Data(), n, out.MutableData(), m,
                                n, k, InnerParallelEnabled());
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(0);
  PPN_CHECK_EQ(k, b.dim(1));
  RecordMatMul(m, n, k);
  obs::Span span("tensor.matmul_tb", /*min_duration_us=*/20.0);
  // B's rows are the dot-product operands here, so the j-contiguous
  // blocked kernel needs B^T. The transpose costs n*k against the m*n*k
  // multiply: a clear win whenever several output rows amortize it. For
  // very short outputs fall back to direct row dots (same ascending-p
  // order — and the fallback is shared by every dispatch path, so all
  // paths stay bit-identical to the naive kernel).
  if (m >= 4) {
    Tensor bt = Transpose2D(b);  // [k, n]
    Tensor out = Tensor::Uninitialized({m, n});
    dispatch::Kernels().matmul(a.Data(), k, bt.Data(), n, out.MutableData(), m,
                               n, k, InnerParallelEnabled());
    return out;
  }
  Tensor out = Tensor::Uninitialized({m, n});
  const float* pa = a.Data();
  const float* pb = b.Data();
  float* po = out.MutableData();
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = pa + i * k;
    float* out_row = po + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = pb + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] = acc;
    }
  }
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  PPN_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out = Tensor::Uninitialized({n, m});
  const float* pa = a.Data();
  float* po = out.MutableData();
  // Tiled to keep both the source rows and the destination rows in cache
  // for large matrices (pure data movement: no float ops to reorder).
  constexpr int64_t kTile = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kTile) {
    const int64_t i_end = i0 + kTile < m ? i0 + kTile : m;
    for (int64_t j0 = 0; j0 < n; j0 += kTile) {
      const int64_t j_end = j0 + kTile < n ? j0 + kTile : n;
      for (int64_t i = i0; i < i_end; ++i) {
        for (int64_t j = j0; j < j_end; ++j) po[j * m + i] = pa[i * n + j];
      }
    }
  }
  return out;
}

double SumAll(const Tensor& a) {
  // One double accumulator over the flat array. NOT dispatched: a
  // vectorized version would split the accumulator across lanes and
  // change the summation order (and therefore the bits).
  double total = 0.0;
  const float* pa = a.Data();
  for (int64_t i = 0; i < a.numel(); ++i) total += pa[i];
  return total;
}

double MeanAll(const Tensor& a) {
  PPN_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<double>(a.numel());
}

Tensor SumRows(const Tensor& a) {
  PPN_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  // The kernel writes every output column exactly once (per-column
  // register accumulators), so no zero init is needed.
  Tensor out = Tensor::Uninitialized({n});
  dispatch::Kernels().sum_rows(a.Data(), out.MutableData(), m, n);
  return out;
}

Tensor AddRowVector(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 1);
  PPN_CHECK_EQ(a.dim(1), b.dim(0));
  Tensor out = Tensor::Uninitialized(a.shape());
  dispatch::Kernels().add_row_vector(a.Data(), b.Data(), out.MutableData(),
                                     a.dim(0), a.dim(1));
  return out;
}

namespace {

// Computes the product of dims before `axis` (outer), the dim at `axis`,
// and the product of dims after (inner).
void AxisSplit(const std::vector<int64_t>& shape, int axis, int64_t* outer,
               int64_t* axis_len, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape[i];
  *axis_len = shape[axis];
  for (size_t i = axis + 1; i < shape.size(); ++i) *inner *= shape[i];
}

int NormalizeAxis(int axis, int ndim) {
  if (axis < 0) axis += ndim;
  PPN_CHECK(axis >= 0 && axis < ndim) << "axis out of range";
  return axis;
}

inline void CopyFloats(float* dst, const float* src, int64_t count) {
  if (count > 0) {
    std::memcpy(dst, src, static_cast<size_t>(count) * sizeof(float));
  }
}

vec::Im2ColArgs MakeIm2ColArgs(const std::vector<int64_t>& input_shape,
                               const Conv2dGeometry& g) {
  vec::Im2ColArgs args;
  args.n = input_shape[0];
  args.c = input_shape[1];
  args.h = input_shape[2];
  args.w = input_shape[3];
  args.out_h = g.OutH(args.h);
  args.out_w = g.OutW(args.w);
  args.patch = args.c * g.kernel_h * g.kernel_w;
  args.kernel_h = g.kernel_h;
  args.kernel_w = g.kernel_w;
  args.dilation_h = g.dilation_h;
  args.dilation_w = g.dilation_w;
  args.pad_top = g.pad_top;
  args.pad_left = g.pad_left;
  return args;
}

}  // namespace

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  PPN_CHECK(!parts.empty());
  const int ndim = parts[0].ndim();
  axis = NormalizeAxis(axis, ndim);
  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& part : parts) {
    PPN_CHECK_EQ(part.ndim(), ndim);
    for (int d = 0; d < ndim; ++d) {
      if (d != axis) {
        PPN_CHECK_EQ(part.shape()[d], out_shape[d])
            << "Concat: incompatible shapes along non-concat axis " << d;
      }
    }
    total_axis += part.shape()[axis];
  }
  out_shape[axis] = total_axis;
  // Every element is written exactly once below: one memcpy per part per
  // outer slice, directly into place (the seed zero-filled the output and
  // then copied each part a second time through NarrowInto).
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer;
  int64_t axis_len;
  int64_t inner;
  AxisSplit(out_shape, axis, &outer, &axis_len, &inner);
  float* po = out.MutableData();
  int64_t offset = 0;
  for (const Tensor& part : parts) {
    const int64_t part_axis = part.shape()[axis];
    const int64_t row = part_axis * inner;
    const float* ps = part.Data();
    for (int64_t o = 0; o < outer; ++o) {
      CopyFloats(po + (o * axis_len + offset) * inner, ps + o * row, row);
    }
    offset += part_axis;
  }
  return out;
}

Tensor Narrow(const Tensor& a, int axis, int64_t start, int64_t length) {
  axis = NormalizeAxis(axis, a.ndim());
  PPN_CHECK(start >= 0 && length >= 0 && start + length <= a.shape()[axis])
      << "Narrow out of range: start=" << start << " length=" << length
      << " dim=" << a.shape()[axis];
  std::vector<int64_t> out_shape = a.shape();
  out_shape[axis] = length;
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer;
  int64_t axis_len;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &axis_len, &inner);
  const float* pa = a.Data();
  float* po = out.MutableData();
  for (int64_t o = 0; o < outer; ++o) {
    CopyFloats(po + o * length * inner, pa + (o * axis_len + start) * inner,
               length * inner);
  }
  return out;
}

void NarrowInto(Tensor* dst, const Tensor& src, int axis, int64_t start) {
  axis = NormalizeAxis(axis, dst->ndim());
  PPN_CHECK_EQ(src.ndim(), dst->ndim());
  for (int d = 0; d < dst->ndim(); ++d) {
    if (d != axis) {
      PPN_CHECK_EQ(src.shape()[d], dst->shape()[d]);
    }
  }
  const int64_t length = src.shape()[axis];
  PPN_CHECK(start >= 0 && start + length <= dst->shape()[axis]);
  int64_t outer;
  int64_t axis_len;
  int64_t inner;
  AxisSplit(dst->shape(), axis, &outer, &axis_len, &inner);
  const float* ps = src.Data();
  float* pd = dst->MutableData();
  for (int64_t o = 0; o < outer; ++o) {
    CopyFloats(pd + (o * axis_len + start) * inner, ps + o * length * inner,
               length * inner);
  }
}

Tensor RandomUniform(std::vector<int64_t> shape, float lo, float hi,
                     Rng* rng) {
  PPN_CHECK(rng != nullptr);
  Tensor out = Tensor::Uninitialized(std::move(shape));
  float* po = out.MutableData();
  for (int64_t i = 0; i < out.numel(); ++i) {
    po[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return out;
}

Tensor RandomNormal(std::vector<int64_t> shape, float mean, float stddev,
                    Rng* rng) {
  PPN_CHECK(rng != nullptr);
  Tensor out = Tensor::Uninitialized(std::move(shape));
  float* po = out.MutableData();
  for (int64_t i = 0; i < out.numel(); ++i) {
    po[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Tensor Im2Col(const Tensor& input, const Conv2dGeometry& g) {
  PPN_CHECK_EQ(input.ndim(), 4);
  const vec::Im2ColArgs args = MakeIm2ColArgs(input.shape(), g);
  PPN_CHECK(args.out_h > 0 && args.out_w > 0)
      << "conv output is empty for input " << ShapeToString(input.shape());
  if (obs::Enabled()) {
    static thread_local obs::Counter& calls =
        obs::GetCounter("tensor.im2col.calls");
    calls.Add(1.0);
  }
  obs::Span span("tensor.im2col", /*min_duration_us=*/20.0);
  // Every column element is written (out-of-bounds taps store 0.0f).
  Tensor columns =
      Tensor::Uninitialized({args.n * args.out_h * args.out_w, args.patch});
  dispatch::Kernels().im2col(input.Data(), columns.MutableData(), args,
                             InnerParallelEnabled());
  return columns;
}

Tensor Col2Im(const Tensor& columns, const std::vector<int64_t>& input_shape,
              const Conv2dGeometry& g) {
  PPN_CHECK_EQ(columns.ndim(), 2);
  PPN_CHECK_EQ(static_cast<int>(input_shape.size()), 4);
  const vec::Im2ColArgs args = MakeIm2ColArgs(input_shape, g);
  PPN_CHECK_EQ(columns.dim(0), args.n * args.out_h * args.out_w);
  PPN_CHECK_EQ(columns.dim(1), args.patch);
  // Overlapping patches accumulate: the output must start zeroed.
  Tensor image(input_shape);
  dispatch::Kernels().col2im(columns.Data(), image.MutableData(), args,
                             InnerParallelEnabled());
  return image;
}

}  // namespace ppn
