#ifndef PPN_TENSOR_OPS_H_
#define PPN_TENSOR_OPS_H_

#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "tensor/tensor.h"
#include "tensor/vec/kernels.h"

/// \file
/// Raw (non-differentiable) tensor kernels. The autograd layer composes
/// these into differentiable operations. All binary elementwise kernels
/// require identical shapes; broadcasting is handled one level up.
///
/// Kernel rules (see DESIGN.md "Memory & kernel architecture" and §2.8):
///  - Outputs that are fully overwritten come from `Tensor::Uninitialized`
///    (skips the zero-fill); accumulating outputs zero-init.
///  - Every matmul variant accumulates each output element's k terms in
///    ascending order with a single float accumulator, so blocked /
///    vectorized / OpenMP versions stay bit-identical to the naive
///    reference loops at any block size or thread count.
///  - Hot kernels route through `tensor/dispatch.h` to a per-ISA
///    `vec::KernelTable` (scalar always; AVX2 when the CPU has it, or as
///    forced by PPN_SIMD). Every table obeys the same accumulation-order
///    contract, so the dispatch choice never changes any output bit.

namespace ppn {

/// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b elementwise (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a / b elementwise (same shape).
Tensor Div(const Tensor& a, const Tensor& b);

/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// c = a * s.
Tensor MulScalar(const Tensor& a, float s);

/// Dispatched elementwise kernel over one input: out_i = op(a_i; p0, p1).
/// See `vec::UnaryOp` for the op catalogue. Used by the autograd layer
/// for activation forwards that have an enumerated kernel.
Tensor EltwiseUnary(vec::UnaryOp op, const Tensor& a, float p0 = 0.0f,
                    float p1 = 0.0f);

/// Dispatched elementwise kernel over two same-shaped inputs:
/// out_i = op(a_i, b_i; p0, p1). The *Bwd ops fuse an activation
/// derivative with the incoming gradient (a = grad, b = saved tensor).
Tensor EltwiseBinary(vec::BinaryOp op, const Tensor& a, const Tensor& b,
                     float p0 = 0.0f, float p1 = 0.0f);

/// Applies `fn` elementwise with static dispatch: the functor inlines
/// into the loop. This is the path the autograd activations use.
template <typename Fn>
Tensor MapFused(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.Data();
  float* po = out.MutableData();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

/// Counts one [m,k] x [k,n] product (2·m·n·k FLOPs) in
/// `tensor.matmul.calls` / `tensor.matmul.flops` when obs is enabled. The
/// three MatMul variants call it; code that runs the dispatched matmul
/// kernels directly (the fused LSTM in autograd/ops.cc) calls it once per
/// whole-batch product so the counters stay comparable.
void RecordMatMul(int64_t m, int64_t n, int64_t k);

/// Matrix product of a [m,k] and b [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Matrix product a^T b of a [k,m] and b [k,n] -> [m,n].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// Matrix product a b^T of a [m,k] and b [n,k] -> [m,n].
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Sum of all elements.
double SumAll(const Tensor& a);

/// Mean of all elements (numel must be > 0).
double MeanAll(const Tensor& a);

/// Column sums of a [m,n] matrix -> [n].
Tensor SumRows(const Tensor& a);

/// Broadcast-add a row vector b [n] to every row of a [m,n].
Tensor AddRowVector(const Tensor& a, const Tensor& b);

/// Concatenation of tensors along `axis`. All inputs must agree on every
/// other dimension.
Tensor Concat(const std::vector<Tensor>& parts, int axis);

/// Slice of length `length` starting at `start` along `axis` (copy).
Tensor Narrow(const Tensor& a, int axis, int64_t start, int64_t length);

/// Writes `src` into `dst` at offset `start` along `axis` (in place;
/// dst and src must agree on every other dimension).
void NarrowInto(Tensor* dst, const Tensor& src, int axis, int64_t start);

/// Uniform random tensor in [lo, hi).
Tensor RandomUniform(std::vector<int64_t> shape, float lo, float hi, Rng* rng);

/// Normal random tensor.
Tensor RandomNormal(std::vector<int64_t> shape, float mean, float stddev,
                    Rng* rng);

/// Parameters of a 2-D convolution lowering. Stride is fixed at 1 (the only
/// stride the paper's architecture uses).
struct Conv2dGeometry {
  int64_t kernel_h = 1;
  int64_t kernel_w = 1;
  int64_t dilation_h = 1;
  int64_t dilation_w = 1;
  int64_t pad_top = 0;
  int64_t pad_bottom = 0;
  int64_t pad_left = 0;
  int64_t pad_right = 0;

  /// Output height for input height `h` (stride 1).
  int64_t OutH(int64_t h) const {
    return h + pad_top + pad_bottom - dilation_h * (kernel_h - 1);
  }
  /// Output width for input width `w` (stride 1).
  int64_t OutW(int64_t w) const {
    return w + pad_left + pad_right - dilation_w * (kernel_w - 1);
  }
};

/// Lowers input [N, C, H, W] to columns [N * OutH * OutW, C * kh * kw] so a
/// convolution becomes a matrix product with the [C*kh*kw, C_out] filter.
/// Out-of-bounds taps read zero (implicit zero padding).
Tensor Im2Col(const Tensor& input, const Conv2dGeometry& geometry);

/// Adjoint of `Im2Col`: scatters column gradients back to an input-shaped
/// tensor [N, C, H, W].
Tensor Col2Im(const Tensor& columns, const std::vector<int64_t>& input_shape,
              const Conv2dGeometry& geometry);

}  // namespace ppn

#endif  // PPN_TENSOR_OPS_H_
