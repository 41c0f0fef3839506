#ifndef PPN_AUTOGRAD_OPS_H_
#define PPN_AUTOGRAD_OPS_H_

#include <array>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"
#include "tensor/ops.h"

/// \file
/// Differentiable operations. Each returns a new graph node; gradients flow
/// to any parent created by `Parameter` (or any op depending on one).
/// Binary elementwise ops require identical shapes except where noted.

namespace ppn::ag {

/// Elementwise a + b.
Var Add(const Var& a, const Var& b);
/// Elementwise a - b.
Var Sub(const Var& a, const Var& b);
/// Elementwise a * b.
Var Mul(const Var& a, const Var& b);
/// Elementwise a / b.
Var Div(const Var& a, const Var& b);
/// a + s.
Var AddScalar(const Var& a, float s);
/// a * s.
Var MulScalar(const Var& a, float s);
/// -a.
Var Neg(const Var& a);

/// Elementwise exp.
Var Exp(const Var& a);
/// Elementwise natural log (caller guarantees positivity; combine with
/// `Clamp` for numerical safety).
Var Log(const Var& a);
/// Elementwise tanh.
Var Tanh(const Var& a);
/// Elementwise logistic sigmoid.
Var Sigmoid(const Var& a);
/// Elementwise max(x, 0).
Var Relu(const Var& a);
/// Elementwise |x| (subgradient 0 at x == 0).
Var Abs(const Var& a);
/// Elementwise square root.
Var Sqrt(const Var& a);
/// Elementwise clamp into [lo, hi]; gradient passes through strictly
/// inside the interval and is zero where the clamp is active.
Var Clamp(const Var& a, float lo, float hi);

/// Matrix product [m,k] x [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);
/// 2-D transpose.
Var Transpose2D(const Var& a);
/// Adds row vector b [n] to each row of a [m,n].
Var AddRowVector(const Var& a, const Var& b);

/// Sum of all elements -> scalar (shape {1}).
Var SumAll(const Var& a);
/// Mean of all elements -> scalar (shape {1}).
Var MeanAll(const Var& a);
/// Broadcast of a scalar (shape {1}) to `shape`.
Var BroadcastScalar(const Var& scalar, std::vector<int64_t> shape);
/// Population variance of all elements -> scalar. Composite op.
Var VarianceAll(const Var& a);

/// Reshape (same element count). Gradient reshapes back.
Var Reshape(const Var& a, std::vector<int64_t> shape);
/// Concatenation along `axis`.
Var ConcatVars(const std::vector<Var>& parts, int axis);
/// Slice of length `length` at `start` along `axis`.
Var NarrowVar(const Var& a, int axis, int64_t start, int64_t length);

/// Row-wise softmax of a 2-D tensor [m,n].
Var SoftmaxRows(const Var& a);

/// Permutation of the axes of a 4-D tensor: output axis i is input axis
/// `axes[i]` (like numpy.transpose). Gradient applies the inverse
/// permutation.
Var Permute4(const Var& a, const std::array<int, 4>& axes);

/// Inverted-dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by 1/(1-p); identity when
/// `training` is false. Requires 0 <= p < 1.
Var Dropout(const Var& a, float p, bool training, Rng* rng);

/// 2-D convolution, stride 1: input [N, C_in, H, W], weight
/// [C_out, C_in, kh, kw], optional bias [C_out] (pass nullptr to skip),
/// geometry describing dilation and asymmetric zero padding.
/// Output [N, C_out, OutH, OutW].
Var Conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dGeometry& geometry);

/// Single-layer LSTM over a [N, T, I] sequence from zero state, returning
/// the last hidden state [N, H]. `w_ih` [I, 4H], `w_hh` [H, 4H], `bias`
/// [4H], gate order (i, f, g, o):
///   z_t = (x_t W_ih + h_{t-1} W_hh) + b,  c_t = f*c_{t-1} + i*g,
///   h_t = o * tanh(c_t).
/// One tape node with a hand-written BPTT. Forward and backward run over
/// row blocks (rows never interact) and reproduce, bit for bit, the
/// per-step graph of MatMul/Add/AddRowVector/NarrowVar/Sigmoid/Tanh/Mul
/// ops — values, input gradient and the per-step order of the parameter
/// gradient accumulations (tests/nn/lstm_equivalence_test.cc).
Var LstmLastHidden(const Var& sequence, const Var& w_ih, const Var& w_hh,
                   const Var& bias);

}  // namespace ppn::ag

#endif  // PPN_AUTOGRAD_OPS_H_
