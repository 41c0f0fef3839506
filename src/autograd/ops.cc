#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/check.h"
#include "common/parallel.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "tensor/dispatch.h"

namespace ppn::ag {

namespace {

bool AnyRequiresGrad(const std::vector<Var>& parents) {
  for (const Var& p : parents) {
    PPN_CHECK(p != nullptr);
    if (p->requires_grad()) return true;
  }
  return false;
}

// Builds an op node. If no parent requires gradients — or the thread is
// inside an `InferenceMode` scope — the node is a plain constant and the
// tape edge is dropped (keeps inference graphs flat and lets forward
// intermediates free as soon as their last consumer runs).
Var MakeOp(Tensor value, std::vector<Var> parents,
           std::function<void(Node*)> backward_fn) {
  const bool requires_grad = GradEnabled() && AnyRequiresGrad(parents);
  auto node = std::make_shared<Node>(std::move(value), requires_grad);
  if (requires_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
    if (obs::Enabled()) {
      static thread_local obs::Counter& tape_nodes =
          obs::GetCounter("autograd.tape.nodes");
      tape_nodes.Add(1.0);
    }
  }
  return node;
}

void MaybeAccumulate(const Var& parent, const Tensor& delta) {
  if (parent->requires_grad()) parent->AccumulateGrad(delta);
}

// Logistic sigmoid, the one scalar definition behind `Sigmoid` and the
// fused LSTM gates: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
// below, so exp() never overflows; both branches share e = exp(-|x|).
inline float SigmoidScalar(float x) {
  const float e = std::exp(x >= 0.0f ? -x : x);
  return x >= 0.0f ? 1.0f / (1.0f + e) : e / (1.0f + e);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return MakeOp(ppn::Add(a->value(), b->value()), {a, b}, [](Node* self) {
    MaybeAccumulate(self->parents[0], self->grad());
    MaybeAccumulate(self->parents[1], self->grad());
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(ppn::Sub(a->value(), b->value()), {a, b}, [](Node* self) {
    MaybeAccumulate(self->parents[0], self->grad());
    MaybeAccumulate(self->parents[1], MulScalar(self->grad(), -1.0f));
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(ppn::Mul(a->value(), b->value()), {a, b}, [](Node* self) {
    const Var& a = self->parents[0];
    const Var& b = self->parents[1];
    MaybeAccumulate(a, ppn::Mul(self->grad(), b->value()));
    MaybeAccumulate(b, ppn::Mul(self->grad(), a->value()));
  });
}

Var Div(const Var& a, const Var& b) {
  return MakeOp(ppn::Div(a->value(), b->value()), {a, b}, [](Node* self) {
    const Var& a = self->parents[0];
    const Var& b = self->parents[1];
    // d(a/b)/da = 1/b ; d(a/b)/db = -a/b^2.
    MaybeAccumulate(a, ppn::Div(self->grad(), b->value()));
    if (b->requires_grad()) {
      Tensor b2 = ppn::Mul(b->value(), b->value());
      Tensor db = ppn::Div(ppn::Mul(self->grad(), a->value()), b2);
      b->AccumulateGrad(MulScalar(db, -1.0f));
    }
  });
}

Var AddScalar(const Var& a, float s) {
  return MakeOp(ppn::AddScalar(a->value(), s), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0], self->grad());
  });
}

Var MulScalar(const Var& a, float s) {
  return MakeOp(ppn::MulScalar(a->value(), s), {a}, [s](Node* self) {
    MaybeAccumulate(self->parents[0], ppn::MulScalar(self->grad(), s));
  });
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

// Activation forwards with an enumerated kernel (Relu/Abs/Clamp) and all
// the fused backward passes route through EltwiseUnary/EltwiseBinary, so
// they pick up the dispatched SIMD tables (tensor/dispatch.h). Each
// enumerated kernel replicates the seed's per-element expression tree
// exactly (see vec/kernels_impl.h), so results are bit-identical to the
// former MapFused/ZipMapFused lambdas on every path. Transcendental
// forwards (exp/log/tanh/sigmoid/sqrt) stay on scalar MapFused: libm has
// no vector form with guaranteed identical bits.

Var Exp(const Var& a) {
  Tensor out = ppn::MapFused(a->value(), [](float x) { return std::exp(x); });
  return MakeOp(std::move(out), {a}, [](Node* self) {
    // d exp(x) = exp(x) dx, and self->value() is exp(x).
    MaybeAccumulate(self->parents[0], ppn::Mul(self->grad(), self->value()));
  });
}

Var Log(const Var& a) {
  Tensor out = ppn::MapFused(a->value(), [](float x) { return std::log(x); });
  return MakeOp(std::move(out), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0],
                    ppn::Div(self->grad(), self->parents[0]->value()));
  });
}

Var Tanh(const Var& a) {
  Tensor out = ppn::MapFused(a->value(), [](float x) { return std::tanh(x); });
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx =
        ppn::EltwiseBinary(vec::BinaryOp::kTanhBwd, self->grad(), self->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Sigmoid(const Var& a) {
  Tensor out =
      ppn::MapFused(a->value(), [](float x) { return SigmoidScalar(x); });
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kSigmoidBwd, self->grad(),
                                   self->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Relu(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kReluFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kReluBwd, self->grad(),
                                   self->parents[0]->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Abs(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kAbsFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kAbsBwd, self->grad(),
                                   self->parents[0]->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Sqrt(const Var& a) {
  Tensor out = ppn::MapFused(a->value(), [](float x) { return std::sqrt(x); });
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kSqrtBwd, self->grad(),
                                   self->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Clamp(const Var& a, float lo, float hi) {
  PPN_CHECK_LE(lo, hi);
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kClampFwd, a->value(), lo, hi);
  return MakeOp(std::move(out), {a}, [lo, hi](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kClampBwd, self->grad(),
                                   self->parents[0]->value(), lo, hi);
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeOp(ppn::MatMul(a->value(), b->value()), {a, b}, [](Node* self) {
    const Var& a = self->parents[0];
    const Var& b = self->parents[1];
    // dA = dY B^T ; dB = A^T dY.
    if (a->requires_grad()) {
      a->AccumulateGrad(ppn::MatMulTransB(self->grad(), b->value()));
    }
    if (b->requires_grad()) {
      b->AccumulateGrad(ppn::MatMulTransA(a->value(), self->grad()));
    }
  });
}

Var Transpose2D(const Var& a) {
  return MakeOp(ppn::Transpose2D(a->value()), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0], ppn::Transpose2D(self->grad()));
  });
}

Var AddRowVector(const Var& a, const Var& b) {
  return MakeOp(ppn::AddRowVector(a->value(), b->value()), {a, b},
                [](Node* self) {
                  MaybeAccumulate(self->parents[0], self->grad());
                  MaybeAccumulate(self->parents[1], ppn::SumRows(self->grad()));
                });
}

Var SumAll(const Var& a) {
  Tensor out({1});
  out.MutableData()[0] = static_cast<float>(ppn::SumAll(a->value()));
  return MakeOp(std::move(out), {a}, [](Node* self) {
    const float g = self->grad()[0];
    MaybeAccumulate(self->parents[0],
                    Tensor::Full(self->parents[0]->shape(), g));
  });
}

Var MeanAll(const Var& a) {
  PPN_CHECK_GT(a->numel(), 0);
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a->numel()));
}

Var BroadcastScalar(const Var& scalar, std::vector<int64_t> shape) {
  PPN_CHECK_EQ(scalar->numel(), 1);
  Tensor out = Tensor::Full(shape, scalar->value()[0]);
  return MakeOp(std::move(out), {scalar}, [](Node* self) {
    Tensor g({1});
    g.MutableData()[0] = static_cast<float>(ppn::SumAll(self->grad()));
    MaybeAccumulate(self->parents[0], g);
  });
}

Var VarianceAll(const Var& a) {
  Var mean = MeanAll(a);
  Var centered = Sub(a, BroadcastScalar(mean, a->shape()));
  return MeanAll(Mul(centered, centered));
}

Var Reshape(const Var& a, std::vector<int64_t> shape) {
  // Reshaped() shares the buffer, which is safe here because ops never
  // mutate their inputs; the node still materializes distinct grad storage.
  Tensor out = a->value().Reshaped(shape);
  return MakeOp(std::move(out), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0],
                    self->grad().Reshaped(self->parents[0]->shape()));
  });
}

Var ConcatVars(const std::vector<Var>& parts, int axis) {
  PPN_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p->value());
  Tensor out = ppn::Concat(values, axis);
  const int ndim = parts[0]->value().ndim();
  const int norm_axis = axis < 0 ? axis + ndim : axis;
  return MakeOp(std::move(out), parts, [norm_axis](Node* self) {
    int64_t offset = 0;
    for (const Var& parent : self->parents) {
      const int64_t length = parent->shape()[norm_axis];
      MaybeAccumulate(parent,
                      ppn::Narrow(self->grad(), norm_axis, offset, length));
      offset += length;
    }
  });
}

Var NarrowVar(const Var& a, int axis, int64_t start, int64_t length) {
  Tensor out = ppn::Narrow(a->value(), axis, start, length);
  const int ndim = a->value().ndim();
  const int norm_axis = axis < 0 ? axis + ndim : axis;
  return MakeOp(std::move(out), {a}, [norm_axis, start](Node* self) {
    const Var& parent = self->parents[0];
    if (!parent->requires_grad()) return;
    Tensor padded(parent->shape());
    ppn::NarrowInto(&padded, self->grad(), norm_axis, start);
    parent->AccumulateGrad(padded);
  });
}

Var SoftmaxRows(const Var& a) {
  PPN_CHECK_EQ(a->value().ndim(), 2);
  const int64_t m = a->value().dim(0);
  const int64_t n = a->value().dim(1);
  Tensor out = Tensor::Uninitialized(a->shape());
  const float* pa = a->value().Data();
  float* po = out.MutableData();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    float* out_row = po + i * n;
    float max_value = row[0];
    for (int64_t j = 1; j < n; ++j) max_value = std::max(max_value, row[j]);
    float total = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      out_row[j] = std::exp(row[j] - max_value);
      total += out_row[j];
    }
    for (int64_t j = 0; j < n; ++j) out_row[j] /= total;
  }
  return MakeOp(std::move(out), {a}, [m, n](Node* self) {
    const Var& parent = self->parents[0];
    if (!parent->requires_grad()) return;
    // dx_j = y_j * (dy_j - sum_k dy_k y_k), per row.
    Tensor dx = Tensor::Uninitialized(parent->shape());
    const float* y = self->value().Data();
    const float* dy = self->grad().Data();
    float* px = dx.MutableData();
    for (int64_t i = 0; i < m; ++i) {
      const float* y_row = y + i * n;
      const float* dy_row = dy + i * n;
      float inner = 0.0f;
      for (int64_t j = 0; j < n; ++j) inner += dy_row[j] * y_row[j];
      float* dx_row = px + i * n;
      for (int64_t j = 0; j < n; ++j) {
        dx_row[j] = y_row[j] * (dy_row[j] - inner);
      }
    }
    parent->AccumulateGrad(dx);
  });
}

namespace {

// Raw kernel: permutes 4-D tensor axes.
Tensor PermuteTensor4(const Tensor& a, const std::array<int, 4>& axes) {
  PPN_CHECK_EQ(a.ndim(), 4);
  bool seen[4] = {false, false, false, false};
  for (const int axis : axes) {
    PPN_CHECK(axis >= 0 && axis < 4);
    PPN_CHECK(!seen[axis]) << "duplicate axis in permutation";
    seen[axis] = true;
  }
  const auto& in_shape = a.shape();
  std::vector<int64_t> out_shape(4);
  for (int i = 0; i < 4; ++i) out_shape[i] = in_shape[axes[i]];
  Tensor out = Tensor::Uninitialized(out_shape);
  // Input strides.
  int64_t in_strides[4];
  in_strides[3] = 1;
  for (int i = 2; i >= 0; --i) in_strides[i] = in_strides[i + 1] * in_shape[i + 1];
  const float* pa = a.Data();
  float* po = out.MutableData();
  int64_t out_index = 0;
  for (int64_t i0 = 0; i0 < out_shape[0]; ++i0) {
    for (int64_t i1 = 0; i1 < out_shape[1]; ++i1) {
      for (int64_t i2 = 0; i2 < out_shape[2]; ++i2) {
        for (int64_t i3 = 0; i3 < out_shape[3]; ++i3) {
          const int64_t out_coord[4] = {i0, i1, i2, i3};
          int64_t in_index = 0;
          for (int d = 0; d < 4; ++d) {
            in_index += out_coord[d] * in_strides[axes[d]];
          }
          po[out_index++] = pa[in_index];
        }
      }
    }
  }
  return out;
}

}  // namespace

Var Permute4(const Var& a, const std::array<int, 4>& axes) {
  Tensor out = PermuteTensor4(a->value(), axes);
  // Inverse permutation for the backward pass.
  std::array<int, 4> inverse{};
  for (int i = 0; i < 4; ++i) inverse[axes[i]] = i;
  return MakeOp(std::move(out), {a}, [inverse](Node* self) {
    MaybeAccumulate(self->parents[0], PermuteTensor4(self->grad(), inverse));
  });
}

Var Dropout(const Var& a, float p, bool training, Rng* rng) {
  PPN_CHECK(p >= 0.0f && p < 1.0f);
  if (!training || p == 0.0f) return a;
  PPN_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask = Tensor::Uninitialized(a->shape());
  float* pm = mask.MutableData();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = ppn::Mul(a->value(), mask);
  return MakeOp(std::move(out), {a}, [mask](Node* self) {
    MaybeAccumulate(self->parents[0], ppn::Mul(self->grad(), mask));
  });
}

Var Conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dGeometry& geometry) {
  PPN_CHECK_EQ(input->value().ndim(), 4);
  PPN_CHECK_EQ(weight->value().ndim(), 4);
  const int64_t batch = input->value().dim(0);
  const int64_t c_in = input->value().dim(1);
  const int64_t h = input->value().dim(2);
  const int64_t w = input->value().dim(3);
  const int64_t c_out = weight->value().dim(0);
  PPN_CHECK_EQ(weight->value().dim(1), c_in);
  PPN_CHECK_EQ(weight->value().dim(2), geometry.kernel_h);
  PPN_CHECK_EQ(weight->value().dim(3), geometry.kernel_w);
  const int64_t out_h = geometry.OutH(h);
  const int64_t out_w = geometry.OutW(w);
  const int64_t patch = c_in * geometry.kernel_h * geometry.kernel_w;
  if (obs::Enabled()) {
    static thread_local obs::Counter& calls =
        obs::GetCounter("nn.conv2d.calls");
    static thread_local obs::Counter& flops =
        obs::GetCounter("nn.conv2d.flops");
    calls.Add(1.0);
    flops.Add(2.0 * static_cast<double>(batch * out_h * out_w) *
              static_cast<double>(patch) * static_cast<double>(c_out));
  }
  obs::Span span("nn.conv2d.forward", /*min_duration_us=*/20.0);
  span.AddArg("batch", static_cast<double>(batch));
  span.AddArg("c_out", static_cast<double>(c_out));

  Tensor columns = Im2Col(input->value(), geometry);  // [B*OH*OW, patch]
  Tensor weight_matrix = weight->value().Reshaped({c_out, patch});
  Tensor out_matrix = ppn::MatMulTransB(columns, weight_matrix);
  if (bias != nullptr) {
    PPN_CHECK_EQ(bias->value().ndim(), 1);
    PPN_CHECK_EQ(bias->value().dim(0), c_out);
    out_matrix = ppn::AddRowVector(out_matrix, bias->value());
  }
  // Rearrange [B*OH*OW, C_out] -> [B, C_out, OH, OW].
  Tensor out = Tensor::Uninitialized({batch, c_out, out_h, out_w});
  {
    const float* pm = out_matrix.Data();
    float* po = out.MutableData();
    // Pure permutation, disjoint per image: safe and bit-identical.
    ParallelFor(batch,
                InnerParallelEnabled() && batch * c_out * out_h * out_w > 65536,
                [&](int64_t b) {
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          const float* row = pm + ((b * out_h + oy) * out_w + ox) * c_out;
          for (int64_t co = 0; co < c_out; ++co) {
            po[((b * c_out + co) * out_h + oy) * out_w + ox] = row[co];
          }
        }
      }
    });
  }

  std::vector<Var> parents = {input, weight};
  if (bias != nullptr) parents.push_back(bias);
  const std::vector<int64_t> input_shape = input->value().shape();
  const bool has_bias = bias != nullptr;
  return MakeOp(
      std::move(out), std::move(parents),
      [columns, geometry, input_shape, batch, c_out, out_h, out_w, patch,
       has_bias](Node* self) {
        const Var& input = self->parents[0];
        const Var& weight = self->parents[1];
        // Inverse rearrangement: grad [B, C_out, OH, OW] -> [B*OH*OW, C_out].
        Tensor grad_matrix =
            Tensor::Uninitialized({batch * out_h * out_w, c_out});
        {
          const float* pg = self->grad().Data();
          float* pm = grad_matrix.MutableData();
          // Pure permutation, disjoint per image: safe and bit-identical.
          ParallelFor(batch,
                      InnerParallelEnabled() &&
                          batch * c_out * out_h * out_w > 65536,
                      [&](int64_t b) {
            for (int64_t co = 0; co < c_out; ++co) {
              for (int64_t oy = 0; oy < out_h; ++oy) {
                for (int64_t ox = 0; ox < out_w; ++ox) {
                  pm[((b * out_h + oy) * out_w + ox) * c_out + co] =
                      pg[((b * c_out + co) * out_h + oy) * out_w + ox];
                }
              }
            }
          });
        }
        if (input->requires_grad()) {
          Tensor weight_matrix = weight->value().Reshaped({c_out, patch});
          Tensor grad_columns = ppn::MatMul(grad_matrix, weight_matrix);
          input->AccumulateGrad(
              Col2Im(grad_columns, input_shape, geometry));
        }
        if (weight->requires_grad()) {
          Tensor grad_weight = ppn::MatMulTransA(grad_matrix, columns);
          weight->AccumulateGrad(grad_weight.Reshaped(weight->shape()));
        }
        if (has_bias) {
          const Var& bias = self->parents[2];
          MaybeAccumulate(bias, ppn::SumRows(grad_matrix));
        }
      });
}

namespace {

// The fused LSTM splits the folded rows into blocks of at most
// kLstmBlockRows and runs whole blocks on OpenMP threads from
// kLstmParallelRows rows up. Rows never interact inside the recurrence,
// so the split changes no bits.
constexpr int64_t kLstmBlockRows = 64;
constexpr int64_t kLstmParallelRows = 128;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

bool LstmParallel(int64_t rows) {
  return InnerParallelEnabled() && rows >= kLstmParallelRows;
}

// Runs fn(first_row, rows) over row blocks of [0, total). In parallel the
// block size evens out the threads' shares (a multiple of 8 rows, the
// matmul kernel's register block).
template <class Fn>
void ForEachLstmRowBlock(int64_t total, const Fn& fn) {
  const bool parallel = LstmParallel(total);
  int64_t block = kLstmBlockRows;
#ifdef _OPENMP
  if (parallel) {
    const int64_t per_thread = CeilDiv(total, omp_get_max_threads());
    const int64_t rounds = CeilDiv(per_thread, kLstmBlockRows);
    block = CeilDiv(CeilDiv(per_thread, rounds), 8) * 8;
  }
#endif
  ParallelFor(CeilDiv(total, block), parallel, [&](int64_t b) {
    const int64_t first = b * block;
    fn(first, std::min(block, total - first));
  });
}

}  // namespace

Var LstmLastHidden(const Var& sequence, const Var& w_ih, const Var& w_hh,
                   const Var& bias) {
  PPN_CHECK_EQ(sequence->value().ndim(), 3);
  const int64_t n = sequence->value().dim(0);
  const int64_t time = sequence->value().dim(1);
  const int64_t in = sequence->value().dim(2);
  PPN_CHECK_GT(time, 0);
  PPN_CHECK_EQ(w_hh->value().ndim(), 2);
  const int64_t hs = w_hh->value().dim(0);
  const int64_t gs = 4 * hs;
  PPN_CHECK(w_ih->shape() == (std::vector<int64_t>{in, gs}))
      << "LstmLastHidden: w_ih " << ShapeToString(w_ih->shape());
  PPN_CHECK(w_hh->shape() == (std::vector<int64_t>{hs, gs}))
      << "LstmLastHidden: w_hh " << ShapeToString(w_hh->shape());
  PPN_CHECK(bias->shape() == (std::vector<int64_t>{gs}))
      << "LstmLastHidden: bias " << ShapeToString(bias->shape());
  if (obs::Enabled()) {
    static thread_local obs::Counter& steps =
        obs::GetCounter("nn.lstm.cell_steps");
    steps.Add(static_cast<double>(time));
  }
  for (int64_t t = 0; t < time; ++t) {
    RecordMatMul(n, gs, in);
    RecordMatMul(n, gs, hs);
  }

  // Saved for the backward pass only when the node joins the tape: gate
  // activations [T, 4, N, H] (gate order i, f, g, o), c_t and tanh(c_t)
  // [T, N, H], and h_0 .. h_{T-2} (h_{T-1} is the op's value).
  const bool save = GradEnabled() &&
                    AnyRequiresGrad({sequence, w_ih, w_hh, bias});
  Tensor gates;
  Tensor cells;
  Tensor tanh_cells;
  Tensor hiddens;
  if (save) {
    gates = Tensor::Uninitialized({time, 4, n, hs});
    cells = Tensor::Uninitialized({time, n, hs});
    tanh_cells = Tensor::Uninitialized({time, n, hs});
    if (time > 1) hiddens = Tensor::Uninitialized({time - 1, n, hs});
  }
  // h and c start at zero. Without a tape both are updated in place; with
  // one, `cell` stays the zero c_{-1} and `out` the zero h_{-1} until the
  // last step writes h_{T-1}.
  Tensor out({n, hs});
  Tensor cell({n, hs});
  Tensor products = Tensor::Uninitialized({n, 2 * gs});

  const float* px = sequence->value().Data();
  const float* pw_ih = w_ih->value().Data();
  const float* pw_hh = w_hh->value().Data();
  const float* pb = bias->value().Data();
  float* po = out.MutableData();
  float* pc = cell.MutableData();
  float* pgates = gates.MutableData();
  float* pcells = cells.MutableData();
  float* ptanh = tanh_cells.MutableData();
  float* phidden = hiddens.MutableData();
  float* pproducts = products.MutableData();
  const vec::KernelTable& kernels = dispatch::Kernels();
  ForEachLstmRowBlock(n, [&](int64_t r0, int64_t rows) {
    // Gate-major: each gate's products and activations for the block are
    // one contiguous [rows, H] matrix, so every activation runs as one
    // flat loop. z = (x_t W_ih + h_{t-1} W_hh) + b goes through the
    // kernels behind MatMul, Add and AddRowVector (a gate's product is
    // the matmul on its column slice of W: each element keeps its one
    // ascending-k accumulator); the gate and cell update is the op-by-op
    // graph's expression tree, element by element.
    const int64_t span = rows * hs;
    float* z_x = pproducts + r0 * 2 * gs;
    float* z_h = z_x + 4 * span;
    for (int64_t t = 0; t < time; ++t) {
      const int64_t step = t * n + r0;
      const float* h_prev =
          save && t > 0 ? phidden + (step - n) * hs : po + r0 * hs;
      float* h_next =
          save && t + 1 < time ? phidden + step * hs : po + r0 * hs;
      const float* c_prev =
          save && t > 0 ? pcells + (step - n) * hs : pc + r0 * hs;
      float* c_next = save ? pcells + step * hs : pc + r0 * hs;
      float* act[4];
      for (int64_t g = 0; g < 4; ++g) {
        kernels.matmul(px + (r0 * time + t) * in, time * in, pw_ih + g * hs,
                       gs, z_x + g * span, rows, hs, in,
                       /*parallel_ok=*/false);
        kernels.matmul(h_prev, hs, pw_hh + g * hs, gs, z_h + g * span, rows,
                       hs, hs, /*parallel_ok=*/false);
        act[g] = save ? pgates + ((4 * t + g) * n + r0) * hs : z_x + g * span;
        kernels.binary(vec::BinaryOp::kAdd, z_x + g * span, z_h + g * span,
                       act[g], span, 0.0f, 0.0f);
        kernels.add_row_vector(act[g], pb + g * hs, act[g], rows, hs);
      }
      for (int64_t k = 0; k < span; ++k) act[0][k] = SigmoidScalar(act[0][k]);
      for (int64_t k = 0; k < span; ++k) act[1][k] = SigmoidScalar(act[1][k]);
      for (int64_t k = 0; k < span; ++k) act[2][k] = std::tanh(act[2][k]);
      for (int64_t k = 0; k < span; ++k) act[3][k] = SigmoidScalar(act[3][k]);
      float* tanh_out = save ? ptanh + step * hs : nullptr;
      for (int64_t k = 0; k < span; ++k) {
        const float c = act[1][k] * c_prev[k] + act[0][k] * act[2][k];
        const float tc = std::tanh(c);
        c_next[k] = c;
        if (save) tanh_out[k] = tc;
        h_next[k] = act[3][k] * tc;
      }
    }
  });
  return MakeOp(
      std::move(out), {sequence, w_ih, w_hh, bias},
      [gates, cells, tanh_cells, hiddens, n, time, in, hs, gs](Node* self) {
        const Var& sequence = self->parents[0];
        const Var& w_ih = self->parents[1];
        const Var& w_hh = self->parents[2];
        const Var& bias = self->parents[3];
        const vec::KernelTable& kernels = dispatch::Kernels();
        const bool need_dx = sequence->requires_grad();

        // Row-parallel BPTT: dz_t for every step, from dh and the cell
        // carry dc_{t+1} * f_{t+1}; each line mirrors one backward closure
        // of the op-by-op graph. The `+ 0.0f` stands for the four
        // zero-padded NarrowVar accumulations into dz (-0 becomes +0).
        // Rows are independent, so dx_t = dz_t W_ih^T is done per block
        // too: a matmul sum starts at +0 and is never -0, so one [N, T, I]
        // delta gives the bits of the old per-step padded slices.
        Tensor dz = Tensor::Uninitialized({time, n, gs});
        Tensor w_hh_t = ppn::Transpose2D(w_hh->value());  // [4H, H]
        Tensor w_ih_t = need_dx ? ppn::Transpose2D(w_ih->value()) : Tensor();
        Tensor dx =
            need_dx ? Tensor::Uninitialized(sequence->shape()) : Tensor();
        Tensor state = Tensor::Uninitialized({n, 2 * hs + in});
        const float* pg = gates.Data();
        const float* pc = cells.Data();
        const float* ptanh = tanh_cells.Data();
        const float* pgrad = self->grad().Data();
        float* pdz = dz.MutableData();
        float* pdx = dx.MutableData();
        float* pstate = state.MutableData();
        ForEachLstmRowBlock(n, [&](int64_t r0, int64_t rows) {
          float* dh = pstate + r0 * (2 * hs + in);  // [rows, H]: dL/dh_t
          float* carry = dh + rows * hs;  // [rows, H]: dc_{t+1} * f_{t+1}
          float* dx_t = carry + rows * hs;  // [rows, I]
          std::copy(pgrad + r0 * hs, pgrad + (r0 + rows) * hs, dh);
          for (int64_t t = time - 1; t >= 0; --t) {
            const int64_t step = t * n + r0;
            const float* gate = pg + (4 * t * n + r0) * hs;  // [4, N, H]
            for (int64_t r = 0; r < rows; ++r) {
              const float* a = gate + r * hs;
              const float* y = ptanh + (step + r) * hs;
              const float* cp =
                  t > 0 ? pc + (step - n + r) * hs : nullptr;  // c_{-1} = 0
              float* d = pdz + (step + r) * gs;
              float* dhr = dh + r * hs;
              float* cr = carry + r * hs;
              for (int64_t j = 0; j < hs; ++j) {
                const float i = a[j];
                const float f = a[n * hs + j];
                const float g = a[2 * n * hs + j];
                const float o = a[3 * n * hs + j];
                const float d_o = dhr[j] * y[j];
                const float d_tanh = dhr[j] * o;
                const float dc_h = d_tanh * (1.0f - y[j] * y[j]);
                const float dc = t + 1 < time ? cr[j] + dc_h : dc_h;
                const float d_f = dc * (cp != nullptr ? cp[j] : 0.0f);
                const float d_i = dc * g;
                const float d_g = dc * i;
                cr[j] = dc * f;
                d[j] = d_i * (i * (1.0f - i)) + 0.0f;
                d[hs + j] = d_f * (f * (1.0f - f)) + 0.0f;
                d[2 * hs + j] = d_g * (1.0f - g * g) + 0.0f;
                d[3 * hs + j] = d_o * (o * (1.0f - o)) + 0.0f;
              }
            }
            if (need_dx) {
              kernels.matmul(pdz + step * gs, gs, w_ih_t.Data(), in, dx_t,
                             rows, in, gs, /*parallel_ok=*/false);
              for (int64_t r = 0; r < rows; ++r) {
                std::copy(dx_t + r * in, dx_t + (r + 1) * in,
                          pdx + ((r0 + r) * time + t) * in);
              }
            }
            if (t > 0) {
              kernels.matmul(pdz + step * gs, gs, w_hh_t.Data(), hs, dh, rows,
                             hs, gs, /*parallel_ok=*/false);
            }
          }
        });
        for (int64_t t = 0; t < time; ++t) {
          if (need_dx) RecordMatMul(n, in, gs);
          if (t > 0) RecordMatMul(n, hs, gs);
          if (w_hh->requires_grad()) RecordMatMul(hs, gs, n);
          if (w_ih->requires_grad()) RecordMatMul(in, gs, n);
        }
        if (need_dx) sequence->AccumulateGrad(dx);

        // Parameter gradients: per step one whole-batch reduction, each
        // independent of the others, so the steps run in parallel; the
        // deltas are then added one AccumulateGrad per step in the order
        // the op-by-op tape delivered them.
        std::vector<Tensor> d_bias(time);
        std::vector<Tensor> d_w_hh(time);
        std::vector<Tensor> d_w_ih(time);
        for (int64_t t = 0; t < time; ++t) {
          d_bias[t] = Tensor::Uninitialized({gs});
          d_w_hh[t] = Tensor::Uninitialized({hs, gs});
          d_w_ih[t] = Tensor::Uninitialized({in, gs});
        }
        Tensor zero_h({n, hs});  // h_{-1}: the t = 0 product still runs.
        const float* px = sequence->value().Data();
        ParallelFor(time, LstmParallel(n), [&](int64_t t) {
          const float* dz_t = pdz + t * n * gs;
          const float* h_prev =
              t > 0 ? hiddens.Data() + (t - 1) * n * hs : zero_h.Data();
          kernels.sum_rows(dz_t, d_bias[t].MutableData(), n, gs);
          kernels.matmul_ta(h_prev, hs, dz_t, gs, d_w_hh[t].MutableData(),
                            hs, gs, n, /*parallel_ok=*/false);
          kernels.matmul_ta(px + t * in, time * in, dz_t, gs,
                            d_w_ih[t].MutableData(), in, gs, n,
                            /*parallel_ok=*/false);
        });
        for (int64_t t = time - 1; t >= 0; --t) {
          MaybeAccumulate(bias, d_bias[t]);
          MaybeAccumulate(w_hh, d_w_hh[t]);
        }
        for (int64_t t = 0; t < time; ++t) MaybeAccumulate(w_ih, d_w_ih[t]);
      });
}

}  // namespace ppn::ag
