#ifndef PPN_TESTS_NN_LSTM_ORACLE_H_
#define PPN_TESTS_NN_LSTM_ORACLE_H_

#include <cstdint>

#include "autograd/ops.h"

/// \file
/// The op-by-op LSTM that `ag::LstmLastHidden` replaced, kept as the
/// bit-identity oracle for the fused op. Every step records its own
/// MatMul / Add / AddRowVector / NarrowVar / Sigmoid / Tanh / Mul nodes,
/// so values and gradients come from the generic autograd closures.

namespace ppn::nn::oracle {

/// One step: updates (h, c) from x_t [N, I].
inline void LstmStep(const ag::Var& x_t, const ag::Var& w_ih,
                     const ag::Var& w_hh, const ag::Var& bias, ag::Var* h,
                     ag::Var* c) {
  using namespace ag;  // NOLINT: local op vocabulary.
  Var z = AddRowVector(Add(MatMul(x_t, w_ih), MatMul(*h, w_hh)), bias);
  const int64_t hs = w_hh->value().dim(0);
  Var i_gate = Sigmoid(NarrowVar(z, 1, 0, hs));
  Var f_gate = Sigmoid(NarrowVar(z, 1, hs, hs));
  Var g_gate = Tanh(NarrowVar(z, 1, 2 * hs, hs));
  Var o_gate = Sigmoid(NarrowVar(z, 1, 3 * hs, hs));
  *c = Add(Mul(f_gate, *c), Mul(i_gate, g_gate));
  *h = Mul(o_gate, Tanh(*c));
}

/// Runs the recurrence over a [N, T, I] sequence from zero state and
/// returns the last hidden state [N, H].
inline ag::Var LstmLastHidden(const ag::Var& sequence, const ag::Var& w_ih,
                              const ag::Var& w_hh, const ag::Var& bias) {
  const int64_t batch = sequence->value().dim(0);
  const int64_t time = sequence->value().dim(1);
  const int64_t input = sequence->value().dim(2);
  const int64_t hs = w_hh->value().dim(0);
  ag::Var h = ag::Constant(Tensor({batch, hs}));
  ag::Var c = ag::Constant(Tensor({batch, hs}));
  for (int64_t t = 0; t < time; ++t) {
    ag::Var x_t =
        ag::Reshape(ag::NarrowVar(sequence, 1, t, 1), {batch, input});
    LstmStep(x_t, w_ih, w_hh, bias, &h, &c);
  }
  return h;
}

}  // namespace ppn::nn::oracle

#endif  // PPN_TESTS_NN_LSTM_ORACLE_H_
