#ifndef PPN_NN_LSTM_H_
#define PPN_NN_LSTM_H_

#include "autograd/ops.h"
#include "nn/module.h"

/// \file
/// Long short-term memory layer (Hochreiter & Schmidhuber 1997). The
/// sequential information net runs one shared-weight LSTM over each asset's
/// price window and keeps the final hidden state, so the layer exposes a
/// batched "sequence in, last hidden out" interface.

namespace ppn::nn {

/// Single-layer LSTM with fused gate weights.
///
/// Parameters: `w_ih` [input_size, 4*hidden], `w_hh` [hidden, 4*hidden],
/// `bias` [4*hidden], gate order (i, f, g, o). The forget-gate bias slice is
/// initialized to 1 (standard trick for gradient flow on long windows).
class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng);

  /// Runs the recurrence over a [batch, time, input_size] sequence and
  /// returns the final hidden state [batch, hidden_size]: one fused
  /// `ag::LstmLastHidden` node.
  ag::Var ForwardLastHidden(const ag::Var& sequence) const;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  ag::Var w_ih_;
  ag::Var w_hh_;
  ag::Var bias_;
};

}  // namespace ppn::nn

#endif  // PPN_NN_LSTM_H_
