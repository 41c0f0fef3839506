#include "nn/lstm.h"

#include "common/check.h"
#include "nn/init.h"

namespace ppn::nn {

Lstm::Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  PPN_CHECK_GT(input_size, 0);
  PPN_CHECK_GT(hidden_size, 0);
  w_ih_ = RegisterParameter(
      "w_ih", XavierUniform({input_size, 4 * hidden_size}, input_size,
                            hidden_size, rng));
  w_hh_ = RegisterParameter(
      "w_hh", XavierUniform({hidden_size, 4 * hidden_size}, hidden_size,
                            hidden_size, rng));
  Tensor bias = ZeroInit({4 * hidden_size});
  // Forget-gate bias (second slice) starts at 1.
  for (int64_t j = hidden_size; j < 2 * hidden_size; ++j) {
    bias.MutableData()[j] = 1.0f;
  }
  bias_ = RegisterParameter("bias", std::move(bias));
}

ag::Var Lstm::ForwardLastHidden(const ag::Var& sequence) const {
  return ag::LstmLastHidden(sequence, w_ih_, w_hh_, bias_);
}

}  // namespace ppn::nn
