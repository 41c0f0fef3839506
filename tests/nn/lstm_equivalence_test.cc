// Bit-identity of the fused `ag::LstmLastHidden` against the op-by-op
// oracle (lstm_oracle.h): last hidden state, input gradient and all three
// parameter gradients are compared with memcmp, across shapes, inner
// parallelism on/off, OpenMP team sizes and non-finite inputs.
//
// Traps of the op-by-op bits that the fused op reproduces and this suite
// pins (a fused op that misses any one of them fails it):
//  - one parameter-gradient AccumulateGrad per step, bias and w_hh from
//    T-1 down to 0, w_ih from 0 up (AccumulatesIntoExistingGradients);
//  - the w_hh product with the zero h_{-1} at t = 0 is still accumulated
//    (ZeroInitialStateProductStillAccumulates);
//  - the t = 0 recurrent product is not skipped, so 0 * Inf gives NaN
//    (ZeroInitialStateTimesInfIsNaN).
// The fused op also turns a -0 gate gradient into +0 as the four padded
// NarrowVar accumulations did, but no output can show it: every consumer
// of dz is a sum that starts at +0.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "autograd/ops.h"
#include "common/parallel.h"
#include "common/random.h"
#include "lstm_oracle.h"
#include "obs/stats.h"

namespace ppn::nn {
namespace {

using LstmFn = ag::Var (*)(const ag::Var&, const ag::Var&, const ag::Var&,
                           const ag::Var&);

enum class Inputs {
  kNormal,     // N(0, 1) sequence and upstream gradient.
  kSaturated,  // Sequence x40: most |z| > 20, gates exactly 0 or 1.
  kZeros,      // Exact zeros in the sequence, weights and upstream grad.
  kNaN,        // One NaN in the sequence.
  kInfWeight,  // One +Inf in w_hh: the t = 0 product 0 * Inf is NaN.
};

const char* InputsName(Inputs inputs) {
  switch (inputs) {
    case Inputs::kNormal: return "normal";
    case Inputs::kSaturated: return "saturated";
    case Inputs::kZeros: return "zeros";
    case Inputs::kNaN: return "nan";
    case Inputs::kInfWeight: return "inf_weight";
  }
  return "?";
}

struct Shape {
  int64_t n, time, in, hidden;
};

// Tensors of one case: the op's four inputs, the upstream gradient dL/dh,
// and gradients already sitting in the accumulators before Backward.
struct CaseData {
  Tensor sequence, w_ih, w_hh, bias, upstream;
  std::vector<Tensor> prior_grads;  // Empty, or one per input.
};

Tensor Normal(std::vector<int64_t> shape, double scale, Rng* rng) {
  Tensor t = Tensor::Uninitialized(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.MutableData()[i] = static_cast<float>(scale * rng->Normal());
  }
  return t;
}

// Zeroes about a third of the elements, half of them as -0.
void SprinkleZeros(Tensor* t, Rng* rng) {
  for (int64_t i = 0; i < t->numel(); ++i) {
    const double u = rng->Uniform(0.0, 1.0);
    if (u < 0.17) t->MutableData()[i] = 0.0f;
    else if (u < 0.34) t->MutableData()[i] = -0.0f;
  }
}

CaseData MakeCase(const Shape& s, Inputs inputs, bool prior_grads,
                  uint64_t seed) {
  Rng rng(seed);
  const int64_t gs = 4 * s.hidden;
  const double input_scale = inputs == Inputs::kSaturated ? 40.0 : 1.0;
  CaseData d;
  d.sequence = Normal({s.n, s.time, s.in}, input_scale, &rng);
  d.w_ih = Normal({s.in, gs}, 0.5, &rng);
  d.w_hh = Normal({s.hidden, gs}, 0.3, &rng);
  d.bias = Normal({gs}, 0.1, &rng);
  d.upstream = Normal({s.n, s.hidden}, 1.0, &rng);
  switch (inputs) {
    case Inputs::kNormal:
    case Inputs::kSaturated:
      break;
    case Inputs::kZeros:
      SprinkleZeros(&d.sequence, &rng);
      SprinkleZeros(&d.w_ih, &rng);
      SprinkleZeros(&d.w_hh, &rng);
      SprinkleZeros(&d.upstream, &rng);
      break;
    case Inputs::kNaN:
      d.sequence.MutableData()[d.sequence.numel() / 2] =
          std::numeric_limits<float>::quiet_NaN();
      break;
    case Inputs::kInfWeight:
      d.w_hh.MutableData()[1] = std::numeric_limits<float>::infinity();
      break;
  }
  if (prior_grads) {
    for (const Tensor* t : {&d.sequence, &d.w_ih, &d.w_hh, &d.bias}) {
      Tensor g = Normal(t->shape(), 1.0, &rng);
      SprinkleZeros(&g, &rng);
      d.prior_grads.push_back(g);
    }
  }
  return d;
}

// Outputs compared bit for bit: h, then the gradients of sequence, w_ih,
// w_hh, bias (an absent gradient is an empty tensor).
struct Result {
  std::vector<Tensor> tensors;
};

Result RunLstm(LstmFn lstm, const CaseData& d) {
  std::vector<ag::Var> inputs = {
      ag::Parameter(d.sequence.Clone()), ag::Parameter(d.w_ih.Clone()),
      ag::Parameter(d.w_hh.Clone()), ag::Parameter(d.bias.Clone())};
  for (size_t i = 0; i < d.prior_grads.size(); ++i) {
    inputs[i]->AccumulateGrad(d.prior_grads[i]);
  }
  ag::Var h = lstm(inputs[0], inputs[1], inputs[2], inputs[3]);
  ag::Backward(ag::SumAll(ag::Mul(h, ag::Constant(d.upstream))));
  Result result;
  result.tensors.push_back(h->value());
  for (const ag::Var& v : inputs) {
    result.tensors.push_back(v->has_grad() ? v->grad() : Tensor());
  }
  return result;
}

void ExpectBitIdentical(const Result& fused, const Result& oracle,
                        const std::string& label) {
  static const char* kNames[] = {"h", "d_sequence", "d_w_ih", "d_w_hh",
                                 "d_bias"};
  ASSERT_EQ(fused.tensors.size(), oracle.tensors.size());
  for (size_t i = 0; i < fused.tensors.size(); ++i) {
    const Tensor& a = fused.tensors[i];
    const Tensor& b = oracle.tensors[i];
    ASSERT_EQ(a.shape(), b.shape()) << label << " " << kNames[i];
    if (a.numel() == 0) continue;
    EXPECT_EQ(std::memcmp(a.Data(), b.Data(),
                          static_cast<size_t>(a.numel()) * sizeof(float)),
              0)
        << label << ": " << kNames[i] << " differs from the oracle";
  }
}

// OpenMP team sizes for the fused runs: 1, 4 and the process default
// (OMP_NUM_THREADS; CI runs the suite at 1 and at 3).
std::vector<int> TeamSizes() {
  std::vector<int> sizes = {1, 4};
#ifdef _OPENMP
  const int default_size = omp_get_max_threads();
  if (default_size != 1 && default_size != 4) sizes.push_back(default_size);
#endif
  return sizes;
}

// Runs the fused op under inner parallelism on/off and every team size,
// each against one oracle run.
void CheckAgainstOracle(const Shape& s, Inputs inputs, bool prior_grads) {
  const CaseData d = MakeCase(s, inputs, prior_grads, 1000 + s.n + s.time);
  const Result oracle = RunLstm(&oracle::LstmLastHidden, d);
  const std::string shape_label =
      "N=" + std::to_string(s.n) + " T=" + std::to_string(s.time) +
      " I=" + std::to_string(s.in) + " H=" + std::to_string(s.hidden) +
      " inputs=" + InputsName(inputs) +
      (prior_grads ? " prior_grads" : "");
  for (const bool inner : {true, false}) {
    for (const int threads : TeamSizes()) {
#ifdef _OPENMP
      const int saved_threads = omp_get_max_threads();
      omp_set_num_threads(threads);
#endif
      const bool saved_inner = SetInnerParallelEnabled(inner);
      const Result fused = RunLstm(&ag::LstmLastHidden, d);
      SetInnerParallelEnabled(saved_inner);
#ifdef _OPENMP
      omp_set_num_threads(saved_threads);
#endif
      ExpectBitIdentical(fused, oracle,
                         shape_label + " inner=" + std::to_string(inner) +
                             " threads=" + std::to_string(threads));
    }
  }
}

constexpr Inputs kAllInputs[] = {Inputs::kNormal, Inputs::kSaturated,
                                 Inputs::kZeros, Inputs::kNaN,
                                 Inputs::kInfWeight};

TEST(LstmEquivalenceTest, PpnShapes) {
  for (const int64_t n : {384, 768}) {
    for (const Inputs inputs : kAllInputs) {
      CheckAgainstOracle({n, 30, 4, 16}, inputs, /*prior_grads=*/false);
    }
  }
}

TEST(LstmEquivalenceTest, CascadeShape) {
  for (const Inputs inputs : kAllInputs) {
    CheckAgainstOracle({384, 30, 16, 16}, inputs, /*prior_grads=*/false);
  }
}

TEST(LstmEquivalenceTest, SmallAndRaggedBatches) {
  // 13 is no multiple of the matmul register block or any row block.
  for (const int64_t n : {1, 12, 13}) {
    for (const Inputs inputs : kAllInputs) {
      CheckAgainstOracle({n, 30, 4, 16}, inputs, /*prior_grads=*/false);
    }
  }
}

TEST(LstmEquivalenceTest, SingleStep) {
  for (const int64_t n : {1, 12, 13, 384}) {
    for (const Inputs inputs : kAllInputs) {
      CheckAgainstOracle({n, 1, 4, 16}, inputs, /*prior_grads=*/false);
    }
  }
}

// Gradients already in the accumulators make every per-step
// AccumulateGrad observable: float addition does not associate, so the
// parameter gradients match only if the fused op adds one delta per step
// in the oracle's order (bias and w_hh from T-1 down to 0, w_ih and the
// sequence from 0 up to T-1).
TEST(LstmEquivalenceTest, AccumulatesIntoExistingGradients) {
  for (const Shape& s : {Shape{13, 30, 4, 16}, Shape{384, 30, 16, 16},
                         Shape{12, 1, 4, 16}}) {
    for (const Inputs inputs : kAllInputs) {
      CheckAgainstOracle(s, inputs, /*prior_grads=*/true);
    }
  }
}

// With T = 1 the only w_hh gradient is the product with the zero h_{-1}:
// the fused op still accumulates it, so w_hh ends up holding a (+0)
// gradient exactly like the oracle.
TEST(LstmEquivalenceTest, ZeroInitialStateProductStillAccumulates) {
  const CaseData d =
      MakeCase({5, 1, 4, 3}, Inputs::kNormal, /*prior_grads=*/false, 7);
  const Result fused = RunLstm(&ag::LstmLastHidden, d);
  ASSERT_GT(fused.tensors[3].numel(), 0) << "w_hh received no gradient";
  for (int64_t i = 0; i < fused.tensors[3].numel(); ++i) {
    EXPECT_EQ(fused.tensors[3][i], 0.0f);
    EXPECT_FALSE(std::signbit(fused.tensors[3][i]));
  }
}

// The t = 0 recurrent product is not skipped either: 0 * Inf in w_hh
// (column 1, the input gate of unit 1) makes unit 1 NaN in every row, as
// the op-by-op graph does.
TEST(LstmEquivalenceTest, ZeroInitialStateTimesInfIsNaN) {
  const CaseData d =
      MakeCase({3, 1, 4, 3}, Inputs::kInfWeight, /*prior_grads=*/false, 7);
  const Result result = RunLstm(&ag::LstmLastHidden, d);
  const Tensor& h = result.tensors[0];
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(std::isnan(h.At({r, j})), j == 1) << "h[" << r << "," << j
                                                   << "]";
    }
  }
}

TEST(LstmEquivalenceTest, InferenceForwardMatchesTapeForward) {
  const CaseData d =
      MakeCase({13, 30, 4, 16}, Inputs::kNormal, /*prior_grads=*/false, 3);
  const Tensor taped =
      ag::LstmLastHidden(ag::Parameter(d.sequence), ag::Parameter(d.w_ih),
                         ag::Parameter(d.w_hh), ag::Parameter(d.bias))
          ->value();
  ag::InferenceMode guard;
  const ag::Var untaped =
      ag::LstmLastHidden(ag::Constant(d.sequence), ag::Parameter(d.w_ih),
                         ag::Parameter(d.w_hh), ag::Parameter(d.bias));
  EXPECT_FALSE(untaped->requires_grad());
  EXPECT_EQ(std::memcmp(untaped->value().Data(), taped.Data(),
                        static_cast<size_t>(taped.numel()) * sizeof(float)),
            0);
}

// The fused op keeps the counters the op-by-op graph fed: the same matmul
// calls and FLOPs, T cell steps, and one tape node instead of 17 per step.
TEST(LstmEquivalenceTest, CountersMatchTheOpByOpGraph) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  obs::ScopedObsEnable obs_on;
  const CaseData d =
      MakeCase({12, 30, 4, 16}, Inputs::kNormal, /*prior_grads=*/false, 5);
  auto counters = [&d](LstmFn lstm) {
    obs::ResetAll();
    ag::Var h = lstm(ag::Constant(d.sequence), ag::Parameter(d.w_ih),
                     ag::Parameter(d.w_hh), ag::Parameter(d.bias));
    const obs::Snapshot forward = obs::TakeSnapshot();
    ag::Backward(ag::SumAll(h));
    const obs::Snapshot total = obs::TakeSnapshot();
    auto get = [](const obs::Snapshot& s, const char* name) {
      const auto it = s.counters.find(name);
      return it == s.counters.end() ? 0.0 : it->second;
    };
    return std::vector<double>{get(total, "tensor.matmul.calls"),
                               get(total, "tensor.matmul.flops"),
                               get(forward, "autograd.tape.nodes"),
                               get(total, "nn.lstm.cell_steps")};
  };
  const std::vector<double> fused = counters(&ag::LstmLastHidden);
  const std::vector<double> oracle = counters(&oracle::LstmLastHidden);
  EXPECT_EQ(fused[0], oracle[0]);
  EXPECT_EQ(fused[1], oracle[1]);
  EXPECT_EQ(oracle[2], 17.0 * 30.0);
  EXPECT_EQ(fused[2], 1.0);
  EXPECT_EQ(fused[3], 30.0);
}

}  // namespace
}  // namespace ppn::nn
