#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "tensor/ops.h"

namespace ppn::ag {
namespace {

// Every differentiable op is verified against central finite differences.
// Inputs are kept away from non-smooth points (|x| for Abs, kinks for Relu
// and Clamp) by construction.

struct GradCase {
  std::string name;
  ScalarGraphFn fn;
  std::vector<Tensor> inputs;
  double tolerance = 2e-2;
};

class OpGradTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradTest, MatchesFiniteDifferences) {
  const GradCase& test_case = GetParam();
  const GradCheckResult result =
      CheckGradients(test_case.fn, test_case.inputs);
  EXPECT_LT(result.max_rel_error, test_case.tolerance)
      << test_case.name << " abs_err=" << result.max_abs_error;
}

Tensor SmallTensor() { return Tensor({2, 3}, {0.5f, -1.2f, 2.0f, 0.8f, -0.4f, 1.5f}); }
Tensor PositiveTensor() { return Tensor({2, 3}, {0.5f, 1.2f, 2.0f, 0.8f, 0.4f, 1.5f}); }

std::vector<GradCase> MakeCases() {
  std::vector<GradCase> cases;
  auto add_case = [&](std::string name, ScalarGraphFn fn,
                      std::vector<Tensor> inputs, double tol = 2e-2) {
    cases.push_back({std::move(name), std::move(fn), std::move(inputs), tol});
  };

  add_case("Add", [](const std::vector<Var>& in) {
    return SumAll(Add(in[0], in[1]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Sub", [](const std::vector<Var>& in) {
    return SumAll(Mul(Sub(in[0], in[1]), in[0]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Mul", [](const std::vector<Var>& in) {
    return SumAll(Mul(in[0], in[1]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Div", [](const std::vector<Var>& in) {
    return SumAll(Div(in[0], in[1]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("AddScalar", [](const std::vector<Var>& in) {
    return SumAll(Mul(AddScalar(in[0], 2.0f), in[0]));
  }, {SmallTensor()});

  add_case("MulScalar", [](const std::vector<Var>& in) {
    return SumAll(Mul(MulScalar(in[0], -1.5f), in[0]));
  }, {SmallTensor()});

  add_case("Neg", [](const std::vector<Var>& in) {
    return SumAll(Mul(Neg(in[0]), in[0]));
  }, {SmallTensor()});

  add_case("Exp", [](const std::vector<Var>& in) {
    return SumAll(Exp(in[0]));
  }, {SmallTensor()});

  add_case("Log", [](const std::vector<Var>& in) {
    return SumAll(Log(in[0]));
  }, {PositiveTensor()});

  add_case("Tanh", [](const std::vector<Var>& in) {
    return SumAll(Tanh(in[0]));
  }, {SmallTensor()});

  add_case("Sigmoid", [](const std::vector<Var>& in) {
    return SumAll(Sigmoid(in[0]));
  }, {SmallTensor()});

  // Relu inputs are away from 0 so finite differences are valid.
  add_case("Relu", [](const std::vector<Var>& in) {
    return SumAll(Relu(in[0]));
  }, {SmallTensor()});

  add_case("Abs", [](const std::vector<Var>& in) {
    return SumAll(Abs(in[0]));
  }, {SmallTensor()});

  add_case("Sqrt", [](const std::vector<Var>& in) {
    return SumAll(Sqrt(in[0]));
  }, {PositiveTensor()});

  // Clamp active and inactive regions, away from the boundaries.
  add_case("Clamp", [](const std::vector<Var>& in) {
    return SumAll(Mul(Clamp(in[0], -1.0f, 1.0f), in[0]));
  }, {SmallTensor()});

  add_case("MatMul", [](const std::vector<Var>& in) {
    return SumAll(MatMul(in[0], in[1]));
  }, {Tensor({2, 3}, {0.5f, -1.0f, 2.0f, 1.0f, 0.3f, -0.7f}),
      Tensor({3, 2}, {1.0f, 2.0f, -0.5f, 0.8f, 0.2f, -1.1f})});

  add_case("MatMulChained", [](const std::vector<Var>& in) {
    return SumAll(Mul(MatMul(in[0], in[1]), MatMul(in[0], in[1])));
  }, {Tensor({2, 2}, {0.5f, -1.0f, 2.0f, 1.0f}),
      Tensor({2, 2}, {1.0f, 2.0f, -0.5f, 0.8f})});

  add_case("Transpose2D", [](const std::vector<Var>& in) {
    return SumAll(Mul(Transpose2D(in[0]), Transpose2D(in[0])));
  }, {SmallTensor()});

  add_case("AddRowVector", [](const std::vector<Var>& in) {
    return SumAll(Mul(AddRowVector(in[0], in[1]), in[0]));
  }, {SmallTensor(), Tensor({3}, {0.1f, -0.2f, 0.3f})});

  add_case("MeanAll", [](const std::vector<Var>& in) {
    return MeanAll(Mul(in[0], in[0]));
  }, {SmallTensor()});

  add_case("BroadcastScalar", [](const std::vector<Var>& in) {
    Var mean = MeanAll(in[0]);
    return SumAll(Mul(BroadcastScalar(mean, in[0]->shape()), in[0]));
  }, {SmallTensor()});

  add_case("VarianceAll", [](const std::vector<Var>& in) {
    return VarianceAll(in[0]);
  }, {SmallTensor()});

  add_case("Reshape", [](const std::vector<Var>& in) {
    Var r = Reshape(in[0], {3, 2});
    return SumAll(Mul(r, r));
  }, {SmallTensor()});

  add_case("Concat", [](const std::vector<Var>& in) {
    Var c = ConcatVars({in[0], in[1]}, 1);
    return SumAll(Mul(c, c));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Narrow", [](const std::vector<Var>& in) {
    Var n = NarrowVar(in[0], 1, 1, 2);
    return SumAll(Mul(n, n));
  }, {SmallTensor()});

  add_case("SoftmaxRows", [](const std::vector<Var>& in) {
    Var s = SoftmaxRows(in[0]);
    // Weighted sum to give every output a distinct weight.
    return SumAll(Mul(s, Constant(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}))));
  }, {SmallTensor()});

  add_case("Permute4", [](const std::vector<Var>& in) {
    Var p = Permute4(in[0], {0, 3, 1, 2});
    return SumAll(Mul(p, p));
  }, {Tensor({2, 2, 2, 2}, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f, 0.7f, 0.8f,
                            -0.1f, -0.2f, -0.3f, -0.4f, 1.1f, 1.2f, 1.3f,
                            1.4f})});

  // Conv2d: plain, causal-padded, and dilated geometries.
  {
    Conv2dGeometry plain;
    plain.kernel_h = 1;
    plain.kernel_w = 3;
    add_case("Conv2dValid", [plain](const std::vector<Var>& in) {
      Var y = Conv2d(in[0], in[1], in[2], plain);
      return SumAll(Mul(y, y));
    }, {Tensor({1, 2, 2, 5}, {0.1f, 0.4f, -0.2f, 0.3f, 0.5f,
                              0.2f, -0.1f, 0.6f, -0.3f, 0.1f,
                              0.7f, 0.2f, -0.5f, 0.4f, -0.6f,
                              0.3f, 0.1f, 0.2f, -0.4f, 0.5f}),
        Tensor({3, 2, 1, 3}, {0.5f, -0.2f, 0.1f, 0.3f, 0.2f, -0.4f,
                              0.1f, 0.6f, -0.3f, 0.2f, -0.1f, 0.5f,
                              -0.2f, 0.3f, 0.4f, 0.1f, -0.5f, 0.2f}),
        Tensor({3}, {0.1f, -0.1f, 0.2f})});
  }
  {
    Conv2dGeometry causal;
    causal.kernel_w = 3;
    causal.dilation_w = 2;
    causal.pad_left = 4;
    add_case("Conv2dCausalDilated", [causal](const std::vector<Var>& in) {
      Var y = Conv2d(in[0], in[1], in[2], causal);
      return SumAll(Mul(y, y));
    }, {Tensor({1, 1, 1, 6}, {0.1f, 0.4f, -0.2f, 0.3f, 0.5f, -0.1f}),
        Tensor({2, 1, 1, 3}, {0.5f, -0.2f, 0.1f, 0.3f, 0.2f, -0.4f}),
        Tensor({2}, {0.05f, -0.05f})});
  }
  {
    Conv2dGeometry same_h;
    same_h.kernel_h = 3;
    same_h.pad_top = 1;
    same_h.pad_bottom = 1;
    add_case("Conv2dSameHeight", [same_h](const std::vector<Var>& in) {
      Var y = Conv2d(in[0], in[1], in[2], same_h);
      return SumAll(Mul(y, y));
    }, {Tensor({1, 1, 3, 2}, {0.1f, 0.4f, -0.2f, 0.3f, 0.5f, -0.1f}),
        Tensor({1, 1, 3, 1}, {0.5f, -0.2f, 0.1f}),
        Tensor({1}, {0.1f})});
  }

  // The fused LSTM: [N=2, T=4, I=3] sequence, hidden 2, so every gate,
  // the recurrence and all four inputs' gradients are exercised.
  add_case("LstmLastHidden", [](const std::vector<Var>& in) {
    Var h = LstmLastHidden(in[0], in[1], in[2], in[3]);
    return SumAll(Mul(h, h));
  }, {Tensor({2, 4, 3}, {0.5f, -1.2f, 0.3f, 0.8f, -0.4f, 1.5f,
                         -0.7f, 0.2f, 0.9f, 0.1f, -0.3f, 0.6f,
                         1.1f, 0.4f, -0.9f, -0.2f, 0.7f, 0.05f,
                         0.3f, -0.6f, 0.4f, -1.0f, 0.25f, 0.8f}),
      Tensor({3, 8}, {0.4f, -0.3f, 0.2f, 0.5f, -0.1f, 0.3f, -0.5f, 0.2f,
                      -0.2f, 0.6f, 0.1f, -0.4f, 0.3f, -0.2f, 0.4f, 0.1f,
                      0.3f, 0.1f, -0.5f, 0.2f, 0.4f, 0.5f, -0.3f, -0.6f}),
      Tensor({2, 8}, {0.2f, -0.4f, 0.3f, 0.1f, -0.3f, 0.2f, 0.5f, -0.1f,
                      -0.5f, 0.1f, 0.2f, -0.2f, 0.4f, -0.3f, 0.1f, 0.3f}),
      Tensor({8}, {0.1f, -0.1f, 1.0f, 0.9f, 0.05f, -0.2f, 0.3f, 0.0f})});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

// `Sigmoid` (and the fused LSTM gates, which share its scalar function)
// must keep the overflow-free two-branch expression bit for bit, since
// results, checkpoints and golden checksums depend on it. Sampled over
// the float bit patterns, with the specials.
TEST(SigmoidTest, MatchesTheTwoBranchExpressionBitForBit) {
  std::vector<float> values = {0.0f, -0.0f, INFINITY, -INFINITY, NAN, -NAN,
                               88.8f, -88.8f, 104.0f, -104.0f};
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4099) {
    const uint32_t pattern = static_cast<uint32_t>(bits);
    float x;
    std::memcpy(&x, &pattern, sizeof(x));
    values.push_back(x);
  }
  const Tensor input({static_cast<int64_t>(values.size())}, values);
  const Tensor out = Sigmoid(Constant(input))->value();
  for (size_t i = 0; i < values.size(); ++i) {
    const float x = values[i];
    const float expected = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                                     : std::exp(x) / (1.0f + std::exp(x));
    const float got = out[static_cast<int64_t>(i)];
    ASSERT_EQ(std::memcmp(&got, &expected, sizeof(float)), 0)
        << "x=" << x << " got " << got << " expected " << expected;
  }
}

TEST(DropoutGradTest, MaskIsConsistentBetweenForwardAndBackward) {
  Rng rng(3);
  Var x = Parameter(Tensor::Full({1000}, 1.0f));
  Var y = Dropout(x, 0.5f, /*training=*/true, &rng);
  Var loss = SumAll(y);
  Backward(loss);
  // Where the output is zero the gradient must be zero; where it is 2 (the
  // inverted-dropout scale) the gradient must be 2.
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_FLOAT_EQ(x->grad()[i], y->value()[i]);
  }
}

TEST(DropoutGradTest, EvalModeIsIdentity) {
  Rng rng(3);
  Var x = Parameter(Tensor::Full({10}, 3.0f));
  Var y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(y->value().AllClose(x->value()));
}

TEST(DropoutGradTest, DropFractionNearP) {
  Rng rng(11);
  Var x = Constant(Tensor::Full({20000}, 1.0f));
  Var y = Dropout(x, 0.3f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y->numel(); ++i) {
    if (y->value()[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y->numel(), 0.3, 0.02);
}

}  // namespace
}  // namespace ppn::ag
