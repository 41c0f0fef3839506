#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/binio.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace ppn::nn {
namespace {

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor w = XavierUniform({100, 50}, 100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), bound);
  }
}

TEST(InitTest, KaimingBounds) {
  Rng rng(1);
  Tensor w = KaimingUniform({64, 32}, 32, &rng);
  const float bound = std::sqrt(6.0f / 32.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), bound);
  }
}

TEST(LinearTest, KnownAffineMap) {
  Rng rng(1);
  Linear layer(2, 3, &rng);
  // Overwrite weights with known values.
  float* w = layer.weight()->mutable_value()->MutableData();
  const float weights[6] = {1, 2, 3, 4, 5, 6};  // [2,3] row-major.
  for (int i = 0; i < 6; ++i) w[i] = weights[i];
  float* b = layer.bias()->mutable_value()->MutableData();
  b[0] = 0.5f;
  b[1] = -0.5f;
  b[2] = 1.0f;
  ag::Var x = ag::Constant(Tensor({1, 2}, {1.0f, 2.0f}));
  ag::Var y = layer.Forward(x);
  // y = [1*1+2*4, 1*2+2*5, 1*3+2*6] + b = [9.5, 11.5, 16].
  EXPECT_TRUE(y->value().AllClose(Tensor({1, 3}, {9.5f, 11.5f, 16.0f})));
}

TEST(LinearTest, WrongInputWidthAborts) {
  Rng rng(1);
  Linear layer(4, 2, &rng);
  ag::Var x = ag::Constant(Tensor({1, 3}));
  EXPECT_DEATH(layer.Forward(x), "PPN_CHECK");
}

TEST(ModuleTest, ParameterCountsAndNames) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
  const auto named = layer.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(7);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng);  // Different init.
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  a.SaveState(&writer);
  const std::string bytes = out.str();
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  ASSERT_TRUE(b.LoadState(&reader, &error)) << error;
  EXPECT_TRUE(b.weight()->value().AllClose(a.weight()->value()));
  EXPECT_TRUE(b.bias()->value().AllClose(a.bias()->value()));
}

TEST(ModuleTest, LoadRejectsWrongShape) {
  Rng rng(7);
  Linear a(3, 2, &rng);
  Linear b(2, 2, &rng);
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  a.SaveState(&writer);
  const std::string bytes = out.str();
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  EXPECT_FALSE(b.LoadState(&reader, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ModuleTest, CopyParametersFrom) {
  Rng rng(1);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng);
  b.CopyParametersFrom(a);
  EXPECT_TRUE(b.weight()->value().AllClose(a.weight()->value()));
}

TEST(ModuleTest, PolyakUpdateMovesToward) {
  Rng rng(1);
  Linear a(2, 2, &rng);
  Linear b(2, 2, &rng);
  const float before = b.weight()->value()[0];
  const float target = a.weight()->value()[0];
  b.PolyakUpdateFrom(a, 0.25f);
  const float after = b.weight()->value()[0];
  EXPECT_NEAR(after, 0.75f * before + 0.25f * target, 1e-6f);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  ag::Var x = ag::Constant(Tensor::Full({1, 2}, 1.0f));
  ag::Var loss = ag::SumAll(layer.Forward(x));
  ag::Backward(loss);
  EXPECT_TRUE(layer.weight()->has_grad());
  layer.ZeroGrad();
  EXPECT_TRUE(layer.weight()->grad().AllClose(Tensor({2, 2})));
}

TEST(ModuleTest, TrainingFlagPropagates) {
  struct Parent : Module {
    explicit Parent(Rng* rng) : child(2, 2, rng) {
      RegisterSubmodule("child", &child);
    }
    Linear child;
  };
  Rng rng(1);
  Parent parent(&rng);
  parent.SetTraining(false);
  EXPECT_FALSE(parent.child.training());
  parent.SetTraining(true);
  EXPECT_TRUE(parent.child.training());
}

// ----------------------------------------------------------- conv ----

TEST(ConvGeometryTest, CausalPreservesLength) {
  for (const int64_t dilation : {1, 2, 4, 8}) {
    const Conv2dGeometry g = CausalTimeConvGeometry(3, dilation);
    EXPECT_EQ(g.OutW(30), 30) << "dilation=" << dilation;
    EXPECT_EQ(g.OutH(7), 7);
  }
}

TEST(ConvGeometryTest, CorrelationalPreservesAssets) {
  for (const int64_t m : {2, 5, 12, 44}) {
    const Conv2dGeometry g = CorrelationalConvGeometry(m);
    EXPECT_EQ(g.OutH(m), m) << "m=" << m;
  }
}

TEST(ConvGeometryTest, TimeCollapseGivesWidthOne) {
  const Conv2dGeometry g = TimeCollapseConvGeometry(30);
  EXPECT_EQ(g.OutW(30), 1);
}

TEST(ConvLayerTest, CausalityNoFutureLeakage) {
  // Changing the input at time t must not change outputs at times < t.
  Rng rng(3);
  Conv2dLayer layer(1, 2, CausalTimeConvGeometry(3, 2), &rng);
  Tensor input({1, 1, 1, 10});
  Rng data_rng(5);
  for (int64_t i = 0; i < 10; ++i) {
    input.MutableData()[i] = static_cast<float>(data_rng.Normal());
  }
  ag::Var base_out = layer.Forward(ag::Constant(input.Clone()));
  Tensor perturbed = input.Clone();
  const int64_t t_changed = 6;
  perturbed.MutableData()[t_changed] += 10.0f;
  ag::Var new_out = layer.Forward(ag::Constant(perturbed));
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t t = 0; t < 10; ++t) {
      const float before = base_out->value().At({0, c, 0, t});
      const float after = new_out->value().At({0, c, 0, t});
      if (t < t_changed) {
        EXPECT_FLOAT_EQ(before, after) << "leak at t=" << t;
      }
    }
  }
  // The changed position itself must be affected (kernel tap at lag 0).
  EXPECT_NE(base_out->value().At({0, 0, 0, t_changed}),
            new_out->value().At({0, 0, 0, t_changed}));
}

TEST(ConvLayerTest, DilatedReceptiveFieldReachesBack) {
  // With kernel 3, dilation 4, output at t depends on t-8 but not t-9.
  Rng rng(3);
  Conv2dLayer layer(1, 1, CausalTimeConvGeometry(3, 4), &rng);
  Tensor input({1, 1, 1, 16});
  auto out_at = [&](const Tensor& in, int64_t t) {
    ag::Var out = layer.Forward(ag::Constant(in.Clone()));
    return out->value().At({0, 0, 0, t});
  };
  const int64_t t = 12;
  Tensor in_base = input.Clone();
  Tensor in_reach = input.Clone();
  in_reach.MutableData()[t - 8] += 1.0f;
  Tensor in_beyond = input.Clone();
  in_beyond.MutableData()[t - 9] += 1.0f;
  EXPECT_NE(out_at(in_base, t), out_at(in_reach, t));
  EXPECT_FLOAT_EQ(out_at(in_base, t), out_at(in_beyond, t));
}

TEST(ConvLayerTest, CorrelationalConvMixesAssets) {
  Rng rng(3);
  const int64_t m = 5;
  Conv2dLayer layer(1, 1, CorrelationalConvGeometry(m), &rng);
  Tensor input({1, 1, m, 4});
  ag::Var base = layer.Forward(ag::Constant(input.Clone()));
  Tensor perturbed = input.Clone();
  perturbed.Set({0, 0, 0, 2}, 5.0f);  // Change asset 0 only.
  ag::Var changed = layer.Forward(ag::Constant(perturbed));
  // Some OTHER asset's output at the same time step must change.
  bool other_asset_affected = false;
  for (int64_t a = 1; a < m; ++a) {
    if (base->value().At({0, 0, a, 2}) != changed->value().At({0, 0, a, 2})) {
      other_asset_affected = true;
    }
  }
  EXPECT_TRUE(other_asset_affected);
}

// ----------------------------------------------------------- lstm ----

TEST(LstmTest, HandComputedSingleStep) {
  Rng rng(1);
  Lstm lstm(1, 1, &rng);
  // Set all weights to known values: w_ih = [0.5 0.5 0.5 0.5],
  // w_hh = 0 (first step anyway), bias = 0.
  auto params = lstm.NamedParameters();
  for (auto& [name, var] : params) {
    float* data = var->mutable_value()->MutableData();
    for (int64_t i = 0; i < var->numel(); ++i) {
      data[i] = name == "w_ih" ? 0.5f : 0.0f;
    }
  }
  ag::Var x = ag::Constant(Tensor({1, 1, 1}, {1.0f}));
  ag::Var h = lstm.ForwardLastHidden(x);
  // z = 0.5 for all gates: i = f = o = sigmoid(0.5), g = tanh(0.5),
  // c = i * g, h = o * tanh(c).
  const double gate = 1.0 / (1.0 + std::exp(-0.5));
  const double c = gate * std::tanh(0.5);
  const double expected = gate * std::tanh(c);
  EXPECT_NEAR(h->value()[0], expected, 1e-6);
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(1);
  Lstm lstm(2, 3, &rng);
  for (const auto& [name, var] : lstm.NamedParameters()) {
    if (name != "bias") continue;
    for (int64_t j = 0; j < 12; ++j) {
      const float expected = (j >= 3 && j < 6) ? 1.0f : 0.0f;
      EXPECT_FLOAT_EQ(var->value()[j], expected) << "j=" << j;
    }
  }
}

TEST(LstmTest, OrderSensitivity) {
  // An LSTM must distinguish sequence order (unlike a mean pool).
  Rng rng(11);
  Lstm lstm(1, 4, &rng);
  Tensor forward_seq({1, 4, 1}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor reversed_seq({1, 4, 1}, {4.0f, 3.0f, 2.0f, 1.0f});
  ag::Var h1 = lstm.ForwardLastHidden(ag::Constant(forward_seq));
  ag::Var h2 = lstm.ForwardLastHidden(ag::Constant(reversed_seq));
  EXPECT_FALSE(h1->value().AllClose(h2->value()));
}

TEST(LstmTest, GradientFlowsThroughTime) {
  Rng rng(13);
  Lstm lstm(1, 2, &rng);
  Tensor seq({1, 6, 1}, {0.1f, -0.2f, 0.3f, 0.2f, -0.1f, 0.4f});
  ag::Var input = ag::Parameter(seq);
  ag::Var h = lstm.ForwardLastHidden(input);
  ag::Backward(ag::SumAll(h));
  // Gradient w.r.t. the FIRST timestep must be nonzero (full BPTT).
  EXPECT_NE(input->grad()[0], 0.0f);
  for (const ag::Var& p : lstm.Parameters()) {
    EXPECT_TRUE(p->has_grad());
  }
}

}  // namespace
}  // namespace ppn::nn
