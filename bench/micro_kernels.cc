// Engineering microbenchmarks (google-benchmark): throughput of the hot
// kernels underneath training — matmul, im2col/col2im, conv2d forward and
// backward, LSTM steps, softmax, the transaction-cost fixed point, and a
// full policy forward pass.

#include <benchmark/benchmark.h>

#include "autograd/ops.h"
#include "backtest/costs.h"
#include "common/random.h"
#include "nn/conv.h"
#include "nn/lstm.h"
#include "ppn/policy_module.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace ppn {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomNormal({n, n}, 0.0f, 1.0f, &rng);
  Tensor b = RandomNormal({n, n}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransB(benchmark::State& state) {
  const int64_t rows = 11520;
  const int64_t patch = state.range(0);
  Rng rng(1);
  Tensor cols = RandomNormal({rows, patch}, 0.0f, 1.0f, &rng);
  Tensor weights = RandomNormal({16, patch}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(cols, weights));
  }
  state.SetItemsProcessed(state.iterations() * rows * patch * 16);
}
BENCHMARK(BM_MatMulTransB)->Arg(48)->Arg(192);

void BM_Im2Col(benchmark::State& state) {
  Rng rng(1);
  Tensor input = RandomNormal({16, 16, 12, 30}, 0.0f, 1.0f, &rng);
  const Conv2dGeometry g = nn::CausalTimeConvGeometry(3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Im2Col(input, g));
  }
}
BENCHMARK(BM_Im2Col);

void BM_Col2Im(benchmark::State& state) {
  Rng rng(1);
  Tensor input = RandomNormal({16, 16, 12, 30}, 0.0f, 1.0f, &rng);
  const Conv2dGeometry g = nn::CausalTimeConvGeometry(3, 2);
  Tensor cols = Im2Col(input, g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Col2Im(cols, input.shape(), g));
  }
}
BENCHMARK(BM_Col2Im);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(1);
  nn::Conv2dLayer layer(16, 16, nn::CorrelationalConvGeometry(12), &rng);
  Tensor input = RandomNormal({16, 16, 12, 30}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    ag::Var out = layer.Forward(ag::Constant(input));
    benchmark::DoNotOptimize(out->value().Data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardBackward(benchmark::State& state) {
  Rng rng(1);
  nn::Conv2dLayer layer(16, 16, nn::CorrelationalConvGeometry(12), &rng);
  Tensor input = RandomNormal({16, 16, 12, 30}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    layer.ZeroGrad();
    ag::Var in = ag::Parameter(input);
    ag::Var out = layer.Forward(in);
    ag::Backward(ag::SumAll(ag::Mul(out, out)));
    benchmark::DoNotOptimize(in->grad().Data());
  }
}
BENCHMARK(BM_Conv2dForwardBackward);

void BM_LstmForward(benchmark::State& state) {
  Rng rng(1);
  nn::Lstm lstm(4, 16, &rng);
  Tensor sequence = RandomNormal({192, 30, 4}, 0.0f, 0.1f, &rng);
  for (auto _ : state) {
    ag::Var out = lstm.ForwardLastHidden(ag::Constant(sequence));
    benchmark::DoNotOptimize(out->value().Data());
  }
}
BENCHMARK(BM_LstmForward);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(1);
  Tensor logits = RandomNormal({128, 45}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    ag::Var out = ag::SoftmaxRows(ag::Constant(logits));
    benchmark::DoNotOptimize(out->value().Data());
  }
}
BENCHMARK(BM_SoftmaxRows);

// Elementwise: a dispatched kernel and a statically dispatched functor.

void BM_ElementwiseMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomNormal({n}, 0.0f, 1.0f, &rng);
  Tensor b = RandomNormal({n}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ElementwiseMul)->Arg(1024)->Arg(65536);

void BM_MapFused(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomNormal({n}, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MapFused(a, [](float x) { return x * 1.5f + 2.0f; }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MapFused)->Arg(65536);

// Allocator: one alloc+free cycle per iteration, distinguishing the
// zero-filled constructor, the uninitialized fast path, and the pool
// bypass (what every allocation cost before the pool existed).

void BM_TensorAllocZeroed(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Tensor t({n});
    benchmark::DoNotOptimize(t.Data());
  }
}
BENCHMARK(BM_TensorAllocZeroed)->Arg(1024)->Arg(65536);

void BM_TensorAllocUninitialized(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Tensor t = Tensor::Uninitialized({n});
    benchmark::DoNotOptimize(t.Data());
  }
}
BENCHMARK(BM_TensorAllocUninitialized)->Arg(1024)->Arg(65536);

void BM_TensorAllocNoPool(benchmark::State& state) {
  const int64_t n = state.range(0);
  pool::ScopedPoolDisable disable;
  for (auto _ : state) {
    Tensor t({n});
    benchmark::DoNotOptimize(t.Data());
  }
}
BENCHMARK(BM_TensorAllocNoPool)->Arg(1024)->Arg(65536);

void BM_Concat(benchmark::State& state) {
  Rng rng(1);
  // The policy head's shape: per-asset feature blocks glued along the
  // channel axis.
  std::vector<Tensor> parts;
  for (int i = 0; i < 4; ++i) {
    parts.push_back(RandomNormal({64, 16, 30}, 0.0f, 1.0f, &rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Concat(parts, 1));
  }
}
BENCHMARK(BM_Concat);

// --- Autograd bookkeeping: tape-recording vs InferenceMode. --------------
// A deep chain of small elementwise ops isolates what the tape itself
// costs: per-op Node allocation, parent links, backward closures, and —
// the dominant term — every intermediate staying alive until the graph is
// dropped, defeating the pool's buffer reuse. Under ag::InferenceMode the
// same chain recycles two buffers and keeps no graph.

void BM_AutogradChainTape(benchmark::State& state) {
  const int64_t depth = state.range(0);
  Rng rng(1);
  const ag::Var weight = ag::Parameter(RandomNormal({64}, 0.0f, 0.1f, &rng));
  for (auto _ : state) {
    ag::Var x = ag::Constant(Tensor::Full({64}, 0.5f));
    for (int64_t i = 0; i < depth; ++i) {
      x = ag::Tanh(ag::Mul(x, weight));
    }
    benchmark::DoNotOptimize(x->value().Data());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_AutogradChainTape)->Arg(256);

void BM_AutogradChainInferenceMode(benchmark::State& state) {
  const int64_t depth = state.range(0);
  Rng rng(1);
  const ag::Var weight = ag::Parameter(RandomNormal({64}, 0.0f, 0.1f, &rng));
  for (auto _ : state) {
    ag::InferenceMode inference;
    ag::Var x = ag::Constant(Tensor::Full({64}, 0.5f));
    for (int64_t i = 0; i < depth; ++i) {
      x = ag::Tanh(ag::Mul(x, weight));
    }
    benchmark::DoNotOptimize(x->value().Data());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_AutogradChainInferenceMode)->Arg(256);

// --- Full policy forward: tape-recording vs InferenceMode. ---------------
// The pair quantifies what ag::InferenceMode buys a serving forward: no
// tape nodes, no parent links, eagerly-freed intermediates. Same weights,
// same inputs, bit-identical outputs — only the autograd bookkeeping
// differs.

core::PolicyConfig BenchPolicyConfig() {
  core::PolicyConfig config;
  config.variant = core::PolicyVariant::kPpn;
  config.num_assets = 11;
  config.window = 30;
  return config;
}

void BM_PolicyForwardTape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const core::PolicyConfig config = BenchPolicyConfig();
  Rng init(1), dropout(2), data(3);
  auto policy = core::MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);
  const Tensor windows = RandomNormal(
      {batch, config.num_assets, config.window, 4}, 1.0f, 0.01f, &data);
  const Tensor prev =
      Tensor::Full({batch, config.num_assets},
                   1.0f / static_cast<float>(config.num_assets));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy->Forward(ag::Constant(windows), ag::Constant(prev)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PolicyForwardTape)->Arg(1)->Arg(64);

void BM_PolicyForwardInferenceMode(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const core::PolicyConfig config = BenchPolicyConfig();
  Rng init(1), dropout(2), data(3);
  auto policy = core::MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);
  const Tensor windows = RandomNormal(
      {batch, config.num_assets, config.window, 4}, 1.0f, 0.01f, &data);
  const Tensor prev =
      Tensor::Full({batch, config.num_assets},
                   1.0f / static_cast<float>(config.num_assets));
  for (auto _ : state) {
    ag::InferenceMode inference;
    benchmark::DoNotOptimize(
        policy->Forward(ag::Constant(windows), ag::Constant(prev)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PolicyForwardInferenceMode)->Arg(1)->Arg(64);

void BM_CostFixedPoint(benchmark::State& state) {
  Rng rng(1);
  const int m = static_cast<int>(state.range(0));
  std::vector<double> prev = rng.Dirichlet(m + 1, 1.0);
  std::vector<double> target = rng.Dirichlet(m + 1, 1.0);
  const backtest::CostModel model = backtest::CostModel::Uniform(0.0025);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backtest::SolveNetWealthFactor(prev, target, model));
  }
}
BENCHMARK(BM_CostFixedPoint)->Arg(12)->Arg(44);

}  // namespace
}  // namespace ppn

BENCHMARK_MAIN();
