// `train`: steady-state PPN TrainStep at the paper's batch T=32 on the
// Crypto-A preset shape (12 assets, k=30), main thread, OpenMP inner loops
// on. The only workload with tape backward, TCCB backward and Adam.
//
// One operation is one TrainStep: throughput_per_s is steps/s,
// latency_ms.p50 / latency_ms.tail the p50 / p95 step time.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "autograd/ops.h"
#include "backtest/costs.h"
#include "market/presets.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "ppn/feature_nets.h"
#include "ppn/pvm.h"
#include "ppn/reward.h"
#include "ppn/trainer.h"
#include "strategies/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppn;

constexpr int kWarmupSteps = 5;
constexpr int kGoldenSteps = 6;
constexpr uint64_t kModelSeed = 1;

core::TrainerConfig PaperTrainerConfig() {
  core::TrainerConfig config;
  config.batch_size = 32;  // The paper's T.
  // The run's clock ends training, not the step budget.
  config.steps = int64_t{1} << 40;
  config.learning_rate =
      strategies::TrainBudgetFor(RunScale::kQuick, 12).learning_rate;
  config.weight_decay = 1e-3f;  // As strategies/registry.cc trains PPN.
  config.seed = kModelSeed * 31 + 7;
  return config;
}

core::PolicyConfig PpnConfig(int64_t num_assets) {
  return strategies::PaperPolicyConfig(core::PolicyVariant::kPpn, num_assets,
                                       kModelSeed);
}

/// One PPN and its trainer on one dataset, seeded as the strategy
/// registry seeds a PPN cell.
struct TrainRig {
  explicit TrainRig(const market::MarketDataset& dataset)
      : init(kModelSeed * 7919 + 13),
        dropout(kModelSeed * 104729 + 17),
        policy(core::MakePolicy(PpnConfig(dataset.panel.num_assets()), &init,
                                &dropout)),
        trainer(policy.get(), dataset, PaperTrainerConfig()) {}

  Rng init;
  Rng dropout;  // Outlives `policy`, which draws dropout masks from it.
  std::unique_ptr<core::PolicyModule> policy;
  core::PolicyGradientTrainer trainer;
};

bool ParametersFinite(const nn::Module& module) {
  for (const ag::Var& p : module.Parameters()) {
    const float* data = p->value().Data();
    for (int64_t i = 0; i < p->numel(); ++i) {
      if (!std::isfinite(data[i])) return false;
    }
  }
  return true;
}

uint64_t HashParameters(const nn::Module& module, uint64_t hash) {
  for (const ag::Var& p : module.Parameters()) {
    hash = Fnv1a(p->value().Data(), sizeof(float) * p->numel(), hash);
  }
  return hash;
}

/// Checksum of the reward sequence and final parameters of a short run on
/// the unmodified Crypto-A preset.
std::string GoldenChecksum() {
  const market::MarketDataset dataset =
      market::MakeDataset(market::DatasetId::kCryptoA, RunScale::kQuick);
  TrainRig rig(dataset);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kGoldenSteps; ++i) {
    const double reward = rig.trainer.TrainStep();
    hash = Fnv1a(&reward, sizeof(reward), hash);
  }
  return Hex64(HashParameters(*rig.policy, hash));
}

// ----------------------------------------------------- layered replica ----

/// The PPN forward of ppn/policy_network.cc (variant kPpn) written out over
/// the public layer classes, so each layer call can be timed from here.
/// Parameters register in PolicyNetwork's order: `CopyParametersFrom` makes
/// the two networks equal, and the traced run checks they stay bit-equal.
class LayeredPpn : public nn::Module {
 public:
  LayeredPpn(const core::PolicyConfig& config, Rng* init_rng,
             Rng* dropout_rng)
      : config_(config),
        sequential_(config, init_rng),
        block1_(market::kNumPriceFields, config.block1_channels, 1,
                config.num_assets, true, config.dropout, init_rng,
                dropout_rng),
        block2_(config.block1_channels, config.block2_channels, 2,
                config.num_assets, true, config.dropout, init_rng,
                dropout_rng),
        block3_(config.block2_channels, config.block2_channels, 4,
                config.num_assets, true, config.dropout, init_rng,
                dropout_rng),
        conv4_(config.block2_channels, config.block2_channels,
               nn::TimeCollapseConvGeometry(config.window), init_rng),
        decision_(config.lstm_hidden + config.block2_channels + 1, 1,
                  init_rng, /*use_bias=*/false) {
    RegisterSubmodule("sequential", &sequential_);
    RegisterSubmodule("block1", &block1_);
    RegisterSubmodule("block2", &block2_);
    RegisterSubmodule("block3", &block3_);
    RegisterSubmodule("conv4", &conv4_);
    RegisterSubmodule("decision", &decision_);
  }

  const core::PolicyConfig& config() const { return config_; }

  /// Matmul FLOPs of each stream's forward since `ResetFlops` (counted
  /// only while obs is enabled).
  double sequential_flops() const { return sequential_flops_; }
  double correlation_flops() const { return correlation_flops_; }
  void ResetFlops() { sequential_flops_ = correlation_flops_ = 0.0; }

  ag::Var Centered(const ag::Var& windows) const {
    return ag::MulScalar(ag::AddScalar(windows, -1.0f), config_.input_scale);
  }

  ag::Var Sequential(const ag::Var& centered) {
    Scope scope("ppn.seq_net.fwd");
    const double before = matmul_flops_.value();
    ag::Var out = sequential_.Forward(centered);
    sequential_flops_ += matmul_flops_.value() - before;
    return out;
  }

  /// CorrelationInfoNet::Forward, block by block.
  ag::Var Correlation(const ag::Var& centered) {
    Scope scope("ppn.corr_net.fwd");
    const double before = matmul_flops_.value();
    const int64_t batch = centered->value().dim(0);
    ag::Var h = ag::Permute4(centered, {0, 3, 1, 2});
    {
      Scope block("ppn.tccb1.fwd");
      h = block1_.Forward(h);
    }
    {
      Scope block("ppn.tccb2.fwd");
      h = block2_.Forward(h);
    }
    {
      Scope block("ppn.tccb3.fwd");
      h = block3_.Forward(h);
    }
    h = ag::Relu(conv4_.Forward(h));
    correlation_flops_ += matmul_flops_.value() - before;
    return ag::Reshape(ag::Permute4(h, {0, 2, 3, 1}),
                       {batch, config_.num_assets, config_.block2_channels});
  }

  /// PolicyNetwork::Forward after feature extraction.
  ag::Var Decide(const ag::Var& sequential, const ag::Var& correlation,
                 const ag::Var& prev_actions) const {
    Scope scope("ppn.decision.fwd");
    const int64_t batch = sequential->value().dim(0);
    const int64_t m = config_.num_assets;
    const int64_t features = config_.lstm_hidden + config_.block2_channels + 1;
    ag::Var with_prev =
        ag::ConcatVars({ag::ConcatVars({sequential, correlation}, 2),
                        ag::Reshape(prev_actions, {batch, m, 1})},
                       2);
    ag::Var cash_row = ag::Constant(
        Tensor::Full({batch, 1, features}, config_.cash_bias));
    ag::Var full = ag::ConcatVars({cash_row, with_prev}, 1);
    ag::Var scores =
        decision_.Forward(ag::Reshape(full, {batch * (m + 1), features}));
    return ag::SoftmaxRows(ag::Reshape(scores, {batch, m + 1}));
  }

 private:
  core::PolicyConfig config_;
  core::SequentialInfoNet sequential_;
  core::TemporalConvBlock block1_;
  core::TemporalConvBlock block2_;
  core::TemporalConvBlock block3_;
  nn::Conv2dLayer conv4_;
  nn::Linear decision_;
  // This thread's shard: matmuls count on the calling thread.
  obs::Counter& matmul_flops_ = obs::GetCounter("tensor.matmul.flops");
  double sequential_flops_ = 0.0;
  double correlation_flops_ = 0.0;
};

/// Back-propagates `grad` into the graph below `output` through a one-edge
/// root node: ag::Backward takes a scalar root with seed 1, and this root's
/// edge hands `grad` to `output` unchanged.
void BackwardFrom(const ag::Var& output, const Tensor& grad) {
  auto root = std::make_shared<ag::Node>(Tensor::Full({1}, 0.0f), true);
  root->parents = {output};
  root->backward_fn = [grad](ag::Node* node) {
    node->parents[0]->AccumulateGrad(grad);
  };
  ag::Backward(root);
}

/// PolicyGradientTrainer::TrainStep (ppn/trainer.cc) for LayeredPpn, with
/// the backward pass split at the two feature streams so each stream's
/// backward is timed on its own. The split changes no gradient bit: the
/// streams share no parameter, and each stream's nodes run in the same
/// relative order as in the whole-graph backward.
class LayeredTrainer {
 public:
  LayeredTrainer(LayeredPpn* net, const market::MarketDataset& dataset,
                 const core::TrainerConfig& config)
      : net_(net),
        panel_(dataset.panel),
        config_(config),
        first_period_(net->config().window),
        last_period_(dataset.train_end),
        pvm_(dataset.panel.num_periods(), net->config().num_assets),
        rng_(config.seed),
        optimizer_(net->Parameters(), config.learning_rate, 0.9f, 0.999f,
                   1e-8f, config.weight_decay) {}

  double Step() {
    const int64_t batch = config_.batch_size;
    const int64_t m = net_->config().num_assets;
    const int64_t k = net_->config().window;
    const int64_t max_start = last_period_ - batch;
    const int64_t t0 =
        first_period_ + rng_.UniformInt(max_start - first_period_ + 1);

    Tensor windows({batch, m, k, market::kNumPriceFields});
    Tensor prev_actions({batch, m});
    core::RewardInputs inputs;
    inputs.relatives = Tensor({batch, m + 1});
    inputs.prev_hat = Tensor({batch, m + 1});
    const int64_t per_window = m * k * market::kNumPriceFields;
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t t = t0 + b;
      const Tensor window = market::NormalizedWindow(panel_, t - 1, k);
      std::memcpy(windows.MutableData() + b * per_window, window.Data(),
                  sizeof(float) * per_window);
      const std::vector<double>& previous = pvm_.Get(t - 1);
      for (int64_t i = 0; i < m; ++i) {
        prev_actions.MutableData()[b * m + i] =
            static_cast<float>(previous[i + 1]);
      }
      const std::vector<double> x_t = market::PriceRelativesWithCash(panel_, t);
      std::vector<double> prev_hat = previous;
      if (t >= 2) {
        prev_hat = backtest::DriftPortfolio(
            previous, market::PriceRelativesWithCash(panel_, t - 1));
      }
      for (int64_t i = 0; i <= m; ++i) {
        inputs.relatives.MutableData()[b * (m + 1) + i] =
            static_cast<float>(x_t[i]);
        inputs.prev_hat.MutableData()[b * (m + 1) + i] =
            static_cast<float>(prev_hat[i]);
      }
    }

    net_->SetTraining(true);
    net_->ZeroGrad();
    const ag::Var centered = net_->Centered(ag::Constant(windows));
    const ag::Var sequential = net_->Sequential(centered);
    const ag::Var correlation = net_->Correlation(centered);
    // Leaves standing in for the two streams' outputs: the head's backward
    // stops here and leaves each stream's output gradient in them.
    const ag::Var sequential_leaf = ag::Parameter(sequential->value());
    const ag::Var correlation_leaf = ag::Parameter(correlation->value());
    const ag::Var actions = net_->Decide(sequential_leaf, correlation_leaf,
                                         ag::Constant(prev_actions));
    core::RewardBreakdown breakdown;
    ag::Var loss;
    {
      Scope scope("ppn.reward");
      loss = ag::Neg(core::CostSensitiveReward(actions, inputs,
                                               config_.reward, &breakdown));
    }
    {
      Scope scope("autograd.backward");
      ag::Backward(loss);
      {
        Scope stream("ppn.corr_net.bwd");
        BackwardFrom(correlation, correlation_leaf->grad());
      }
      {
        Scope stream("ppn.seq_net.bwd");
        BackwardFrom(sequential, sequential_leaf->grad());
      }
    }
    {
      Scope scope("nn.clip");
      optimizer_.ClipGradNorm(config_.grad_clip);
    }
    {
      Scope scope("nn.adam.step");
      optimizer_.Step();
    }

    for (int64_t b = 0; b < batch; ++b) {
      std::vector<double> action(m + 1);
      for (int64_t i = 0; i <= m; ++i) {
        action[i] = actions->value()[b * (m + 1) + i];
      }
      pvm_.Set(t0 + b, std::move(action));
    }
    return breakdown.total;
  }

 private:
  LayeredPpn* net_;
  const market::OhlcPanel& panel_;
  core::TrainerConfig config_;
  int64_t first_period_;
  int64_t last_period_;
  core::PortfolioVectorMemory pvm_;
  Rng rng_;
  nn::Adam optimizer_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void RunTrain(const Options& options, const Expected& expected,
              Report* report) {
  SetupSampler setups(options.seconds);
  std::unique_ptr<market::MarketDataset> dataset;
  std::unique_ptr<TrainRig> rig;
  setups.Sample([&] {
    dataset = std::make_unique<market::MarketDataset>(
        SeededCryptoA(options.seed));
    rig = std::make_unique<TrainRig>(*dataset);
  });
  auto throwaway_setup = [&] {
    const market::MarketDataset other = SeededCryptoA(options.seed);
    TrainRig other_rig(other);
  };

  for (int i = 0; i < kWarmupSteps; ++i) rig->trainer.TrainStep();
  std::vector<double> step_ms;
  int64_t failed = 0;
  double off_clock_s = 0.0;
  const Clock::time_point start = Clock::now();
  double peak_rss_mb = 0.0;
  while (SecondsSince(start) - off_clock_s < options.seconds) {
    const Clock::time_point step_start = Clock::now();
    const double reward = rig->trainer.TrainStep();
    step_ms.push_back(SecondsSince(step_start) * 1e3);
    // A non-finite gradient norm reaches the parameters through the clip.
    if (!std::isfinite(reward) || !ParametersFinite(*rig->policy)) ++failed;
    // The steady-state footprint, before a throwaway set-up adds to it.
    if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();
    off_clock_s += setups.MaybeSample(SecondsSince(start) - off_clock_s,
                                      throwaway_setup);
  }
  const double wall = SecondsSince(start) - off_clock_s;
  const int64_t steps = static_cast<int64_t>(step_ms.size());
  report->Set("setup_s", setups.Median(), "s");
  report->Attempt(steps, failed);
  report->Set("throughput_per_s", static_cast<double>(steps) / wall, "1/s");
  report->Set("latency_ms.p50", Quantile(step_ms, 0.5), "ms");
  report->Set("latency_ms.tail", Quantile(step_ms, 0.95), "ms");
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
  std::printf("train: %lld steps in %.3f s  train.steps_per_s=%.4f  "
              "train.step_ms.p50=%.3f  train.step_ms.p95=%.3f  "
              "(%lld steps beyond p95)\n",
              static_cast<long long>(steps), wall, steps / wall,
              Quantile(step_ms, 0.5), Quantile(step_ms, 0.95),
              static_cast<long long>(steps / 20));
  if (steps < 200) {
    std::fprintf(stderr, "perfbench: train ran %lld steps; p95 needs 200 "
                 "for ten samples beyond it\n", static_cast<long long>(steps));
  }

  expected.Check(options, "train.golden_checksum", GoldenChecksum(), report);
}

void TraceTrain(const Options& options, double seconds, bool named,
                Report* report) {
  const auto dataset = std::make_unique<market::MarketDataset>(
      SeededCryptoA(options.seed));
  TrainRig rig(*dataset);
  // The replica's dropout stream starts where the real one does, and both
  // draw the same masks in the same order.
  Rng replica_init(0);
  Rng replica_dropout(kModelSeed * 104729 + 17);
  LayeredPpn replica(PpnConfig(dataset->panel.num_assets()), &replica_init,
                     &replica_dropout);
  replica.CopyParametersFrom(*rig.policy);
  LayeredTrainer layered(&replica, *dataset, PaperTrainerConfig());

  int64_t pairs = 0;
  int64_t mismatches = 0;
  int64_t failed = 0;
  double matmul_flops = 0.0;
  double tape_nodes = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;
  // One real TrainStep, timed whole, then the same step on the replica,
  // timed whole and with every layer call timed. Both must return the
  // same reward bits.
  std::vector<double> replica_ms;
  auto step_pair = [&](std::vector<double>* step_ms, bool count) {
    std::optional<CounterDelta> counters;
    if (count) counters.emplace();
    const Clock::time_point start = Clock::now();
    double reward = 0.0;
    {
      Scope scope("ppn.trainer.step");
      reward = rig.trainer.TrainStep();
    }
    step_ms->push_back(SecondsSince(start) * 1e3);
    if (counters) {
      counters->Stop();
      matmul_flops += counters->Counter("tensor.matmul.flops");
      tape_nodes += counters->Counter("autograd.tape.nodes");
      pool_hits += counters->Counter("tensor.pool.hit");
      pool_misses += counters->Counter("tensor.pool.miss");
    }
    const Clock::time_point replica_start = Clock::now();
    double replica_reward = 0.0;
    {
      Scope scope("ppn.replica.step");
      replica_reward = layered.Step();
    }
    replica_ms.push_back(SecondsSince(replica_start) * 1e3);
    if (!SameBits(reward, replica_reward)) ++mismatches;
    if (!std::isfinite(reward)) ++failed;
    ++pairs;
  };

  std::vector<double> untraced_ms;
  for (int i = 0; i < 3; ++i) step_pair(&untraced_ms, false);
  untraced_ms.clear();
  // Untraced segment: the baseline of the tracing overhead.
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 0.3 * seconds) step_pair(&untraced_ms, false);

  LayerTable::Get().Reset();
  replica.ResetFlops();
  replica_ms.clear();
  std::vector<double> traced_ms;
  {
    obs::ScopedTraceEnable tracing;
    start = Clock::now();
    while (SecondsSince(start) < 0.7 * seconds || traced_ms.size() < 10) {
      step_pair(&traced_ms, true);
    }
  }
  if (mismatches > 0) {
    report->Fail("train: " + std::to_string(mismatches) +
                 " layered steps differ from TrainStep");
  }
  if (HashParameters(*rig.policy, 0) != HashParameters(replica, 0)) {
    report->Fail("train: layered replica parameters differ from TrainStep's");
  }
  report->Attempt(pairs, failed);

  const LayerTable& table = LayerTable::Get();
  const double step_ms = Mean(traced_ms);
  const double replica_step_ms = Mean(replica_ms);
  const double steps = static_cast<double>(traced_ms.size());
  report->Set("ppn.trainer.step_ms", step_ms, "ms");
  report->Set("ppn.replica.step_ms", replica_step_ms, "ms");
  report->Set("ppn.replica.step_ratio", replica_step_ms / step_ms, "ratio");
  // The rows are disjoint: autograd.backward counts its self time (the
  // head and reward backward), without the two stream-bwd rows under it.
  double attributed_ms = 0.0;
  auto row = [&](const std::string& name, double ms) {
    attributed_ms += ms;
    report->Set(name + "_ms", ms, "ms");
  };
  for (const char* name :
       {"ppn.seq_net.fwd", "ppn.corr_net.fwd", "ppn.decision.fwd",
        "ppn.reward", "ppn.seq_net.bwd", "ppn.corr_net.bwd", "nn.clip",
        "nn.adam.step"}) {
    row(name, table.MeanSeconds(name) * 1e3);
  }
  row("autograd.backward", table.MeanSelfSeconds("autograd.backward") * 1e3);
  for (const char* name : {"ppn.tccb1.fwd", "ppn.tccb2.fwd", "ppn.tccb3.fwd"}) {
    report->Set(std::string(name) + "_ms", table.MeanSeconds(name) * 1e3,
                "ms");
  }
  // Rows and remainder both come from the replica's own step.
  report->Set("ppn.trainer.unattributed_ms", replica_step_ms - attributed_ms,
              "ms");
  report->Set("ppn.trainer.attributed_ratio", attributed_ms / replica_step_ms,
              "ratio");
  report->Set("ppn.seq_net.gflop_per_s",
              replica.sequential_flops() /
                  table.TotalSeconds("ppn.seq_net.fwd") / 1e9,
              "GFLOP/s");
  report->Set("ppn.corr_net.gflop_per_s",
              replica.correlation_flops() /
                  table.TotalSeconds("ppn.corr_net.fwd") / 1e9,
              "GFLOP/s");
  report->Set("tensor.matmul.flops_per_step", matmul_flops / steps, "FLOP");
  report->Set("autograd.tape.nodes_per_step", tape_nodes / steps, "count");
  report->Set("tensor.pool.hit_ratio",
              pool_hits / std::max(pool_hits + pool_misses, 1.0), "ratio");
  if (named) {
    report->Set("obs.trace_overhead_ratio",
                Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5),
                "ratio");
  }
  std::printf("train (traced): %lld step pairs, TrainStep %.3f ms, replica "
              "step %.3f ms (%.3f x TrainStep), layer rows %.3f ms (%.1f%% "
              "of the replica step)\n",
              static_cast<long long>(traced_ms.size()), step_ms,
              replica_step_ms, replica_step_ms / step_ms, attributed_ms,
              100.0 * attributed_ms / replica_step_ms);
}

}  // namespace perfbench
