#include <cmath>

#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "ckpt/checkpoint.h"
#include "common/math_utils.h"
#include "market/presets.h"
#include "ppn/strategy_adapter.h"
#include "ppn/trainer.h"
#include "strategies/registry.h"
#include "test_dir.h"

namespace ppn {
namespace {

// Shared smoke-scale dataset: built once, reused across tests.
const market::MarketDataset& SmokeDataset() {
  static const market::MarketDataset* dataset = [] {
    auto* d = new market::MarketDataset(
        market::MakeDataset(market::DatasetId::kCryptoA, RunScale::kSmoke));
    return d;
  }();
  return *dataset;
}

core::PolicyConfig SmokePolicyConfig(core::PolicyVariant variant,
                                     int64_t assets) {
  core::PolicyConfig config;
  config.variant = variant;
  config.num_assets = assets;
  config.window = 12;
  config.lstm_hidden = 6;
  config.block1_channels = 4;
  config.block2_channels = 6;
  config.seed = 11;
  return config;
}

// Trains a variant briefly and backtests it on the smoke dataset.
backtest::Metrics TrainAndEvaluate(core::PolicyVariant variant,
                                   double gamma, double lambda,
                                   double cost_rate, int steps = 120) {
  const market::MarketDataset& dataset = SmokeDataset();
  Rng init(42);
  Rng dropout(43);
  auto policy = core::MakePolicy(
      SmokePolicyConfig(variant, dataset.panel.num_assets()), &init, &dropout);
  core::TrainerConfig tc;
  tc.batch_size = 16;
  tc.steps = steps;
  tc.seed = 7;
  tc.reward.gamma = gamma;
  tc.reward.lambda = lambda;
  tc.reward.cost_rate = cost_rate;
  core::PolicyGradientTrainer trainer(policy.get(), dataset, tc);
  trainer.Train();
  core::PolicyStrategy strategy(policy.get(), core::VariantName(variant));
  return backtest::ComputeMetrics(
      backtest::RunOnTestRange(&strategy, dataset, cost_rate));
}

TEST(EndToEndTest, FullPipelineProducesFiniteMetrics) {
  const backtest::Metrics metrics = TrainAndEvaluate(
      core::PolicyVariant::kPpn, 1e-3, 1e-4, 0.0025);
  EXPECT_TRUE(std::isfinite(metrics.apv));
  EXPECT_GT(metrics.apv, 0.0);
  EXPECT_GE(metrics.turnover, 0.0);
  EXPECT_LE(metrics.mdd_pct, 100.0);
}

TEST(EndToEndTest, LargeGammaSuppressesTurnover) {
  // The paper's Table 6 shape: a strongly constrained policy must trade
  // far less than an unconstrained one.
  const backtest::Metrics aggressive = TrainAndEvaluate(
      core::PolicyVariant::kPpn, 0.0, 1e-4, 0.0025, /*steps=*/250);
  const backtest::Metrics passive = TrainAndEvaluate(
      core::PolicyVariant::kPpn, 0.5, 1e-4, 0.0025, /*steps=*/250);
  EXPECT_LT(passive.turnover, aggressive.turnover);
}

TEST(EndToEndTest, ClassicBaselinesRunOnPresetDataset) {
  const market::MarketDataset& dataset = SmokeDataset();
  for (const std::string& name : strategies::ClassicBaselineNames()) {
    auto strategy = strategies::MakeStrategy({.name = name}, dataset);
    const backtest::BacktestRecord record =
        backtest::RunOnTestRange(strategy.get(), dataset, 0.0025);
    EXPECT_GT(record.wealth_curve.back(), 0.0) << name;
  }
}

TEST(EndToEndTest, AllVariantsSurviveTrainingAndBacktest) {
  for (const core::PolicyVariant variant : core::Table4Variants()) {
    const backtest::Metrics metrics =
        TrainAndEvaluate(variant, 1e-3, 1e-4, 0.0025, /*steps=*/25);
    EXPECT_TRUE(std::isfinite(metrics.apv)) << core::VariantName(variant);
  }
}

TEST(EndToEndTest, SavedPolicyReproducesDecisions) {
  const market::MarketDataset& dataset = SmokeDataset();
  const int64_t m = dataset.panel.num_assets();
  Rng init(42);
  Rng dropout(43);
  auto policy = core::MakePolicy(
      SmokePolicyConfig(core::PolicyVariant::kPpn, m), &init, &dropout);
  core::TrainerConfig tc;
  tc.batch_size = 16;
  tc.steps = 10;
  core::PolicyGradientTrainer trainer(policy.get(), dataset, tc);
  trainer.Train();
  const std::string path = test::FreshDir("policy") + "/ppn_policy.ckpt";
  std::string error;
  {
    ckpt::CheckpointWriter writer(path);
    writer.BeginSection("policy");
    policy->SaveState(&writer.writer());
    ASSERT_TRUE(writer.Commit(&error)) << error;
  }

  Rng init2(999);
  Rng dropout2(998);
  auto restored = core::MakePolicy(
      SmokePolicyConfig(core::PolicyVariant::kPpn, m), &init2, &dropout2);
  ckpt::CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  ASSERT_TRUE(reader.EnterSection("policy", &error)) << error;
  ASSERT_TRUE(restored->LoadState(&reader.reader(), &error)) << error;
  ASSERT_TRUE(reader.Finish(&error)) << error;

  core::PolicyStrategy s1(policy.get(), "orig");
  core::PolicyStrategy s2(restored.get(), "restored");
  const backtest::BacktestRecord r1 =
      backtest::RunOnTestRange(&s1, dataset, 0.0025);
  const backtest::BacktestRecord r2 =
      backtest::RunOnTestRange(&s2, dataset, 0.0025);
  ASSERT_EQ(r1.actions.size(), r2.actions.size());
  for (size_t t = 0; t < r1.actions.size(); ++t) {
    for (size_t i = 0; i < r1.actions[t].size(); ++i) {
      EXPECT_NEAR(r1.actions[t][i], r2.actions[t][i], 1e-6);
    }
  }
}

}  // namespace
}  // namespace ppn
