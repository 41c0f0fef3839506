// Integration test: the trainer's obs counters must match the steps it
// ran, and turning instrumentation on must not change the training
// trajectory. (The per-step reward breakdown is checked through the run
// log, obs/run_log_test.cc.)

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "market/generator.h"
#include "obs/stats.h"
#include "ppn/trainer.h"

namespace ppn::core {
namespace {

market::MarketDataset SmallDataset() {
  market::SyntheticMarketConfig config;
  config.num_assets = 4;
  config.num_periods = 400;
  config.seed = 9;
  config.late_listing_fraction = 0.0;
  config.momentum = 0.25;
  config.lead_lag_strength = 0.5;
  market::SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("tiny", 0.8);
}

PolicyConfig SmallPolicyConfig() {
  PolicyConfig config;
  config.variant = PolicyVariant::kPpn;
  config.num_assets = 4;
  config.window = 10;
  config.lstm_hidden = 4;
  config.block1_channels = 3;
  config.block2_channels = 4;
  config.seed = 3;
  return config;
}

TrainerConfig SmallTrainerConfig() {
  TrainerConfig config;
  config.batch_size = 8;
  config.steps = 30;
  config.seed = 5;
  return config;
}

std::vector<double> RunSteps(int steps) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  std::vector<double> rewards;
  for (int step = 0; step < steps; ++step) {
    rewards.push_back(trainer.TrainStep());
  }
  return rewards;
}

TEST(TrainerObsTest, StepCountersMatchTrainedSteps) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  obs::ScopedObsEnable enable;
  obs::ResetAll();
  constexpr int kSteps = 12;
  RunSteps(kSteps);

  const obs::Snapshot snapshot = obs::TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("trainer.steps"), kSteps);
  ASSERT_EQ(snapshot.histograms.count("trainer.step.seconds"), 1u);
  EXPECT_EQ(snapshot.histograms.at("trainer.step.seconds").count, kSteps);
  // Training drove the policy's kernels, so the kernel counters are live.
  EXPECT_GT(snapshot.counters.at("tensor.matmul.calls"), 0.0);
  EXPECT_GT(snapshot.counters.at("tensor.matmul.flops"), 0.0);
  obs::ResetAll();
}

TEST(TrainerObsTest, InstrumentationDoesNotPerturbTraining) {
  std::vector<double> with_obs;
  {
    obs::ScopedObsEnable enable;
    obs::ResetAll();
    with_obs = RunSteps(6);
    obs::ResetAll();
  }
  std::vector<double> without_obs;
  {
    obs::ScopedObsEnable disable(false);
    without_obs = RunSteps(6);
  }
  ASSERT_EQ(with_obs.size(), without_obs.size());
  for (size_t i = 0; i < with_obs.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_obs[i], without_obs[i]) << "step " << i;
  }
}

}  // namespace
}  // namespace ppn::core
