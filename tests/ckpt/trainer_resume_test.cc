// Kill/resume bit-identity: training N steps, checkpointing mid-run,
// restoring into FRESH objects, and continuing must reproduce the
// uninterrupted run's final parameters, PVM, RNG-dependent reward
// sequence, and convergence tail — bit for bit. This is the checkpoint
// subsystem's core contract (exact state capture: parameters, Adam
// moments, RNG streams, PVM, step counters).

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "market/generator.h"
#include "ppn/ddpg.h"
#include "ppn/trainer.h"
#include "test_dir.h"

namespace ppn::core {
namespace {

market::MarketDataset SmallDataset() {
  market::SyntheticMarketConfig config;
  config.num_assets = 4;
  config.num_periods = 400;
  config.seed = 9;
  config.late_listing_fraction = 0.0;
  market::SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("tiny", 0.8);
}

PolicyConfig SmallPolicyConfig(int64_t assets) {
  PolicyConfig config;
  config.variant = PolicyVariant::kPpn;
  config.num_assets = assets;
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

/// Bitwise parameter comparison (memcmp on the float payloads, so NaNs
/// and signed zeros would also be caught).
void ExpectBitIdenticalParameters(const nn::Module& a, const nn::Module& b) {
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    SCOPED_TRACE("parameter " + std::to_string(i));
    ASSERT_EQ(pa[i]->numel(), pb[i]->numel());
    EXPECT_EQ(std::memcmp(pa[i]->value().Data(), pb[i]->value().Data(),
                          sizeof(float) * pa[i]->numel()),
              0);
  }
}

TEST(TrainerResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const market::MarketDataset dataset = SmallDataset();
  const std::string ckpt_path = test::FreshDir("ppn") + "/mid.ckpt";
  constexpr int64_t kInterruptAt = 13;

  // Uninterrupted reference run.
  Rng ref_init(1);
  Rng ref_dropout(2);
  auto ref_policy = MakePolicy(SmallPolicyConfig(4), &ref_init, &ref_dropout);
  PolicyGradientTrainer ref_trainer(ref_policy.get(), dataset,
                                    SmallTrainerConfig());
  std::vector<double> ref_rewards;
  while (ref_trainer.steps_done() < SmallTrainerConfig().steps) {
    ref_rewards.push_back(ref_trainer.TrainStep());
  }

  // Interrupted run: train to the interrupt point, checkpoint, and drop
  // everything (simulating a kill).
  {
    Rng init(1);
    Rng dropout(2);
    auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
    PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
    std::vector<double> rewards;
    for (int64_t step = 0; step < kInterruptAt; ++step) {
      rewards.push_back(trainer.TrainStep());
    }
    // The pre-interrupt prefix itself must match the reference.
    for (int64_t step = 0; step < kInterruptAt; ++step) {
      EXPECT_EQ(rewards[step], ref_rewards[step]) << "pre-kill step " << step;
    }
    ckpt::CheckpointWriter writer(ckpt_path);
    trainer.SaveState(&writer, &dropout);
    std::string error;
    ASSERT_TRUE(writer.Commit(&error)) << error;
  }

  // Fresh process simulation: new RNGs, new policy, new trainer — then
  // restore and finish the run.
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  // Desynchronize the fresh dropout stream on purpose: restore must
  // overwrite it with the checkpointed state.
  dropout.Uniform();
  ckpt::CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(ckpt_path, &error)) << error;
  ASSERT_TRUE(trainer.LoadState(&reader, &dropout, &error)) << error;
  EXPECT_EQ(trainer.steps_done(), kInterruptAt);

  std::vector<double> resumed_rewards;
  while (trainer.steps_done() < SmallTrainerConfig().steps) {
    resumed_rewards.push_back(trainer.TrainStep());
  }
  ASSERT_EQ(resumed_rewards.size(), ref_rewards.size() - kInterruptAt);
  for (size_t i = 0; i < resumed_rewards.size(); ++i) {
    EXPECT_EQ(resumed_rewards[i], ref_rewards[kInterruptAt + i])
        << "post-resume step " << i;
  }
  EXPECT_EQ(trainer.tail_mean(), ref_trainer.tail_mean());
  ExpectBitIdenticalParameters(*policy, *ref_policy);
  // PVM contents must match exactly as well.
  for (int64_t t = 0; t < trainer.pvm().num_periods(); ++t) {
    EXPECT_EQ(trainer.pvm().Get(t), ref_trainer.pvm().Get(t)) << "t=" << t;
  }
}

TEST(TrainerResumeTest, LoadRejectsConfigMismatch) {
  const market::MarketDataset dataset = SmallDataset();
  const std::string ckpt_path = test::FreshDir("mismatch") + "/mid.ckpt";
  {
    Rng init(1);
    Rng dropout(2);
    auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
    PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
    trainer.TrainStep();
    ckpt::CheckpointWriter writer(ckpt_path);
    trainer.SaveState(&writer, &dropout);
    std::string error;
    ASSERT_TRUE(writer.Commit(&error)) << error;
  }
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  TrainerConfig other = SmallTrainerConfig();
  other.seed = 6;  // Different stream: the checkpoint is for another run.
  PolicyGradientTrainer trainer(policy.get(), dataset, other);
  ckpt::CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(ckpt_path, &error)) << error;
  EXPECT_FALSE(trainer.LoadState(&reader, &dropout, &error));
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST(TrainerResumeTest, LoadRejectsMissingDropoutStream) {
  const market::MarketDataset dataset = SmallDataset();
  const std::string ckpt_path = test::FreshDir("dropout") + "/mid.ckpt";
  {
    Rng init(1);
    Rng dropout(2);
    auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
    PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
    ckpt::CheckpointWriter writer(ckpt_path);
    trainer.SaveState(&writer, &dropout);
    std::string error;
    ASSERT_TRUE(writer.Commit(&error)) << error;
  }
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  ckpt::CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(ckpt_path, &error)) << error;
  EXPECT_FALSE(trainer.LoadState(&reader, /*dropout_rng=*/nullptr, &error));
  EXPECT_NE(error.find("dropout"), std::string::npos) << error;
}

TEST(DdpgResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const market::MarketDataset dataset = [] {
    market::SyntheticMarketConfig config;
    config.num_assets = 3;
    config.num_periods = 250;
    config.seed = 31;
    config.late_listing_fraction = 0.0;
    market::SyntheticMarketGenerator generator(config);
    return generator.GenerateDataset("ddpg-tiny", 0.8);
  }();
  PolicyConfig policy_config = SmallPolicyConfig(3);
  policy_config.window = 8;
  DdpgConfig ddpg_config;
  ddpg_config.steps = 16;
  ddpg_config.warmup = 6;
  ddpg_config.batch_size = 4;
  ddpg_config.seed = 7;
  const std::string ckpt_path = test::FreshDir("ddpg") + "/mid.ckpt";
  constexpr int64_t kInterruptAt = 7;

  // Uninterrupted reference run.
  Rng ref_init(1);
  Rng ref_dropout(2);
  auto ref_actor = MakePolicy(policy_config, &ref_init, &ref_dropout);
  DdpgTrainer ref_trainer(ref_actor.get(), dataset, ddpg_config);
  std::vector<double> ref_rewards;
  while (ref_trainer.steps_done() < ddpg_config.steps) {
    ref_rewards.push_back(ref_trainer.TrainStep());
  }

  // Interrupted run: stop past warmup (so Adam moments, target nets, and
  // the replay buffer all carry real state), checkpoint, drop everything.
  {
    Rng init(1);
    Rng dropout(2);
    auto actor = MakePolicy(policy_config, &init, &dropout);
    DdpgTrainer trainer(actor.get(), dataset, ddpg_config);
    for (int64_t step = 0; step < kInterruptAt; ++step) trainer.TrainStep();
    ckpt::CheckpointWriter writer(ckpt_path);
    trainer.SaveState(&writer, &dropout);
    std::string error;
    ASSERT_TRUE(writer.Commit(&error)) << error;
  }

  // Fresh objects, restore, finish.
  Rng init(1);
  Rng dropout(2);
  auto actor = MakePolicy(policy_config, &init, &dropout);
  DdpgTrainer trainer(actor.get(), dataset, ddpg_config);
  ckpt::CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(ckpt_path, &error)) << error;
  ASSERT_TRUE(trainer.LoadState(&reader, &dropout, &error)) << error;
  EXPECT_EQ(trainer.steps_done(), kInterruptAt);

  std::vector<double> resumed_rewards;
  while (trainer.steps_done() < ddpg_config.steps) {
    resumed_rewards.push_back(trainer.TrainStep());
  }
  ASSERT_EQ(resumed_rewards.size(), ref_rewards.size() - kInterruptAt);
  for (size_t i = 0; i < resumed_rewards.size(); ++i) {
    EXPECT_EQ(resumed_rewards[i], ref_rewards[kInterruptAt + i])
        << "post-resume step " << i;
  }
  EXPECT_EQ(trainer.tail_mean(), ref_trainer.tail_mean());
  // The actor (including every Polyak-averaged target-network effect baked
  // into later updates) must land on identical bits.
  ExpectBitIdenticalParameters(*actor, *ref_actor);
}

}  // namespace
}  // namespace ppn::core
