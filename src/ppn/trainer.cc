#include "ppn/trainer.h"

#include <chrono>
#include <cmath>

#include "backtest/costs.h"
#include "ckpt/state_io.h"
#include "common/check.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace ppn::core {

void TrainerConfig::Validate() const {
  PPN_CHECK_GT(batch_size, 0);
  PPN_CHECK_GT(steps, 0);
  PPN_CHECK_GT(learning_rate, 0.0f);
  PPN_CHECK_GE(weight_decay, 0.0f);
  PPN_CHECK_GT(grad_clip, 0.0);
  PPN_CHECK(geometric_p >= 0.0 && geometric_p < 1.0)
      << "geometric_p out of [0, 1): " << geometric_p;
  PPN_CHECK(adversarial_epsilon >= 0.0 && adversarial_epsilon < 1.0)
      << "adversarial_epsilon out of [0, 1): " << adversarial_epsilon;
  reward.Validate();
}

PolicyGradientTrainer::PolicyGradientTrainer(
    PolicyModule* policy, const market::MarketDataset& dataset,
    TrainerConfig config)
    : policy_(policy),
      config_(std::move(config)),
      num_assets_(policy->config().num_assets),
      window_(policy->config().window),
      first_period_(policy->config().window),
      last_period_(dataset.train_end),
      pvm_(dataset.panel.num_periods(), policy->config().num_assets),
      pvm_write_step_(static_cast<size_t>(dataset.panel.num_periods()), -1),
      rng_(config_.seed) {
  config_.Validate();
  PPN_CHECK(policy != nullptr);
  PPN_CHECK_EQ(dataset.panel.num_assets(), num_assets_);
  PPN_CHECK_GT(last_period_ - first_period_, config_.batch_size)
      << "training range too short for the batch size";
  // Precompute decision windows (data through t-1 for a decision at t) and
  // price relatives over the training range.
  windows_.reserve(last_period_ - first_period_);
  for (int64_t t = first_period_; t < last_period_; ++t) {
    windows_.push_back(market::NormalizedWindow(dataset.panel, t - 1, window_));
  }
  relatives_.resize(last_period_);
  for (int64_t t = 1; t < last_period_; ++t) {
    relatives_[t] = market::PriceRelativesWithCash(dataset.panel, t);
  }
  optimizer_ = std::make_unique<nn::Adam>(
      policy_->Parameters(), config_.learning_rate, 0.9f, 0.999f, 1e-8f,
      config_.weight_decay);
}

Tensor PolicyGradientTrainer::BatchWindows(int64_t t0) const {
  const int64_t batch = config_.batch_size;
  Tensor out({batch, num_assets_, window_, market::kNumPriceFields});
  float* po = out.MutableData();
  const int64_t per_window =
      num_assets_ * window_ * market::kNumPriceFields;
  for (int64_t b = 0; b < batch; ++b) {
    const Tensor& w = windows_[t0 - first_period_ + b];
    const float* pw = w.Data();
    for (int64_t i = 0; i < per_window; ++i) po[b * per_window + i] = pw[i];
  }
  return out;
}

double PolicyGradientTrainer::TrainStep() {
  obs::ScopedTimer step_timer("trainer.step.seconds");
  obs::Span step_span("trainer.step");
  step_span.AddArg("step", static_cast<double>(steps_done_));
  // The wall clock for the run log is read explicitly (not via the
  // ScopedTimer) so the record carries this step's own duration.
  const bool logging = run_log_ != nullptr;
  const auto step_start = logging ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  const int64_t batch = config_.batch_size;
  const int64_t min_start = first_period_;
  const int64_t max_start = last_period_ - batch;  // Inclusive.
  PPN_CHECK_GE(max_start, min_start);

  // Sample the batch start, optionally geometrically biased toward the end
  // of the training range (EIIE's online stochastic batch scheme).
  int64_t t0;
  if (config_.geometric_p > 0.0) {
    const double u = rng_.Uniform();
    const int64_t offset = static_cast<int64_t>(
        std::log(u > 1e-12 ? u : 1e-12) / std::log1p(-config_.geometric_p));
    t0 = max_start - std::min(offset, max_start - min_start);
  } else {
    t0 = min_start + rng_.UniformInt(max_start - min_start + 1);
  }

  // Assemble batch inputs.
  Tensor windows = BatchWindows(t0);
  Tensor prev_actions({batch, num_assets_});
  RewardInputs inputs;
  inputs.relatives = Tensor({batch, num_assets_ + 1});
  inputs.prev_hat = Tensor({batch, num_assets_ + 1});
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t t = t0 + b;
    const std::vector<double>& previous = pvm_.Get(t - 1);
    for (int64_t i = 0; i < num_assets_; ++i) {
      prev_actions.MutableData()[b * num_assets_ + i] =
          static_cast<float>(previous[i + 1]);
    }
    const std::vector<double>& x_t = relatives_[t];
    // Drift the PVM action through the previous period's relative.
    std::vector<double> prev_hat = previous;
    if (t >= 2) {
      prev_hat = backtest::DriftPortfolio(previous, relatives_[t - 1]);
    }
    for (int64_t i = 0; i <= num_assets_; ++i) {
      double relative = x_t[i];
      // Return-perturbation adversary: risk assets only, cash stays 1.
      if (config_.adversarial_epsilon > 0.0 && i >= 1) {
        relative *= std::exp(config_.adversarial_epsilon * rng_.Normal());
      }
      inputs.relatives.MutableData()[b * (num_assets_ + 1) + i] =
          static_cast<float>(relative);
      inputs.prev_hat.MutableData()[b * (num_assets_ + 1) + i] =
          static_cast<float>(prev_hat[i]);
    }
  }

  // Forward + reward + backward + step.
  policy_->SetTraining(true);
  policy_->ZeroGrad();
  ag::Var actions = policy_->Forward(ag::Constant(windows),
                                     ag::Constant(prev_actions));
  RewardBreakdown breakdown;
  ag::Var reward = CostSensitiveReward(actions, inputs, config_.reward,
                                       &breakdown);
  ag::Var loss = ag::Neg(reward);
  ag::Backward(loss);
  const double grad_norm = optimizer_->ClipGradNorm(config_.grad_clip);
  optimizer_->Step();

  // Staleness of the recursive a_{t-1} inputs this batch consumed: how
  // many steps ago each row's PVM entry was last rewritten (reads the
  // pre-update write steps, so it describes what Forward actually saw).
  double pvm_staleness = 0.0;
  if (logging) {
    for (int64_t b = 0; b < batch; ++b) {
      pvm_staleness += static_cast<double>(
          steps_done_ - pvm_write_step_[static_cast<size_t>(t0 + b - 1)]);
    }
    pvm_staleness /= static_cast<double>(batch);
  }

  // Refresh the portfolio vector memory with the new actions.
  for (int64_t b = 0; b < batch; ++b) {
    std::vector<double> action(num_assets_ + 1);
    for (int64_t i = 0; i <= num_assets_; ++i) {
      action[i] = actions->value()[b * (num_assets_ + 1) + i];
    }
    pvm_.Set(t0 + b, std::move(action));
    pvm_write_step_[static_cast<size_t>(t0 + b)] = steps_done_;
  }
  if (obs::Enabled()) {
    static thread_local obs::Counter& steps =
        obs::GetCounter("trainer.steps");
    steps.Add(1.0);
  }
  // Accumulate the convergence tail (final 10% of the configured run) in
  // members so the indicator is part of the checkpointed state.
  const int64_t tail_start =
      config_.steps - std::max<int64_t>(config_.steps / 10, 1);
  if (steps_done_ >= tail_start && steps_done_ < config_.steps) {
    tail_sum_ += breakdown.total;
    ++tail_count_;
  }
  step_span.AddArg("reward", breakdown.total);
  step_span.AddArg("grad_norm", grad_norm);
  if (logging) {
    obs::RunLogRecord record;
    record.step = steps_done_;
    record.reward_total = breakdown.total;
    record.reward_log_return = breakdown.mean_log_return;
    record.reward_variance = breakdown.variance;
    record.reward_turnover = breakdown.mean_turnover;
    record.grad_norm = grad_norm;
    record.pvm_staleness = pvm_staleness;
    record.solver_iterations = static_cast<double>(breakdown.solver_iterations);
    record.step_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - step_start)
                              .count();
    run_log_->Append(record);
  }
  ++steps_done_;
  return breakdown.total;
}

double PolicyGradientTrainer::Train() {
  while (steps_done_ < config_.steps) TrainStep();
  return tail_mean();
}

void PolicyGradientTrainer::SaveState(ckpt::CheckpointWriter* writer,
                                      const Rng* dropout_rng) const {
  PPN_CHECK(writer != nullptr);
  writer->BeginSection("module");
  policy_->SaveState(&writer->writer());

  writer->BeginSection("optimizer");
  optimizer_->SaveState(&writer->writer());

  writer->BeginSection("rng");
  ckpt::WriteRng(&writer->writer(), rng_);
  writer->writer().WriteU8(dropout_rng != nullptr ? 1 : 0);
  if (dropout_rng != nullptr) {
    ckpt::WriteRng(&writer->writer(), *dropout_rng);
  }

  writer->BeginSection("pvm");
  writer->writer().WriteI64(pvm_.num_periods());
  writer->writer().WriteI64(pvm_.num_assets());
  for (int64_t t = 0; t < pvm_.num_periods(); ++t) {
    ckpt::WriteDoubleVector(&writer->writer(), pvm_.Get(t));
  }

  writer->BeginSection("trainer");
  // Config echo: a checkpoint only makes sense against the run that wrote
  // it, so the load path cross-checks these against the live config.
  writer->writer().WriteI64(config_.batch_size);
  writer->writer().WriteI64(config_.steps);
  writer->writer().WriteU64(config_.seed);
  writer->writer().WriteI64(steps_done_);
  writer->writer().WriteF64(tail_sum_);
  writer->writer().WriteI64(tail_count_);
}

bool PolicyGradientTrainer::LoadState(ckpt::CheckpointReader* reader,
                                      Rng* dropout_rng, std::string* error) {
  PPN_CHECK(reader != nullptr);
  PPN_CHECK(error != nullptr);
  if (!reader->EnterSection("module", error)) return false;
  if (!policy_->LoadState(&reader->reader(), error)) return false;

  if (!reader->EnterSection("optimizer", error)) return false;
  if (!optimizer_->LoadState(&reader->reader(), error)) return false;

  if (!reader->EnterSection("rng", error)) return false;
  uint8_t has_dropout = 0;
  if (!ckpt::ReadRng(&reader->reader(), &rng_) ||
      !reader->reader().ReadU8(&has_dropout)) {
    *error = "trainer state: short read in rng section";
    return false;
  }
  if ((has_dropout != 0) != (dropout_rng != nullptr)) {
    *error = has_dropout != 0
                 ? "trainer state: checkpoint has a dropout rng stream but "
                   "none was supplied"
                 : "trainer state: dropout rng supplied but the checkpoint "
                   "has no stream for it";
    return false;
  }
  if (dropout_rng != nullptr &&
      !ckpt::ReadRng(&reader->reader(), dropout_rng)) {
    *error = "trainer state: short read in dropout rng stream";
    return false;
  }

  if (!reader->EnterSection("pvm", error)) return false;
  int64_t num_periods = 0;
  int64_t num_assets = 0;
  if (!reader->reader().ReadI64(&num_periods) ||
      !reader->reader().ReadI64(&num_assets)) {
    *error = "trainer state: short read in pvm header";
    return false;
  }
  if (num_periods != pvm_.num_periods() || num_assets != pvm_.num_assets()) {
    *error = "trainer state: pvm shape mismatch (stored " +
             std::to_string(num_periods) + "x" + std::to_string(num_assets) +
             ", live " + std::to_string(pvm_.num_periods()) + "x" +
             std::to_string(pvm_.num_assets()) + ")";
    return false;
  }
  for (int64_t t = 0; t < num_periods; ++t) {
    std::vector<double> action;
    if (!ckpt::ReadDoubleVector(&reader->reader(), &action) ||
        action.size() != static_cast<size_t>(num_assets) + 1) {
      *error = "trainer state: bad pvm entry at period " + std::to_string(t);
      return false;
    }
    pvm_.Set(t, std::move(action));
  }

  if (!reader->EnterSection("trainer", error)) return false;
  int64_t batch_size = 0;
  int64_t steps = 0;
  uint64_t seed = 0;
  int64_t steps_done = 0;
  double tail_sum = 0.0;
  int64_t tail_count = 0;
  if (!reader->reader().ReadI64(&batch_size) ||
      !reader->reader().ReadI64(&steps) || !reader->reader().ReadU64(&seed) ||
      !reader->reader().ReadI64(&steps_done) ||
      !reader->reader().ReadF64(&tail_sum) ||
      !reader->reader().ReadI64(&tail_count)) {
    *error = "trainer state: short read in trainer section";
    return false;
  }
  if (batch_size != config_.batch_size || steps != config_.steps ||
      seed != config_.seed) {
    *error = "trainer state: config mismatch (checkpoint written with "
             "batch_size=" +
             std::to_string(batch_size) + " steps=" + std::to_string(steps) +
             " seed=" + std::to_string(seed) + ")";
    return false;
  }
  if (steps_done < 0 || steps_done > config_.steps || tail_count < 0) {
    *error = "trainer state: implausible step counters";
    return false;
  }
  steps_done_ = steps_done;
  tail_sum_ = tail_sum;
  tail_count_ = tail_count;
  return reader->Finish(error);
}

}  // namespace ppn::core
