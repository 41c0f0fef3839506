#ifndef PPN_STRATEGIES_REGISTRY_H_
#define PPN_STRATEGIES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "backtest/strategy.h"
#include "common/run_scale.h"
#include "market/dataset.h"
#include "ppn/config.h"
#include "ppn/policy_module.h"

/// \file
/// The unified strategy registry: one factory covering every policy the
/// paper evaluates — the twelve classic OLPS baselines (Tables 3 and 8),
/// the PPN-family neural policies and the EIIE baseline (trained by direct
/// policy gradient), and the PPN-AC actor–critic ablation (trained by
/// DDPG, Table 9). Bench binaries, the experiment runner, and the CLI all
/// construct strategies exclusively through `MakeStrategy`; direct
/// construction of strategy types outside this library is deprecated.

namespace ppn::strategies {

/// Declarative description of one strategy. For classic baselines only
/// `name` matters; the remaining knobs configure neural training.
struct StrategySpec {
  /// Registry key: a classic baseline name ("UBAH" ... "WMAMR"), a neural
  /// variant name ("PPN", "PPN-I", ..., "EIIE"), or "PPN-AC" (the DDPG
  /// ablation).
  std::string name;
  /// Display/grouping label; empty means "use `name`". Grid sweeps that
  /// vary a knob of the same variant (e.g. the γ sweep) must give each
  /// spec a distinct label: the experiment runner keys cells (and derives
  /// their RNG seeds) by label.
  std::string label{};

  // --- Neural training knobs (ignored for classic baselines). ------------
  double gamma = 1e-3;        ///< Cost-constraint weight γ of Eq. 1.
  double lambda = 1e-4;       ///< Risk-penalty weight λ of Eq. 1.
  double cost_rate = 0.0025;  ///< ψ in the training reward.
  int64_t base_steps = 400;   ///< Pre-scale training-step budget.
  uint64_t seed = 1;          ///< Root seed of every RNG stream in the run.
  RunScale scale = RunScale::kQuick;  ///< Budget tier (see run_scale.h).

  /// When non-empty AND obs is enabled, training streams one
  /// `obs::RunLogRecord` per step to this JSONL path (see
  /// obs/run_log.h). Telemetry only — never affects training results.
  /// Ignored for classic baselines (nothing trains).
  std::string runlog_path{};

  /// The label used in tables and cell keys.
  const std::string& display() const { return label.empty() ? name : label; }

  /// Checks the spec is well-formed: known `name`, γ/λ ≥ 0, ψ ∈ [0, 1),
  /// base_steps > 0. Aborts with a message on violation.
  void Validate() const;
};

/// Names of the twelve classic baselines in the paper's table order:
/// UBAH, Best, CRP, UP, EG, Anticor, ONS, CWMR, PAMR, OLMAR, RMR, WMAMR.
std::vector<std::string> ClassicBaselineNames();

/// Names of the trainable strategies: the seven PPN-family variants, EIIE,
/// and "PPN-AC".
std::vector<std::string> NeuralStrategyNames();

/// Every name `MakeStrategy` accepts (classics then neurals).
std::vector<std::string> AllStrategyNames();

/// True if `name` is one of `ClassicBaselineNames`.
bool IsClassicBaselineName(const std::string& name);

/// True if `name` is one of `NeuralStrategyNames`.
bool IsNeuralStrategyName(const std::string& name);

/// Training budget of one neural run, scaled to the tier and shrunk for
/// large-asset-count datasets (the correlational convolution is O(m²)).
struct TrainBudget {
  int64_t steps = 400;
  int64_t batch_size = 16;
  float learning_rate = 3e-3f;
};

/// Computes the budget for a dataset with `num_assets` assets.
TrainBudget TrainBudgetFor(RunScale scale, int64_t num_assets,
                           int64_t base_steps = 400);

/// Standard policy network config for a dataset (paper Table 2 sizes).
core::PolicyConfig PaperPolicyConfig(core::PolicyVariant variant,
                                     int64_t num_assets, uint64_t seed);

/// Owning handle of a trained neural policy: keeps the module and its
/// dropout RNG alive. Movable; the `policy()` pointer is stable.
class TrainedPolicy {
 public:
  TrainedPolicy(std::unique_ptr<Rng> dropout_rng,
                std::unique_ptr<core::PolicyModule> policy);

  core::PolicyModule* policy() const { return policy_.get(); }

  /// Wraps the policy in an eval-mode backtest strategy. The handle must
  /// outlive the returned strategy.
  std::unique_ptr<backtest::Strategy> MakeEvalStrategy(
      std::string display_name) const;

 private:
  std::unique_ptr<Rng> dropout_rng_;  // Must outlive policy_.
  std::unique_ptr<core::PolicyModule> policy_;
};

/// Trains the neural policy described by `spec` (whose name must be
/// neural) on the dataset's training range. Deterministic in `spec.seed`.
TrainedPolicy TrainPolicy(const StrategySpec& spec,
                          const market::MarketDataset& dataset);

/// The unified factory: builds (and for neural specs, trains) the strategy
/// described by `spec`, ready to backtest on `dataset`. The returned
/// strategy is self-contained — it owns any trained policy. Classic
/// baselines ignore `dataset` at construction.
std::unique_ptr<backtest::Strategy> MakeStrategy(
    const StrategySpec& spec, const market::MarketDataset& dataset);

}  // namespace ppn::strategies

#endif  // PPN_STRATEGIES_REGISTRY_H_
