// `sweep`: the Table-3 row set (the twelve classic baselines plus EIIE,
// PPN-I and PPN at a small fixed training budget) on the seeded Crypto-A
// market, run through exec::ExperimentRunner with at most nproc workers.
// The paper's evaluation run end to end, and the only workload that
// exercises the thread pool, the OLPS strategies, the sequential
// backtester and B=1 eval inference. Pool workers turn inner OpenMP off;
// the slowest neural cell sets the wall time.
//
// One operation is one table: throughput_per_s is cells/s over the run,
// latency_ms.p50 the median table wall time and latency_ms.tail the
// slowest table of the run (too few tables for a percentile).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "backtest/backtester.h"
#include "backtest/costs.h"
#include "common/parallel.h"
#include "exec/experiment.h"
#include "exec/thread_pool.h"
#include "market/presets.h"
#include "ppn/policy_inference.h"
#include "ppn/strategy_adapter.h"
#include "strategies/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppn;

/// Pre-scale training steps of each neural cell (`quick` scale: as is).
constexpr int64_t kNeuralBaseSteps = 24;
constexpr double kCostRate = 0.0025;

strategies::StrategySpec Named(const std::string& name) {
  strategies::StrategySpec spec;
  spec.name = name;
  return spec;
}

exec::ExperimentSpec TableSpec(market::MarketDataset dataset, RunScale scale) {
  exec::ExperimentSpec spec;
  spec.title = "perfbench sweep";
  spec.scale = scale;
  spec.custom_datasets.push_back({std::move(dataset), {}});
  for (const std::string& name : strategies::ClassicBaselineNames()) {
    spec.strategies.push_back(Named(name));
  }
  // As bench/table3_profitability.cc configures the neural rows.
  strategies::StrategySpec eiie = Named("EIIE");
  eiie.gamma = 0.0;
  eiie.lambda = 0.0;
  strategies::StrategySpec ppn_i = Named("PPN-I");
  strategies::StrategySpec ppn = Named("PPN");
  for (strategies::StrategySpec* neural : {&eiie, &ppn_i, &ppn}) {
    neural->base_steps = kNeuralBaseSteps;
    spec.strategies.push_back(*neural);
  }
  spec.cost_rates = {kCostRate};
  return spec;
}

std::vector<double> Apvs(const std::vector<exec::CellResult>& rows) {
  std::vector<double> apvs;
  for (const exec::CellResult& row : rows) apvs.push_back(row.metrics.apv);
  return apvs;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

std::string ApvBits(double apv) {
  uint64_t bits = 0;
  std::memcpy(&bits, &apv, sizeof(bits));
  return Hex64(bits);
}

/// The row set on the unmodified smoke-scale Crypto-A preset, at 1 worker
/// and at N workers: every cell's APV must equal the recorded bits.
/// Returns failed cells plus solver non-convergences.
int64_t CheckGolden(const Options& options, const Expected& expected,
                    Report* report) {
  const exec::ExperimentSpec spec = TableSpec(
      market::MakeDataset(market::DatasetId::kCryptoA, RunScale::kSmoke),
      RunScale::kSmoke);
  int64_t failed = 0;
  for (const int workers : {1, SweepWorkers()}) {
    ppn::obs::ScopedObsEnable counting;
    CounterDelta counters;
    const std::vector<exec::CellResult> rows =
        exec::ExperimentRunner(workers).Run(spec);
    counters.Stop();
    failed += static_cast<int64_t>(
        counters.Counter("backtest.solver.nonconverged"));
    const bool was_correct = report->correct();
    for (const exec::CellResult& row : rows) {
      expected.Check(options, "sweep.golden_apv." + row.key.strategy,
                     ApvBits(row.metrics.apv), report);
    }
    if (was_correct && !report->correct()) {
      std::fprintf(stderr, "perfbench: golden sweep at %d worker(s)\n",
                   workers);
      ++failed;
    }
    report->Attempt(static_cast<int64_t>(rows.size()), 0);
    if (options.record) break;  // One copy of the recorded values.
  }
  return failed;
}

/// Times DecideWeights of the wrapped strategy and keeps the (drifted,
/// target) pairs it saw, for timing the cost solver on real inputs.
class TimedStrategy : public backtest::Strategy {
 public:
  TimedStrategy(backtest::Strategy* inner, std::string scope)
      : inner_(inner), scope_(std::move(scope)) {}
  std::string name() const override { return inner_->name(); }
  void Reset(const market::OhlcPanel& panel, int64_t first_period) override {
    inner_->Reset(panel, first_period);
  }
  std::vector<double> DecideWeights(
      const backtest::MarketView& view,
      const std::vector<double>& prev_hat) override {
    std::vector<double> weights;
    {
      Scope scope(scope_.c_str());
      weights = inner_->DecideWeights(view, prev_hat);
    }
    pairs.emplace_back(prev_hat, weights);
    return weights;
  }

  std::vector<std::pair<std::vector<double>, std::vector<double>>> pairs;

 private:
  backtest::Strategy* inner_;
  std::string scope_;
};

}  // namespace

int SweepWorkers() {
  return std::clamp(exec::DefaultWorkerCount(), 1, HardwareThreads());
}

void RunSweep(const Options& options, const Expected& expected,
              Report* report) {
  SetupSampler setups(options.seconds);
  std::unique_ptr<exec::ExperimentSpec> spec;
  setups.Sample([&] {
    spec = std::make_unique<exec::ExperimentSpec>(
        TableSpec(SeededCryptoA(options.seed), RunScale::kQuick));
  });

  const exec::ExperimentRunner runner(SweepWorkers());
  // A warm-up table, off the clock and with obs on. Every measured table
  // must match its APV bits, so each computes the same cells and has the
  // warm-up's count of solver non-convergences.
  std::vector<double> first_apvs;
  double nonconverged_per_table = 0.0;
  {
    ppn::obs::ScopedObsEnable counting;
    CounterDelta counters;
    first_apvs = Apvs(runner.Run(*spec));
    counters.Stop();
    nonconverged_per_table = counters.Counter("backtest.solver.nonconverged");
  }
  // The footprint of one table, before a throwaway set-up adds to it.
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> table_ms;
  int64_t cells = 0;
  int64_t failed = 0;
  double busy_s = 0.0;
  while (busy_s < options.seconds) {
    const Clock::time_point table_start = Clock::now();
    const std::vector<exec::CellResult> rows = runner.Run(*spec);
    table_ms.push_back(SecondsSince(table_start) * 1e3);
    busy_s += table_ms.back() / 1e3;
    cells += static_cast<int64_t>(rows.size());
    // Every table of the run computes the same cells: bit-equal APVs.
    const std::vector<double> apvs = Apvs(rows);
    if (!SameBits(apvs, first_apvs)) {
      ++failed;
      report->Fail("sweep: table " + std::to_string(table_ms.size()) +
                   " APVs differ from the warm-up table's");
    }
    for (double apv : apvs) failed += std::isfinite(apv) && apv > 0 ? 0 : 1;
    setups.MaybeSample(busy_s, [&] {
      TableSpec(SeededCryptoA(options.seed), RunScale::kQuick);
    });
  }
  failed += static_cast<int64_t>(nonconverged_per_table) *
            static_cast<int64_t>(table_ms.size());
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
  report->Attempt(cells, failed);
  report->Set("setup_s", setups.Median(), "s");
  report->Set("throughput_per_s", static_cast<double>(cells) / busy_s, "1/s");
  report->Set("latency_ms.p50", Quantile(table_ms, 0.5), "ms");
  report->Set("latency_ms.tail", Quantile(table_ms, 1.0), "ms");
  std::printf("sweep: %zu tables of %zu cells in %.3f s at %d workers  "
              "sweep.wall_s=%.4f (median)\n",
              table_ms.size(), first_apvs.size(), busy_s, SweepWorkers(),
              Quantile(table_ms, 0.5) / 1e3);

  const int64_t golden_failed = CheckGolden(options, expected, report);
  report->Attempt(0, golden_failed);
}

void TraceSweep(const Options& options, double seconds, bool named,
                Report* report) {
  const auto spec = std::make_unique<exec::ExperimentSpec>(
      TableSpec(SeededCryptoA(options.seed), RunScale::kQuick));
  const market::MarketDataset& dataset = spec->custom_datasets[0].dataset;
  const int workers = SweepWorkers();
  const exec::ExperimentRunner runner(workers);

  // Untraced tables: the baseline of the tracing overhead (named only; a
  // probe runs one traced table).
  std::vector<double> untraced_ms;
  Clock::time_point start = Clock::now();
  while (named && SecondsSince(start) < 0.3 * seconds) {
    const Clock::time_point table_start = Clock::now();
    runner.Run(*spec);
    untraced_ms.push_back(SecondsSince(table_start) * 1e3);
  }

  LayerTable::Get().Reset();
  std::vector<double> traced_ms;
  std::vector<double> cell_max_s;
  std::vector<double> cell_sum_s;
  std::vector<double> busy_ratio;
  std::vector<double> task_wait_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t solver_calls = 0;
  ppn::obs::ScopedTraceEnable tracing;
  start = Clock::now();
  do {
    CounterDelta counters;
    const Clock::time_point table_start = Clock::now();
    std::vector<exec::CellResult> rows;
    {
      Scope scope("exec.runner.run");
      rows = runner.Run(*spec);
    }
    const double wall = SecondsSince(table_start);
    counters.Stop();
    traced_ms.push_back(wall * 1e3);
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const exec::CellResult& row : rows) {
      max_s = std::max(max_s, row.wall_seconds);
      sum_s += row.wall_seconds;
    }
    cell_max_s.push_back(max_s);
    cell_sum_s.push_back(sum_s);
    busy_ratio.push_back(sum_s / (workers * wall));
    task_wait_s.push_back(counters.HistogramSum("exec.pool.task_wait.seconds"));
    failed += static_cast<int64_t>(
        counters.Counter("backtest.solver.nonconverged"));
    attempted += static_cast<int64_t>(rows.size());
  } while (SecondsSince(start) < 0.7 * seconds);

  // Strategy layer: each classic baseline and a (fixed-seed) PPN through
  // the sequential backtester on the test range, DecideWeights timed.
  std::vector<std::pair<std::vector<double>, std::vector<double>>> pairs;
  std::vector<std::string> names = strategies::ClassicBaselineNames();
  names.push_back("PPN");
  Rng init(7);
  Rng dropout(8);
  const std::unique_ptr<core::PolicyModule> ppn_policy = core::MakePolicy(
      strategies::PaperPolicyConfig(core::PolicyVariant::kPpn,
                                    dataset.panel.num_assets(), 1),
      &init, &dropout);
  for (const std::string& name : names) {
    std::unique_ptr<backtest::Strategy> strategy =
        name == "PPN" ? std::make_unique<core::PolicyStrategy>(
                            ppn_policy.get(), "PPN")
                      : strategies::MakeStrategy(Named(name), dataset);
    const std::string scope_name = "strategies." + name + ".decide";
    TimedStrategy timed(strategy.get(), scope_name);
    {
      Scope scope("backtest.run");
      backtest::RunOnTestRange(&timed, dataset, kCostRate);
    }
    report->Set("strategies." + name + ".decide_us",
                LayerTable::Get().MeanSeconds(scope_name) * 1e6, "us");
    pairs.insert(pairs.end(), timed.pairs.begin(), timed.pairs.end());
  }

  // Cost solver on the pairs the strategies produced.
  const backtest::CostModel costs = backtest::CostModel::Uniform(kCostRate);
  int64_t iterations = 0;
  {
    Scope scope("backtest.cost_solve");
    for (const auto& [prev_hat, target] : pairs) {
      const backtest::NetWealthSolve solve =
          backtest::SolveNetWealthFactorDetailed(prev_hat, target, costs);
      iterations += solve.iterations;
      failed += solve.converged ? 0 : 1;
      ++solver_calls;
    }
  }
  report->Set("backtest.cost_solve_us",
              LayerTable::Get().TotalSeconds("backtest.cost_solve") * 1e6 /
                  std::max<int64_t>(solver_calls, 1),
              "us");
  report->Set("backtest.solver.iterations_per_call",
              static_cast<double>(iterations) /
                  std::max<int64_t>(solver_calls, 1),
              "count");

  // B=1 eval inference, as the backtested PPN cell calls it.
  const core::PolicyInference inference(ppn_policy.get());
  const int64_t m = dataset.panel.num_assets();
  const int64_t k = ppn_policy->config().window;
  Tensor prev_actions({1, m});
  for (int64_t t = dataset.train_end; t < dataset.panel.num_periods(); ++t) {
    const Tensor window = market::NormalizedWindow(dataset.panel, t - 1, k);
    Tensor windows({1, m, k, market::kNumPriceFields});
    std::memcpy(windows.MutableData(), window.Data(),
                sizeof(float) * window.numel());
    Scope scope("ppn.inference.decide.b1");
    inference.DecideBatch(windows, prev_actions);
  }
  report->Set("ppn.inference.decide_ms.b1",
              LayerTable::Get().MeanSeconds("ppn.inference.decide.b1") * 1e3,
              "ms");

  report->Attempt(attempted, failed);
  report->Set("exec.cell_s.max", Mean(cell_max_s), "s");
  report->Set("exec.cell_s.sum", Mean(cell_sum_s), "s");
  report->Set("exec.worker_busy_ratio", Mean(busy_ratio), "ratio");
  report->Set("exec.pool.task_wait_s", Mean(task_wait_s), "s");
  if (named) {
    report->Set("obs.trace_overhead_ratio",
                Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5),
                "ratio");
  }
  std::printf("sweep (traced): %zu tables, wall %.3f s, slowest cell "
              "%.3f s, cells sum %.3f s, busy %.3f\n",
              traced_ms.size(), Mean(traced_ms) / 1e3, Mean(cell_max_s),
              Mean(cell_sum_s), Mean(busy_ratio));
}

}  // namespace perfbench
