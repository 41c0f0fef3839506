// Scenario-engine benchmark (google-benchmark): throughput of stress-pack
// application, CSV replay loading, and a backtest over a stressed panel
// with a tradeability mask plus a per-period cost-multiplier schedule.
//
// run_benches.sh archives the JSON report as bench_results/stress_bench.json
// and (under PPN_BENCH_GATE=1) diffs medians against the previous archive,
// exactly like micro_kernels.

#include <filesystem>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "backtest/backtester.h"
#include "common/csv.h"
#include "market/generator.h"
#include "market/replay_io.h"
#include "market/stress.h"
#include "strategies/registry.h"

namespace ppn {
namespace {

constexpr uint64_t kStressSeed = 7;

const market::MarketDataset& BaseDataset() {
  static const market::MarketDataset dataset = [] {
    market::SyntheticMarketConfig config;
    config.num_assets = 11;
    config.num_periods = 1200;
    config.seed = 17;
    return market::SyntheticMarketGenerator(config).GenerateDataset("Bench",
                                                                    0.85);
  }();
  return dataset;
}

void BM_ApplyStressPack(benchmark::State& state) {
  const market::MarketDataset& base = BaseDataset();
  const market::StressPack pack =
      market::AllStressPacks()[static_cast<size_t>(state.range(0))];
  state.SetLabel(market::StressPackName(pack));
  for (auto _ : state) {
    market::StressedDataset stressed =
        market::ApplyStressPack(base, pack, kStressSeed);
    benchmark::DoNotOptimize(stressed.dataset.panel);
  }
  state.SetItemsProcessed(state.iterations() *
                          BaseDataset().panel.num_periods());
}
BENCHMARK(BM_ApplyStressPack)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_ApplyAllPacksComposed(benchmark::State& state) {
  const market::MarketDataset& base = BaseDataset();
  const std::vector<market::StressPack> packs = market::AllStressPacks();
  for (auto _ : state) {
    market::StressedDataset stressed =
        market::ApplyStressPacks(base, packs, kStressSeed);
    benchmark::DoNotOptimize(stressed.cost_multipliers);
  }
  state.SetItemsProcessed(state.iterations() *
                          BaseDataset().panel.num_periods());
}
BENCHMARK(BM_ApplyAllPacksComposed)->Unit(benchmark::kMillisecond);

void BM_ReplayCsvLoad(benchmark::State& state) {
  // The file is written once, off the clock; each iteration parses and
  // validates it end to end.
  static const std::string path = [] {
    const market::MarketDataset& base = BaseDataset();
    CsvTable table;
    table.header = {"period", "asset", "open", "high", "low", "close"};
    for (int64_t t = 0; t < base.panel.num_periods(); ++t) {
      for (int64_t a = 0; a < base.panel.num_assets(); ++a) {
        table.rows.push_back({static_cast<double>(t), static_cast<double>(a),
                              base.panel.Price(t, a, market::kOpen),
                              base.panel.Price(t, a, market::kHigh),
                              base.panel.Price(t, a, market::kLow),
                              base.panel.Close(t, a)});
      }
    }
    const std::string out =
        (std::filesystem::temp_directory_path() / "ppn_stress_bench.csv")
            .string();
    WriteCsv(out, table);
    return out;
  }();
  std::string error;
  for (auto _ : state) {
    market::MarketDataset dataset;
    if (!LoadReplayCsv(path, {}, &dataset, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(dataset.train_end);
  }
  // The file stays in the temp dir for the remaining repetitions; the OS
  // cleans it up.
  state.SetItemsProcessed(state.iterations() *
                          BaseDataset().panel.num_periods() *
                          BaseDataset().panel.num_assets());
}
BENCHMARK(BM_ReplayCsvLoad)->Unit(benchmark::kMillisecond);

void BM_StressedBacktest(benchmark::State& state) {
  // OLMAR (trades every period) over the fully composed scenario: masked
  // delistings plus the liquidity hole's cost-multiplier schedule.
  static const market::StressedDataset stressed = market::ApplyStressPacks(
      BaseDataset(), market::AllStressPacks(), kStressSeed);
  strategies::StrategySpec spec;
  spec.name = "OLMAR";
  for (auto _ : state) {
    auto strategy = strategies::MakeStrategy(spec, stressed.dataset);
    const backtest::BacktestRecord record = backtest::RunOnTestRange(
        strategy.get(), stressed.dataset, 0.0025, stressed.cost_multipliers);
    benchmark::DoNotOptimize(record.wealth_curve);
  }
  const int64_t test_periods =
      stressed.dataset.panel.num_periods() - stressed.dataset.train_end;
  state.SetItemsProcessed(state.iterations() * test_periods);
}
BENCHMARK(BM_StressedBacktest)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ppn

BENCHMARK_MAIN();
