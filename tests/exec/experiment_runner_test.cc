// Tests for the experiment harness: deterministic cell seeding derived
// from the cell KEY (not submission order), bit-identical results across
// worker counts, enumeration-ordered rows, and the ResultSink / table /
// JSON plumbing.

#include "exec/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/stats.h"
#include "test_dir.h"

namespace ppn::exec {
namespace {

using strategies::StrategySpec;

/// A small all-classic sweep: fast enough to run at several worker counts.
ExperimentSpec SmallClassicSpec() {
  ExperimentSpec spec;
  spec.title = "exec test sweep";
  spec.scale = RunScale::kSmoke;
  spec.datasets = {market::DatasetId::kCryptoA};
  spec.strategies = {StrategySpec{.name = "UBAH"}, StrategySpec{.name = "CRP"},
                     StrategySpec{.name = "OLMAR"}};
  spec.cost_rates = {0.0, 0.0025};
  spec.seeds = {1, 7};
  return spec;
}

void ExpectIdenticalRows(const std::vector<CellResult>& a,
                         const std::vector<CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(a[i].key.strategy, b[i].key.strategy);
    EXPECT_EQ(a[i].key.dataset, b[i].key.dataset);
    EXPECT_EQ(a[i].key.cost_rate, b[i].key.cost_rate);
    EXPECT_EQ(a[i].key.seed, b[i].key.seed);
    EXPECT_EQ(a[i].derived_seed, b[i].derived_seed);
    // Bitwise metric equality, not near-equality: the determinism contract
    // is that worker count never changes a single bit of any result.
    EXPECT_EQ(a[i].metrics.apv, b[i].metrics.apv);
    EXPECT_EQ(a[i].metrics.sr_pct, b[i].metrics.sr_pct);
    EXPECT_EQ(a[i].metrics.std_pct, b[i].metrics.std_pct);
    EXPECT_EQ(a[i].metrics.mdd_pct, b[i].metrics.mdd_pct);
    EXPECT_EQ(a[i].metrics.cr, b[i].metrics.cr);
    EXPECT_EQ(a[i].metrics.turnover, b[i].metrics.turnover);
  }
}

TEST(CellSeedTest, DeterministicInKey) {
  const CellKey key{"PPN", "Crypto-A", 0.0025, 1};
  EXPECT_EQ(CellSeed(key), CellSeed(key));
  EXPECT_NE(CellSeed(key), 0u);
}

TEST(CellSeedTest, EveryKeyFieldPerturbsTheSeed) {
  const CellKey base{"PPN", "Crypto-A", 0.0025, 1};
  CellKey other = base;
  other.strategy = "EIIE";
  EXPECT_NE(CellSeed(base), CellSeed(other));
  other = base;
  other.dataset = "Crypto-B";
  EXPECT_NE(CellSeed(base), CellSeed(other));
  other = base;
  other.cost_rate = 0.005;
  EXPECT_NE(CellSeed(base), CellSeed(other));
  other = base;
  other.seed = 2;
  EXPECT_NE(CellSeed(base), CellSeed(other));
}

TEST(CellSeedTest, FieldBoundariesMatter) {
  // Length-prefixed hashing: moving a character across the field boundary
  // must change the seed.
  const CellKey a{"ab", "c", 0.0025, 1};
  const CellKey b{"a", "bc", 0.0025, 1};
  EXPECT_NE(CellSeed(a), CellSeed(b));
}

TEST(CellSeedTest, SpreadsAcrossAGrid) {
  // No collisions across a realistic sweep grid.
  std::set<uint64_t> seeds;
  int cells = 0;
  for (const char* strategy : {"UBAH", "PPN", "PPN-AC", "EIIE"}) {
    for (const char* dataset : {"Crypto-A", "Crypto-B", "S&P500"}) {
      for (const double cost : {0.0, 0.0025, 0.01}) {
        for (const uint64_t seed : {1ull, 2ull, 3ull}) {
          seeds.insert(CellSeed(CellKey{strategy, dataset, cost, seed}));
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seeds.size()), cells);
}

TEST(ExperimentRunnerTest, RowsComeBackInEnumerationOrder) {
  const ExperimentSpec spec = SmallClassicSpec();
  const std::vector<CellResult> rows = ExperimentRunner(0).Run(spec);
  // datasets-major, then strategies, then cost rates, then seeds.
  ASSERT_EQ(rows.size(), 1u * 3u * 2u * 2u);
  int index = 0;
  for (const auto& strategy : spec.strategies) {
    for (const double cost : spec.cost_rates) {
      for (const uint64_t seed : spec.seeds) {
        SCOPED_TRACE("row " + std::to_string(index));
        EXPECT_EQ(rows[index].key.strategy, strategy.display());
        EXPECT_EQ(rows[index].key.dataset,
                  market::DatasetName(spec.datasets[0]));
        EXPECT_EQ(rows[index].key.cost_rate, cost);
        EXPECT_EQ(rows[index].key.seed, seed);
        EXPECT_EQ(rows[index].derived_seed, CellSeed(rows[index].key));
        ++index;
      }
    }
  }
}

TEST(ExperimentRunnerTest, WorkerCountDoesNotChangeResults) {
  // The acceptance criterion of the harness: inline (0), single-worker,
  // and multi-worker runs of the same spec are bit-identical.
  const ExperimentSpec spec = SmallClassicSpec();
  const std::vector<CellResult> inline_rows = ExperimentRunner(0).Run(spec);
  const std::vector<CellResult> serial_rows = ExperimentRunner(1).Run(spec);
  const std::vector<CellResult> parallel_rows = ExperimentRunner(4).Run(spec);
  ExpectIdenticalRows(inline_rows, serial_rows);
  ExpectIdenticalRows(inline_rows, parallel_rows);
}

TEST(ExperimentRunnerTest, DeterminismHoldsWithInstrumentationEnabled) {
  // The obs layer must only OBSERVE: with profiling on, the worker-count
  // determinism contract still holds bit-for-bit, and the results equal
  // those of an unprofiled run.
  const ExperimentSpec spec = SmallClassicSpec();
  std::vector<CellResult> plain_rows;
  {
    obs::ScopedObsEnable disable(false);
    plain_rows = ExperimentRunner(0).Run(spec);
  }
  obs::ScopedObsEnable enable;
  obs::ResetAll();
  const std::vector<CellResult> inline_rows = ExperimentRunner(0).Run(spec);
  const std::vector<CellResult> parallel_rows = ExperimentRunner(4).Run(spec);
  ExpectIdenticalRows(inline_rows, parallel_rows);
  ExpectIdenticalRows(plain_rows, inline_rows);
#ifndef PPN_OBS_DISABLED
  // And the instrumentation did actually record the cells (unless it was
  // compiled out, in which case the determinism checks above still ran).
  const obs::Snapshot snapshot = obs::TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("exec.cells.completed"),
            static_cast<double>(2 * inline_rows.size()));
  ASSERT_EQ(snapshot.histograms.count("exec.cell.seconds"), 1u);
  EXPECT_EQ(snapshot.histograms.at("exec.cell.seconds").count,
            static_cast<int64_t>(2 * inline_rows.size()));
  obs::ResetAll();
#endif
}

TEST(ExperimentRunnerTest, KeepRecordsRetainsWealthCurves) {
  ExperimentSpec spec = SmallClassicSpec();
  spec.strategies = {StrategySpec{.name = "UBAH"}};
  spec.cost_rates = {0.0025};
  spec.seeds = {1};
  spec.keep_records = true;
  const std::vector<CellResult> rows = ExperimentRunner(0).Run(spec);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].key.strategy.empty());
  EXPECT_FALSE(rows[0].record.wealth_curve.empty());
  EXPECT_EQ(rows[0].record.wealth_curve.back(), rows[0].metrics.apv);

  spec.keep_records = false;
  const std::vector<CellResult> bare = ExperimentRunner(0).Run(spec);
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_TRUE(bare[0].record.wealth_curve.empty());
}

TEST(ExperimentRunnerDeathTest, DuplicateDisplayLabelsAbort) {
  // Cells are keyed (and seeded) by display label, so a sweep that varies a
  // knob without relabelling would silently alias cells. The runner aborts.
  ExperimentSpec spec;
  spec.scale = RunScale::kSmoke;
  spec.datasets = {market::DatasetId::kCryptoA};
  StrategySpec a{.name = "CRP"};
  StrategySpec b{.name = "CRP"};
  spec.strategies = {a, b};
  EXPECT_DEATH(ExperimentRunner(0).Run(spec), "");
}

TEST(ExperimentRunnerDeathTest, EmptyAxesAbort) {
  ExperimentSpec no_datasets;
  no_datasets.strategies = {StrategySpec{.name = "UBAH"}};
  EXPECT_DEATH(ExperimentRunner(0).Run(no_datasets), "");

  ExperimentSpec no_strategies;
  no_strategies.datasets = {market::DatasetId::kCryptoA};
  EXPECT_DEATH(ExperimentRunner(0).Run(no_strategies), "");
}

TEST(ResultSinkTest, ReturnsRowsInIndexOrder) {
  ResultSink sink(3);
  CellResult r0, r1, r2;
  r0.key.strategy = "zero";
  r1.key.strategy = "one";
  r2.key.strategy = "two";
  // Report out of order, as parallel completion would.
  sink.Set(2, r2);
  sink.Set(0, r0);
  sink.Set(1, r1);
  const std::vector<CellResult> rows = sink.Take();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key.strategy, "zero");
  EXPECT_EQ(rows[1].key.strategy, "one");
  EXPECT_EQ(rows[2].key.strategy, "two");
}

TEST(ResultSinkDeathTest, DoubleReportAborts) {
  ResultSink sink(2);
  sink.Set(0, CellResult{});
  EXPECT_DEATH(sink.Set(0, CellResult{}), "");
}

TEST(ResultSinkDeathTest, TakeWithMissingCellAborts) {
  ResultSink sink(2);
  sink.Set(0, CellResult{});
  EXPECT_DEATH(sink.Take(), "");
}

TEST(MetricValueTest, MapsEveryPaperColumn) {
  backtest::Metrics metrics;
  metrics.apv = 2.0;
  metrics.sr_pct = 3.0;
  metrics.std_pct = 4.0;
  metrics.mdd_pct = 5.0;
  metrics.cr = 6.0;
  metrics.turnover = 7.0;
  EXPECT_EQ(MetricValue(metrics, "APV"), 2.0);
  EXPECT_EQ(MetricValue(metrics, "SR(%)"), 3.0);
  EXPECT_EQ(MetricValue(metrics, "STD(%)"), 4.0);
  EXPECT_EQ(MetricValue(metrics, "MDD(%)"), 5.0);
  EXPECT_EQ(MetricValue(metrics, "CR"), 6.0);
  EXPECT_EQ(MetricValue(metrics, "TO"), 7.0);
}

TEST(MakeMetricsTableTest, RendersLabelsAndColumns) {
  CellResult result;
  result.metrics.apv = 1.5;
  result.metrics.turnover = 0.25;
  const TablePrinter table = MakeMetricsTable(
      "Algos", {{"UBAH", &result}}, {"APV", "TO"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("Algos"), std::string::npos);
  EXPECT_NE(rendered.find("UBAH"), std::string::npos);
  EXPECT_NE(rendered.find("1.500"), std::string::npos);
  EXPECT_NE(rendered.find("0.250"), std::string::npos);
}

TEST(WriteResultsJsonTest, DumpsKeyFieldsAndMetrics) {
  CellResult result;
  result.key = CellKey{"UBAH", "Crypto-A", 0.0025, 1};
  result.derived_seed = CellSeed(result.key);
  result.metrics.apv = 1.25;
  const std::string path =
      test::FreshDir("results_test") + "/results.json";
  ASSERT_TRUE(WriteResultsJson(path, {result}));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"UBAH\""), std::string::npos);
  EXPECT_NE(json.find("\"Crypto-A\""), std::string::npos);
  EXPECT_NE(json.find("apv"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteResultsJsonTest, DoublesRoundTripBitExactly) {
  // The fabric's merged-results equality check compares JSON files from
  // different runs, so every double must survive the text round-trip
  // bit-for-bit — %.17g, not a display precision.
  CellResult result;
  result.key = CellKey{"UBAH", "Crypto-A", 1.0 / 3.0, 1};
  result.derived_seed = CellSeed(result.key);
  result.metrics.apv = 1.0 + 1e-15;        // Lost at < 16 digits.
  result.metrics.sr_pct = 0.1;             // Not exactly representable.
  result.metrics.turnover = 3.0e-300;      // Extreme exponent.
  const std::string path =
      test::FreshDir("results_roundtrip") + "/results.json";
  ASSERT_TRUE(WriteResultsJson(path, {result}));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  auto extract = [&json](const std::string& field) {
    const size_t at = json.find("\"" + field + "\":");
    EXPECT_NE(at, std::string::npos) << field;
    const size_t start = at + field.size() + 3;
    size_t end = start;
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    return std::strtod(json.substr(start, end - start).c_str(), nullptr);
  };
  EXPECT_EQ(extract("cost_rate"), 1.0 / 3.0);
  EXPECT_EQ(extract("apv"), 1.0 + 1e-15);
  EXPECT_EQ(extract("sr_pct"), 0.1);
  EXPECT_EQ(extract("turnover"), 3.0e-300);
  std::remove(path.c_str());
}

TEST(WriteResultsJsonTest, ControlCharactersInNamesStayValidJson) {
  // Dataset names come from user input (`--replay-name` or a CSV path),
  // so a raw tab or other control byte must be escaped, not written
  // verbatim — JSON forbids raw control characters in strings.
  const std::string strategy = "UB\tAH\x01";
  const std::string dataset = "replay\tname\x01\"q\"\\";
  CellResult result;
  result.key = CellKey{strategy, dataset, 0.0025, 1};
  const std::string path =
      test::FreshDir("results_control") + "/results.json";
  ASSERT_TRUE(WriteResultsJson(path, {result}));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(buffer.str(), &root, &error)) << error;
  ASSERT_EQ(root.AsArray().size(), 1u);
  EXPECT_EQ(root.AsArray()[0].StringOr("strategy", ""), strategy);
  EXPECT_EQ(root.AsArray()[0].StringOr("dataset", ""), dataset);
  std::remove(path.c_str());
}

TEST(WriteResultsJsonTest, WritesAtomically) {
  // An existing target must never be visible half-overwritten: the new
  // content arrives via temp-then-rename, and no .tmp residue remains.
  const std::string path =
      test::FreshDir("results_atomic") + "/results.json";
  {
    std::ofstream prior(path);
    prior << "prior content";
  }
  CellResult result;
  result.key = CellKey{"UBAH", "Crypto-A", 0.0025, 1};
  ASSERT_TRUE(WriteResultsJson(path, {result}));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str().find("prior content"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"UBAH\""), std::string::npos);
  std::ifstream temp(path + ".tmp");
  EXPECT_FALSE(temp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppn::exec
