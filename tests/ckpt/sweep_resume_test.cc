// Sweep-level checkpoint/resume: a killed sweep restarted with the same
// spec and checkpoint dir recomputes only the unfinished cells, and the
// assembled results are bit-identical to an uncheckpointed run — cell
// seeds derive from cell keys, so a restored cell and a recomputed cell
// carry the same bits. Also exercises corruption handling (a damaged cell
// file is ignored and recomputed) and the keep_records upgrade path.

#include "exec/experiment.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_dir.h"

namespace ppn::exec {
namespace {

using strategies::StrategySpec;

ExperimentSpec SmallClassicSpec() {
  ExperimentSpec spec;
  spec.title = "ckpt sweep test";
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
    // Bitwise equality is the contract, not near-equality.
    EXPECT_EQ(a[i].metrics.apv, b[i].metrics.apv);
    EXPECT_EQ(a[i].metrics.sr_pct, b[i].metrics.sr_pct);
    EXPECT_EQ(a[i].metrics.std_pct, b[i].metrics.std_pct);
    EXPECT_EQ(a[i].metrics.mdd_pct, b[i].metrics.mdd_pct);
    EXPECT_EQ(a[i].metrics.cr, b[i].metrics.cr);
    EXPECT_EQ(a[i].metrics.turnover, b[i].metrics.turnover);
  }
}

size_t CountCellCheckpoints(const std::string& dir) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ++count;
  }
  return count;
}

TEST(SweepResumeTest, CheckpointedRunMatchesUncheckpointed) {
  const ExperimentSpec plain = SmallClassicSpec();
  ExperimentSpec checkpointed = plain;
  checkpointed.checkpoint_dir = test::FreshDir("match");
  const ExperimentRunner runner(2);
  const std::vector<CellResult> expected = runner.Run(plain);
  const std::vector<CellResult> actual = runner.Run(checkpointed);
  ExpectIdenticalRows(expected, actual);
  EXPECT_EQ(CountCellCheckpoints(checkpointed.checkpoint_dir),
            expected.size());
}

TEST(SweepResumeTest, RestartRecomputesOnlyUnfinishedCells) {
  const std::string dir = test::FreshDir("restart");
  // "Killed" first attempt: only a subset of strategies finished.
  ExperimentSpec partial = SmallClassicSpec();
  partial.checkpoint_dir = dir;
  partial.strategies = {StrategySpec{.name = "UBAH"}};
  const ExperimentRunner runner(2);
  runner.Run(partial);
  const size_t finished = CountCellCheckpoints(dir);
  ASSERT_GT(finished, 0u);

  // Restart with the FULL spec over the same dir: finished cells restore,
  // the rest run fresh. Results must equal a clean uncheckpointed run.
  ExperimentSpec full = SmallClassicSpec();
  full.checkpoint_dir = dir;
  const std::vector<CellResult> resumed = runner.Run(full);
  const std::vector<CellResult> reference = runner.Run(SmallClassicSpec());
  ExpectIdenticalRows(reference, resumed);
  EXPECT_EQ(CountCellCheckpoints(dir), reference.size());
}

TEST(SweepResumeTest, SecondRunRestoresEveryCell) {
  ExperimentSpec spec = SmallClassicSpec();
  spec.checkpoint_dir = test::FreshDir("warm");
  const ExperimentRunner runner(2);
  const std::vector<CellResult> first = runner.Run(spec);
  const std::vector<CellResult> second = runner.Run(spec);
  ExpectIdenticalRows(first, second);
  // A fully warm rerun restores rather than recomputes; the stored wall
  // time is echoed back, making the rows identical in every field.
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].wall_seconds, second[i].wall_seconds);
  }
}

TEST(SweepResumeTest, CorruptCellCheckpointIsRecomputed) {
  ExperimentSpec spec = SmallClassicSpec();
  spec.checkpoint_dir = test::FreshDir("corrupt");
  const ExperimentRunner runner(1);
  const std::vector<CellResult> reference = runner.Run(spec);
  // Flip a byte in every cell file; the CRC check must reject them all and
  // the rerun must silently recompute identical results.
  for (const auto& entry :
       std::filesystem::directory_iterator(spec.checkpoint_dir)) {
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(16);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(16);
    byte ^= 0x40;
    file.write(&byte, 1);
  }
  const std::vector<CellResult> recomputed = runner.Run(spec);
  ExpectIdenticalRows(reference, recomputed);
}

TEST(SweepResumeTest, RecordRequestForcesRecomputeWhenNotStored) {
  ExperimentSpec spec = SmallClassicSpec();
  spec.checkpoint_dir = test::FreshDir("records");
  const ExperimentRunner runner(1);
  runner.Run(spec);  // keep_records = false: no records in the cell files.
  spec.keep_records = true;
  const std::vector<CellResult> with_records = runner.Run(spec);
  for (const CellResult& row : with_records) {
    EXPECT_FALSE(row.record.wealth_curve.empty())
        << row.key.strategy << " should have been recomputed with a record";
  }
  // And a further rerun restores the records from the upgraded files.
  const std::vector<CellResult> restored = runner.Run(spec);
  ASSERT_EQ(restored.size(), with_records.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].record.wealth_curve,
              with_records[i].record.wealth_curve);
    EXPECT_EQ(restored[i].record.actions, with_records[i].record.actions);
  }
}

TEST(SweepResumeTest, ResumeIsBitIdenticalAcrossWorkerCounts) {
  // The killed-sweep restart must preserve the key-derived-seed guarantee:
  // restore on 1 worker, restore on 4 workers, fresh on 4 — all identical.
  const std::string dir = test::FreshDir("workers");
  ExperimentSpec partial = SmallClassicSpec();
  partial.checkpoint_dir = dir;
  partial.strategies = {StrategySpec{.name = "CRP"}};
  ExperimentRunner(4).Run(partial);

  ExperimentSpec full = SmallClassicSpec();
  full.checkpoint_dir = dir;
  const std::vector<CellResult> one = ExperimentRunner(1).Run(full);
  const std::vector<CellResult> four = ExperimentRunner(4).Run(full);
  const std::vector<CellResult> fresh = ExperimentRunner(4).Run(SmallClassicSpec());
  ExpectIdenticalRows(one, four);
  ExpectIdenticalRows(fresh, one);
}

}  // namespace
}  // namespace ppn::exec
