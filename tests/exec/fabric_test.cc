// The multi-process sweep fabric: merged results must be bit-identical to
// the in-process runner at any process count — including when a worker is
// SIGKILLed mid-sweep and a replacement rejoins, when a queue file is
// corrupted on disk, and when a hung worker's cell is re-dispatched to a
// backup. Workers are real processes: each test fork/execs the ppn_cli
// binary (PPN_CLI_BIN, injected by CMake) as `sweep-worker`.

#include "exec/fabric.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "exec/experiment.h"
#include "obs/stats.h"
#include "test_dir.h"

namespace ppn::exec {
namespace {

using strategies::StrategySpec;

// Workers rebuild the spec from flags via GetRunScale(), so the scale must
// travel through the environment, not just the in-process spec.
const bool kScaleForced = [] {
  ::setenv("PPN_SCALE", "smoke", 1);
  return true;
}();

/// Sets an env var for one test and restores the previous state on exit,
/// so fault-injection knobs cannot leak into later tests' worker fleets.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) ::setenv(name_, old_.c_str(), 1);
    else ::unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// Classic-baseline spec: no training, so twelve cells finish in seconds
/// even on one core, and every metric is exactly reproducible.
ExperimentSpec SmallSpec() {
  ExperimentSpec spec;
  spec.title = "fabric test";
  spec.scale = RunScale::kSmoke;
  spec.datasets = {market::DatasetId::kCryptoA};
  spec.strategies = {StrategySpec{.name = "UBAH"}, StrategySpec{.name = "CRP"},
                     StrategySpec{.name = "OLMAR"}};
  spec.cost_rates = {0.0, 0.0025};
  spec.seeds = {1, 7};
  return spec;
}

/// The worker argv that rebuilds SmallSpec() from flags. Must agree with
/// the spec above or the workers reject every task.
std::vector<std::string> SmallSpecArgv() {
  return {PPN_CLI_BIN,      "sweep-worker", "--datasets", "crypto-a",
          "--strategies",   "UBAH,CRP,OLMAR",
          "--costs",        "0,0.0025",
          "--seeds",        "1,7"};
}

FabricOptions BaseOptions(const std::string& dir_name) {
  FabricOptions options;
  options.fabric_dir = test::FreshDir(dir_name);
  options.worker_argv = SmallSpecArgv();
  options.worker_timeout_s = 300.0;  // No accidental straggler triggers.
  options.max_restarts = 8;
  return options;
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

std::vector<CellResult> InProcessRows(const ExperimentSpec& spec) {
  return ExperimentRunner(0).Run(spec);
}

TEST(FabricTest, TwoProcessesMatchInProcessRunner) {
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("two_proc");
  options.num_processes = 2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_EQ(stats.workers_spawned, 2);
  EXPECT_EQ(stats.workers_died, 0);
  EXPECT_EQ(stats.ckpt_write_failures, 0);
  // Scratch is cleaned up after a fully successful run.
  EXPECT_FALSE(std::filesystem::exists(options.fabric_dir));
}

TEST(FabricTest, SigkilledWorkerIsRespawnedAndResultsAreIdentical) {
  // One slot, killed by SIGKILL after its first completed cell: the
  // coordinator must requeue whatever it held, respawn the slot (with the
  // fault knob stripped from the replacement), and still merge rows
  // bit-identical to the in-process run.
  const ScopedEnv kill("PPN_FABRIC_TEST_KILL_AFTER", "0:1");
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("kill");
  options.num_processes = 1;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.workers_died, 1);
  EXPECT_GE(stats.workers_restarted, 1);
}

TEST(FabricTest, KilledWorkersCellsAreStolenByTheSurvivor) {
  // Two slots, slot 0 dies early: slot 1 steals the dead worker's shard
  // (or the respawned slot 0 resumes it) — either way, identical bits.
  const ScopedEnv kill("PPN_FABRIC_TEST_KILL_AFTER", "0:1");
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("kill_steal");
  options.num_processes = 2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.workers_died, 1);
}

TEST(FabricTest, CorruptQueueFileIsRecoveredFromTheCellList) {
  // Scribble over one task file after the queue is written: the claiming
  // worker must quarantine it (never compute a garbled cell) and the
  // coordinator must rewrite it from its authoritative cell list.
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("corrupt");
  options.num_processes = 2;
  options.after_queue_hook = [&options] {
    const std::string shard0 = options.fabric_dir + "/queue/shard-0";
    bool scribbled = false;
    for (const auto& entry : std::filesystem::directory_iterator(shard0)) {
      std::ofstream out(entry.path(), std::ios::trunc);
      out << "not a task file at all\n";
      scribbled = true;
      break;
    }
    ASSERT_TRUE(scribbled) << "no task file found to corrupt";
  };
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.queue_corrupt, 1);
}

TEST(FabricTest, PreAgedQueueFilesDoNotTriggerSpuriousBackups) {
  // rename(2) preserves mtime, so a claim file's on-disk timestamp is
  // really the task's write time. Age every queued task an hour into the
  // past: if staleness were judged from mtime, every cell would look like
  // a straggler the instant it was claimed. The coordinator must age
  // claims against its own first-seen clock and dispatch no backups.
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("pre_aged");
  options.num_processes = 2;
  options.worker_timeout_s = 5.0;  // Far above any real cell's runtime.
  options.after_queue_hook = [&options] {
    const auto past = std::filesystem::file_time_type::clock::now() -
                      std::chrono::hours(1);
    for (int shard = 0; shard < 2; ++shard) {
      const std::string dir =
          options.fabric_dir + "/queue/shard-" + std::to_string(shard);
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        std::filesystem::last_write_time(entry.path(), past);
      }
    }
  };
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_EQ(stats.cells_redispatched, 0);
}

TEST(FabricTest, ForeignEntriesFromAReusedFabricDirAreDiscarded) {
  // A reused fabric dir can hold claim/fail/task/corrupt entries from a
  // previous, larger spec. Indices parsed from those names must be
  // bounds-checked and the entries discarded — never used to index the
  // coordinator's per-cell state, and never computed by a worker.
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("foreign");
  options.num_processes = 2;
  options.after_queue_hook = [&options] {
    auto drop = [&options](const std::string& rel,
                           const std::string& content) {
      std::ofstream out(options.fabric_dir + "/" + rel, std::ios::binary);
      out << content;
      ASSERT_TRUE(out.good()) << rel;
    };
    drop("claims/T999.a0.s7.g9.claim", "ppnfab1 999 00000000deadbeef\n");
    drop("failed/T500.a0.s7.g9.fail", "ppnfab1 500 00000000deadbeef\n");
    drop("corrupt/T888.a0.task.corrupt", "scribble\n");
    drop("queue/shard-0/T777.a0.task", "ppnfab1 777 00000000deadbeef\n");
    // Numbers that overflow their field are foreign names too, never
    // saturated or truncated into a usable index, attempt or owner.
    drop("queue/shard-0/T99999999999999999999.a0.task",
         "ppnfab1 99999999999999999999 00000000deadbeef\n");
    drop("claims/T1.a99999999999.s7.g9.claim",
         "ppnfab1 1 00000000deadbeef\n");
    drop("claims/T2.a0.s99999999999.g9.claim",
         "ppnfab1 2 00000000deadbeef\n");
    // An in-flight-looking temp must never be claimed AS its base task;
    // workers quarantine it, and the coordinator recovers cell 3 from
    // its authoritative list.
    drop("queue/shard-0/T3.a0.task.tmp", "ppnfab1 3 00000000deadbeef\n");
  };
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  // The pre-dropped claim, fail marker, and corrupt entry are processed
  // on the coordinator's first supervision pass, so they are always in
  // the discard count; the shard junk is quarantined by workers on a
  // schedule of its own and only sometimes lands before completion.
  EXPECT_GE(stats.queue_corrupt, 3);
}

TEST(FabricTest, HungWorkerCellIsRedispatchedToABackup) {
  // Slot 0 hangs forever on its first claim. The claim goes stale, the
  // coordinator re-dispatches a backup task, slot 1 computes it, and the
  // straggler is killed at shutdown without poisoning anything.
  const ScopedEnv hang("PPN_FABRIC_TEST_HANG_AFTER", "0:1");
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("hang");
  options.num_processes = 2;
  options.worker_timeout_s = 0.3;
  // The hung worker never exits on its own; don't burn the full
  // shutdown grace waiting for it.
  options.shutdown_grace_s = 0.2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.cells_redispatched, 1);
}

TEST(FabricTest, ResumesFromExistingCellCheckpoints) {
  // A sweep pointed at a checkpoint dir that already holds every cell
  // dispatches nothing: no workers, rows assembled straight from disk.
  ExperimentSpec spec = SmallSpec();
  spec.checkpoint_dir = test::FreshDir("resume_cells");
  const std::vector<CellResult> expected = InProcessRows(spec);

  FabricOptions options = BaseOptions("resume");
  options.num_processes = 2;
  std::vector<std::string> argv = options.worker_argv;
  argv.push_back("--checkpoint-dir");
  argv.push_back(spec.checkpoint_dir);
  options.worker_argv = argv;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(expected, rows);
  EXPECT_EQ(stats.workers_spawned, 0);
}

TEST(FabricTest, MergesWorkerStatsTotalsAndPublishesFabricCounters) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  const bool was_enabled = obs::SetEnabled(true);
  // Snapshots are cumulative, so measure the run as a delta.
  const obs::Snapshot before = obs::TakeSnapshot();
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("obs_merge");
  options.num_processes = 2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  const obs::Snapshot after = obs::TakeSnapshot();
  obs::SetEnabled(was_enabled);
  ASSERT_EQ(rows.size(), 12u);
  // Workers computed the cells, yet the coordinator's snapshot carries
  // their counters: the total lines of the per-worker stats streams were
  // merged in.
  auto delta = [&before, &after](const std::string& name) {
    const auto now = after.counters.find(name);
    const auto base = before.counters.find(name);
    return (now == after.counters.end() ? 0.0 : now->second) -
           (base == before.counters.end() ? 0.0 : base->second);
  };
  EXPECT_GE(delta("exec.cells.completed"), 12.0);
  EXPECT_EQ(delta("exec.fabric.workers_spawned"), 2.0);
  EXPECT_EQ(delta("exec.fabric.workers_died"), 0.0);
}

TEST(FabricTest, UnreadableWorkerStatsStreamIsCountedNotFatal) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  // A stream that exists but is not a ppn.stats.v1 file must be counted
  // (an uncounted drop would silently understate the merged counters)
  // while the rows, which never depend on telemetry, stay bit-identical.
  const bool was_enabled = obs::SetEnabled(true);
  const obs::Snapshot before = obs::TakeSnapshot();
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("obs_unreadable");
  options.num_processes = 2;
  options.keep_fabric_dir = true;
  options.after_queue_hook = [&options] {
    std::ofstream out(options.fabric_dir + "/obs/worker-9.g0.stats.jsonl");
    out << "scribble, not a stats stream\n";
    ASSERT_TRUE(out.good());
  };
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  const obs::Snapshot after = obs::TakeSnapshot();
  obs::SetEnabled(was_enabled);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_EQ(stats.stats_merge_failed, 1);
  auto counter = [](const obs::Snapshot& snapshot, const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0 : it->second;
  };
  EXPECT_EQ(counter(after, "exec.fabric.stats_merge_failed") -
                counter(before, "exec.fabric.stats_merge_failed"),
            1.0);
  // The real workers' streams still merged.
  EXPECT_GE(counter(after, "exec.cells.completed") -
                counter(before, "exec.cells.completed"),
            12.0);
  std::filesystem::remove_all(options.fabric_dir);
}

// ------------------------------------------------------------------ e2e --

/// Rows of a results JSON written by `ppn_cli sweep --json`, with
/// wall_seconds dropped — everything else must be bit-exact across
/// process counts, which is why WriteResultsJson emits %.17g.
std::vector<std::string> JsonRowsModuloWall(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(buffer.str(), &root, &error)) << error;
  std::vector<std::string> rows;
  for (const JsonValue& row : root.AsArray()) {
    std::ostringstream canon;
    for (const auto& [key, value] : row.AsObject()) {
      if (key == "wall_seconds") continue;
      canon << key << "=";
      if (value.is_number()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value.AsNumber());
        canon << buf;
      } else if (value.is_string()) {
        canon << value.AsString();
      }
      canon << ";";
    }
    rows.push_back(canon.str());
  }
  return rows;
}

// The heavy acceptance case below trains neural cells; under
// ThreadSanitizer that is minutes of instrumented training, so the tsan
// lane keeps the classic-strategy cases only.
#if defined(__SANITIZE_THREAD__)
#define PPN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PPN_TSAN_BUILD 1
#endif
#endif

TEST(FabricCliTest, Table3SmokeSpecMatchesAcrossProcessCountsAndAKill) {
#ifdef PPN_TSAN_BUILD
  GTEST_SKIP() << "neural training under tsan is too slow for CI";
#endif
  // The acceptance spec: a table3-shaped smoke sweep (classic baselines
  // plus the EIIE / PPN-I / PPN neural rows) run at --processes 4 with
  // one worker SIGKILLed mid-run, at --processes 1, and in-process — all
  // three bit-identical modulo wall_seconds.
  const std::string dir = test::FreshDir("table3");
  const std::string base =
      std::string(PPN_CLI_BIN) +
      " sweep --datasets crypto-a"
      " --strategies UBAH,Best,CRP,EG,OLMAR,RMR,EIIE,PPN-I,PPN"
      " --costs 0.0025 --seeds 1 --steps 100";
  const std::string log = dir + "/cli.log";
  {
    const ScopedEnv kill("PPN_FABRIC_TEST_KILL_AFTER", "0:1");
    ASSERT_EQ(std::system((base + " --processes 4 --json " + dir +
                           "/p4.json >> " + log + " 2>&1")
                              .c_str()),
              0);
  }
  ASSERT_EQ(std::system((base + " --processes 1 --json " + dir +
                         "/p1.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((base + " --workers 0 --json " + dir +
                         "/inproc.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  const std::vector<std::string> p4 = JsonRowsModuloWall(dir + "/p4.json");
  const std::vector<std::string> p1 = JsonRowsModuloWall(dir + "/p1.json");
  const std::vector<std::string> inproc =
      JsonRowsModuloWall(dir + "/inproc.json");
  ASSERT_EQ(p4.size(), 9u);
  EXPECT_EQ(p4, p1);
  EXPECT_EQ(p4, inproc);
}

TEST(FabricCliTest, FourProcessSweepJsonMatchesOneProcessAndInProcess) {
  const std::string dir = test::FreshDir("cli");
  const std::string base =
      std::string(PPN_CLI_BIN) +
      " sweep --datasets crypto-a --strategies UBAH,CRP,OLMAR"
      " --costs 0,0.0025 --seeds 1,7";
  const std::string log = dir + "/cli.log";
  ASSERT_EQ(std::system((base + " --processes 4 --json " + dir +
                         "/p4.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((base + " --processes 1 --json " + dir +
                         "/p1.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((base + " --workers 0 --json " + dir +
                         "/inproc.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  const std::vector<std::string> p4 = JsonRowsModuloWall(dir + "/p4.json");
  const std::vector<std::string> p1 = JsonRowsModuloWall(dir + "/p1.json");
  const std::vector<std::string> inproc =
      JsonRowsModuloWall(dir + "/inproc.json");
  ASSERT_EQ(p4.size(), 12u);
  EXPECT_EQ(p4, p1);
  EXPECT_EQ(p4, inproc);
}

}  // namespace
}  // namespace ppn::exec
