// Cross-process trace stitching: schema validity of the merged Perfetto
// JSON (metadata events, (pid, ts, tid) ordering, flow s/f pairing,
// flow-id disjointness, clock alignment) on synthetic inputs, then the
// real thing — a 2-process traced fabric sweep through the ppn_cli
// binary, which must yield ONE merged timeline with the coordinator and
// both workers, >= 1 flow pair per completed cell, and result rows
// bit-identical to an untraced run.

#include "obs/trace_merge.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/sampler.h"
#include "test_dir.h"

namespace ppn::obs {
namespace {

namespace fs = std::filesystem;

// Workers rebuild their spec from flags via GetRunScale(), so the scale
// must travel through the environment.
const bool kScaleForced = [] {
  ::setenv("PPN_SCALE", "smoke", 1);
  return true;
}();

/// Sets an env var for one test and restores the previous state on exit.
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

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

JsonValue ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(buffer.str(), &root, &error)) << path << ": " << error;
  return root;
}

/// A minimal coordinator-shaped trace: one `fabric.dispatch` slice per
/// cell index, anchored at wall-clock epoch `epoch_us`.
std::string CoordinatorTrace(int64_t epoch_us) {
  return R"({"traceEvents": [
    {"name": "fabric.dispatch", "ph": "X", "ts": 100.0, "dur": 10.0,
     "pid": 1, "tid": 1, "args": {"index": 0, "attempt": 0}},
    {"name": "fabric.dispatch", "ph": "X", "ts": 200.0, "dur": 10.0,
     "pid": 1, "tid": 1, "args": {"index": 1, "attempt": 0}},
    {"name": "flow.local", "ph": "s", "cat": "step", "id": 1,
     "ts": 150.0, "pid": 1, "tid": 1},
    {"name": "flow.local", "ph": "f", "bp": "e", "cat": "step", "id": 1,
     "ts": 160.0, "pid": 1, "tid": 1}
  ],
  "displayTimeUnit": "ms",
  "otherData": {"ppn_dropped_events": 0, "ppn_epoch_unix_us": )" +
         std::to_string(epoch_us) + "}}";
}

/// A worker-shaped trace: `exec.cell` slices for `indices`, with its own
/// local flow using the SAME raw id the coordinator used (the merge must
/// keep them disjoint).
std::string WorkerTrace(int64_t epoch_us, const std::vector<int>& indices) {
  std::string events;
  double ts = 50.0;
  for (const int index : indices) {
    if (!events.empty()) events += ",\n";
    events += R"({"name": "exec.cell", "ph": "X", "ts": )" +
              std::to_string(ts) + R"(, "dur": 40.0, "pid": 1, "tid": 1,
               "args": {"index": )" +
              std::to_string(index) + "}}";
    ts += 100.0;
  }
  events += R"(,
    {"name": "flow.local", "ph": "s", "cat": "step", "id": 1,
     "ts": 60.0, "pid": 1, "tid": 1},
    {"name": "flow.local", "ph": "f", "bp": "e", "cat": "step", "id": 1,
     "ts": 70.0, "pid": 1, "tid": 1})";
  return R"({"traceEvents": [)" + events + R"(],
  "displayTimeUnit": "ms",
  "otherData": {"ppn_dropped_events": 0, "ppn_epoch_unix_us": )" +
         std::to_string(epoch_us) + "}}";
}

struct MergedView {
  JsonValue root;
  std::vector<JsonValue> events;
  std::map<std::string, int64_t> process_pids;  ///< name -> pid.
};

void LoadMerged(const std::string& path, MergedView* view) {
  view->root = ParseFile(path);
  const JsonValue* events = view->root.Find("traceEvents");
  ASSERT_NE(events, nullptr) << path;
  ASSERT_TRUE(events->is_array()) << path;
  for (const JsonValue& event : events->AsArray()) {
    view->events.push_back(event);
    if (event.StringOr("ph", "") == "M" &&
        event.StringOr("name", "") == "process_name") {
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr) << "metadata event without args";
      view->process_pids[args->StringOr("name", "")] =
          static_cast<int64_t>(event.NumberOr("pid", -1.0));
    }
  }
}

TEST(TraceMergeTest, SyntheticTwoProcessMergeIsValidAndPaired) {
  const std::string dir = test::FreshDir("synthetic");
  const int64_t base_epoch = 1'700'000'000'000'000;
  WriteFile(dir + "/coord.json", CoordinatorTrace(base_epoch));
  // The worker's wall clock is 1000 us ahead: its local ts values must be
  // shifted right by 1000 on the merged axis.
  WriteFile(dir + "/worker.json", WorkerTrace(base_epoch + 1000, {0, 1}));

  const std::string out = dir + "/merged.json";
  TraceMergeStats stats;
  std::string error;
  ASSERT_TRUE(MergeChromeTraces({{"coordinator", dir + "/coord.json"},
                                 {"worker-0.g0", dir + "/worker.json"}},
                                out, &error, &stats))
      << error;
  EXPECT_EQ(stats.processes, 2);
  EXPECT_EQ(stats.skipped_files, 0);
  EXPECT_EQ(stats.flow_pairs, 2);  // Cells 0 and 1 seen on both sides.

  MergedView view;
  ASSERT_NO_FATAL_FAILURE(LoadMerged(out, &view));

  // Both processes present, distinct pids, metadata-led.
  ASSERT_EQ(view.process_pids.size(), 2u);
  ASSERT_TRUE(view.process_pids.count("coordinator"));
  ASSERT_TRUE(view.process_pids.count("worker-0.g0"));
  const int64_t coord_pid = view.process_pids["coordinator"];
  const int64_t worker_pid = view.process_pids["worker-0.g0"];
  EXPECT_NE(coord_pid, worker_pid);

  // Every event carries the required keys and the stream is sorted by
  // (pid, ts, tid) with metadata first within its pid.
  std::vector<std::vector<double>> keys;
  for (const JsonValue& event : view.events) {
    EXPECT_TRUE(event.Find("name") != nullptr);
    EXPECT_TRUE(event.Find("ph") != nullptr);
    EXPECT_TRUE(event.Find("pid") != nullptr);
    EXPECT_TRUE(event.Find("tid") != nullptr);
    const bool metadata = event.StringOr("ph", "") == "M";
    if (!metadata) {
      EXPECT_TRUE(event.Find("ts") != nullptr);
    }
    keys.push_back({event.NumberOr("pid", -1.0), metadata ? 0.0 : 1.0,
                    event.NumberOr("ts", 0.0), event.NumberOr("tid", -1.0)});
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  // Clock alignment: the worker's exec.cell for index 0 was at local ts
  // 50 with a +1000 us epoch skew; on the shared axis it lands at 1050.
  bool cell0_seen = false;
  for (const JsonValue& event : view.events) {
    if (event.StringOr("name", "") != "exec.cell") continue;
    const JsonValue* args = event.Find("args");
    if (args == nullptr ||
        static_cast<int>(args->NumberOr("index", -1.0)) != 0) {
      continue;
    }
    cell0_seen = true;
    EXPECT_DOUBLE_EQ(event.NumberOr("ts", 0.0), 1050.0);
  }
  EXPECT_TRUE(cell0_seen);

  // Flow validity: every `s` has exactly one same-(cat, id) `f`, and the
  // two processes' identically-numbered local flows stay disjoint. Ids
  // are emitted as hex STRINGS so 64-bit remapped values stay exact.
  std::map<std::string, int> starts;
  std::map<std::string, int> finishes;
  int fabric_flows = 0;
  for (const JsonValue& event : view.events) {
    const std::string ph = event.StringOr("ph", "");
    if (ph != "s" && ph != "f") continue;
    const std::string id = event.StringOr("id", "");
    EXPECT_FALSE(id.empty()) << "flow event with non-string id";
    const std::string key = event.StringOr("cat", "") + "#" + id;
    if (ph == "s") ++starts[key];
    if (ph == "f") {
      ++finishes[key];
      EXPECT_EQ(event.StringOr("bp", ""), "e") << key;
    }
    if (event.StringOr("cat", "") == "fabric") ++fabric_flows;
  }
  EXPECT_EQ(starts.size(), finishes.size());
  for (const auto& [key, count] : starts) {
    EXPECT_EQ(count, 1) << key;
    EXPECT_EQ(finishes[key], 1) << key;
  }
  // 2 local flows (coordinator's and worker's, disjoint after remap) + 2
  // synthetic fabric pairs.
  EXPECT_EQ(static_cast<int>(starts.size()), 4);
  EXPECT_EQ(fabric_flows, 4);  // 2 pairs x (s + f).

  // The fabric flow arrows cross processes: s on the coordinator, f on
  // the worker, s.ts <= f.ts.
  for (const JsonValue& event : view.events) {
    if (event.StringOr("cat", "") != "fabric") continue;
    if (event.StringOr("ph", "") == "s") {
      EXPECT_EQ(static_cast<int64_t>(event.NumberOr("pid", -1.0)),
                coord_pid);
    } else {
      EXPECT_EQ(static_cast<int64_t>(event.NumberOr("pid", -1.0)),
                worker_pid);
    }
  }

  // otherData summarizes the merge.
  const JsonValue* other = view.root.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(static_cast<int>(other->NumberOr("ppn_merged_processes", -1.0)),
            2);
  EXPECT_EQ(static_cast<int>(other->NumberOr("ppn_flow_pairs", -1.0)), 2);
}

TEST(TraceMergeTest, SameProcessDispatchAndCellPairsAreSuppressed) {
  // Dispatch and cell in ONE file (e.g. an in-process sweep's trace):
  // a flow arrow from a process to itself is noise, not a handoff.
  const std::string dir = test::FreshDir("same_pid");
  WriteFile(dir + "/solo.json", R"({"traceEvents": [
    {"name": "fabric.dispatch", "ph": "X", "ts": 10.0, "dur": 5.0,
     "pid": 1, "tid": 1, "args": {"index": 0}},
    {"name": "exec.cell", "ph": "X", "ts": 20.0, "dur": 5.0,
     "pid": 1, "tid": 2, "args": {"index": 0}}
  ], "otherData": {"ppn_epoch_unix_us": 0}})");
  TraceMergeStats stats;
  std::string error;
  ASSERT_TRUE(MergeChromeTraces({{"solo", dir + "/solo.json"}},
                                dir + "/merged.json", &error, &stats))
      << error;
  EXPECT_EQ(stats.flow_pairs, 0);
}

TEST(TraceMergeTest, UnreadableInputsAreSkippedNotFatal) {
  const std::string dir = test::FreshDir("skip");
  WriteFile(dir + "/good.json", CoordinatorTrace(0));
  WriteFile(dir + "/bad.json", "this is not json");
  TraceMergeStats stats;
  std::string error;
  ASSERT_TRUE(MergeChromeTraces(
      {{"coordinator", dir + "/good.json"},
       {"worker-0.g0", dir + "/bad.json"},
       {"worker-1.g0", dir + "/missing.json"}},
      dir + "/merged.json", &error, &stats));
  EXPECT_EQ(stats.processes, 1);
  EXPECT_EQ(stats.skipped_files, 2);
  // ...but NO parsable input at all is an error.
  EXPECT_FALSE(MergeChromeTraces({{"w", dir + "/bad.json"}},
                                 dir + "/merged2.json", &error, &stats));
}

// ------------------------------------------------------------------ e2e --

/// Rows of a results JSON with wall_seconds dropped — everything else
/// must be bit-exact with observability on or off.
std::vector<std::string> JsonRowsModuloWall(const std::string& path) {
  JsonValue root = ParseFile(path);
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

int RunCommand(const std::string& command) {
  return std::system(command.c_str());
}

TEST(TraceMergeCliTest, TracedTwoProcessSweepStitchesOneTimeline) {
  const std::string dir = test::FreshDir("cli_e2e");
  const std::string fabric_dir = dir + "/fab";
  const std::string log = dir + "/cli.log";
  const std::string base =
      std::string(PPN_CLI_BIN) +
      " sweep --datasets crypto-a --strategies UBAH,CRP,OLMAR"
      " --costs 0.0025 --seeds 1,7";

  // Traced + sampled 2-process run. A user-chosen --fabric-dir is kept
  // after the sweep, so its obs/ artifacts stay inspectable.
  {
    const ScopedEnv trace("PPN_TRACE_JSON", dir + "/sweep.trace.json");
    const ScopedEnv stats_env("PPN_STATS_JSONL", dir + "/sweep.stats.jsonl");
    const ScopedEnv sample("PPN_SAMPLE_MS", "25");
    ASSERT_EQ(RunCommand(base + " --processes 2 --fabric-dir " + fabric_dir +
                  " --json " + dir + "/traced.json >> " + log + " 2>&1"),
              0);
  }
  // Plain run: rows must be bit-identical to the instrumented one.
  ASSERT_EQ(RunCommand(base + " --workers 0 --json " + dir + "/plain.json >> " +
                log + " 2>&1"),
            0);
  EXPECT_EQ(JsonRowsModuloWall(dir + "/traced.json"),
            JsonRowsModuloWall(dir + "/plain.json"));

#ifdef PPN_OBS_DISABLED
  // Compiled-out builds run the sweep but write no traces; the identity
  // check above is the whole contract.
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif

  // ONE merged timeline: coordinator + both workers, with >= 1 flow pair
  // per completed cell (6 cells, some possibly restored not computed).
  const std::string merged = fabric_dir + "/obs/merged.trace.json";
  ASSERT_TRUE(fs::exists(merged)) << merged;
  MergedView view;
  ASSERT_NO_FATAL_FAILURE(LoadMerged(merged, &view));
  ASSERT_GE(view.process_pids.size(), 3u);
  EXPECT_TRUE(view.process_pids.count("coordinator"));
  EXPECT_TRUE(view.process_pids.count("worker-0.g0"));
  EXPECT_TRUE(view.process_pids.count("worker-1.g0"));

  std::set<int> dispatched;
  std::set<std::string> flow_ids;
  int flow_starts = 0;
  int flow_finishes = 0;
  std::vector<std::vector<double>> keys;
  for (const JsonValue& event : view.events) {
    const bool metadata = event.StringOr("ph", "") == "M";
    keys.push_back({event.NumberOr("pid", -1.0), metadata ? 0.0 : 1.0,
                    event.NumberOr("ts", 0.0), event.NumberOr("tid", -1.0)});
    if (event.StringOr("name", "") == "fabric.dispatch") {
      if (const JsonValue* args = event.Find("args"); args != nullptr) {
        dispatched.insert(static_cast<int>(args->NumberOr("index", -1.0)));
      }
    }
    if (event.StringOr("cat", "") == "fabric") {
      if (event.StringOr("ph", "") == "s") ++flow_starts;
      if (event.StringOr("ph", "") == "f") ++flow_finishes;
      flow_ids.insert(event.StringOr("id", ""));
    }
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(dispatched.size(), 6u);  // All 6 cells dispatched once.
  EXPECT_EQ(flow_starts, 6);         // One handoff arrow per cell.
  EXPECT_EQ(flow_finishes, 6);
  EXPECT_EQ(flow_ids.size(), 6u);    // Pairwise-distinct flow ids.

  // The merged timeline is also copied next to $PPN_TRACE_JSON.
  EXPECT_TRUE(fs::exists(dir + "/sweep.trace.json.merged.json"));

  // Each worker stats stream is copied next to the coordinator's...
  EXPECT_TRUE(
      fs::exists(dir + "/sweep.stats.jsonl.worker-0.g0.stats.jsonl"));
  EXPECT_TRUE(
      fs::exists(dir + "/sweep.stats.jsonl.worker-1.g0.stats.jsonl"));
  StatsStream worker_stream;
  ASSERT_TRUE(ReadStatsStream(fabric_dir + "/obs/worker-0.g0.stats.jsonl",
                              &worker_stream));
  EXPECT_EQ(worker_stream.process, "worker-0.g0");
  EXPECT_GE(worker_stream.samples.size(), 1u);

  // `ppn_cli top` renders one frame off the kept fabric dir.
  const std::string top_out = dir + "/top.out";
  ASSERT_EQ(RunCommand(std::string(PPN_CLI_BIN) + " top --dir " + fabric_dir +
                " --iterations 1 > " + top_out + " 2>&1"),
            0);
  std::ifstream top_in(top_out);
  std::ostringstream top_text;
  top_text << top_in.rdbuf();
  EXPECT_NE(top_text.str().find("worker-0.g0"), std::string::npos)
      << top_text.str();
  EXPECT_NE(top_text.str().find("fabric:"), std::string::npos);
  EXPECT_NE(top_text.str().find("done"), std::string::npos);

  // `report --merge-trace` re-stitches the same dir on demand.
  const std::string remerged = dir + "/remerged.json";
  ASSERT_EQ(RunCommand(std::string(PPN_CLI_BIN) + " report --merge-trace " +
                fabric_dir + " --out " + remerged + " >> " + log + " 2>&1"),
            0);
  MergedView review;
  ASSERT_NO_FATAL_FAILURE(LoadMerged(remerged, &review));
  EXPECT_GE(review.process_pids.size(), 3u);
}

TEST(TraceMergeCliTest, DefaultScratchSweepKeepsEveryWorkerStatsStream) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  // No --fabric-dir: the scratch dir lands under $TMPDIR and is removed
  // after the sweep, so the worker streams must survive as copies next
  // to $PPN_STATS_JSONL.
  const std::string dir = test::FreshDir("cli_worker_streams");
  const std::string tmp = dir + "/tmp";
  fs::create_directories(tmp);
  const std::string stats = dir + "/coordinator.stats.jsonl";
  {
    const ScopedEnv tmpdir("TMPDIR", tmp);
    const ScopedEnv stats_env("PPN_STATS_JSONL", stats);
    const ScopedEnv sample("PPN_SAMPLE_MS", "25");
    ASSERT_EQ(RunCommand(std::string(PPN_CLI_BIN) +
                  " sweep --datasets crypto-a --strategies UBAH,CRP"
                  " --costs 0.0025 --seeds 1,7 --processes 2 > " +
                  dir + "/cli.log 2>&1"),
              0);
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(tmp)) {
    ADD_FAILURE() << "scratch left behind: " << entry.path();
  }
  for (const std::string worker : {"worker-0.g0", "worker-1.g0"}) {
    StatsStream stream;
    std::string error;
    ASSERT_TRUE(ReadStatsStream(stats + "." + worker + ".stats.jsonl",
                                &stream, &error))
        << error;
    EXPECT_EQ(stream.process, worker);
    EXPECT_TRUE(stream.total.has_value()) << worker;
  }

  // `top` over the sink directory lists the coordinator and both workers.
  const std::string top_out = dir + "/top.out";
  ASSERT_EQ(RunCommand(std::string(PPN_CLI_BIN) + " top --dir " + dir +
                " --iterations 1 > " + top_out + " 2>&1"),
            0);
  std::ifstream top_in(top_out);
  std::ostringstream top_text;
  top_text << top_in.rdbuf();
  for (const char* process : {"coordinator", "worker-0.g0", "worker-1.g0"}) {
    EXPECT_NE(top_text.str().find(process), std::string::npos)
        << process << " missing from:\n" << top_text.str();
  }
}

TEST(TraceMergeCliTest, FailingHealthRuleMakesTheRunExitNonzero) {
  const std::string dir = test::FreshDir("cli_health");
  const std::string log = dir + "/cli.log";
  const std::string base =
      std::string(PPN_CLI_BIN) + " baselines --dataset crypto-a";
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  {
    // An invariant that cannot hold: at least one solver call happens.
    const ScopedEnv health("PPN_HEALTH", "backtest.solver.calls==0");
    const int status =
        RunCommand(base + " > " + log + " 2>&1");
    EXPECT_NE(status, 0);
  }
  std::ifstream in(log);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("PPN_HEALTH: FAIL"), std::string::npos)
      << text.str();
  {
    // And the same rule inverted passes with exit 0.
    const ScopedEnv health("PPN_HEALTH", "backtest.solver.calls>=1");
    EXPECT_EQ(RunCommand(base + " > " + log + " 2>&1"), 0);
  }
}

}  // namespace
}  // namespace ppn::obs
