#ifndef PPN_EXEC_FABRIC_H_
#define PPN_EXEC_FABRIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/experiment.h"

/// \file
/// The sharded multi-process sweep fabric: a coordinator that fans the
/// cells of an `ExperimentSpec` out across WORKER PROCESSES (fork/exec of
/// `ppn_cli sweep-worker`, or any binary speaking the same protocol),
/// with a spill-to-disk work queue, work-stealing, and elastic worker
/// restart. This is what scales a sweep past one address space — and the
/// stepping stone to multi-machine execution (the whole protocol is
/// files; nothing below assumes a shared memory space, only a shared
/// filesystem).
///
/// ## Protocol (everything lives under `fabric_dir`)
///
///   queue/shard-<s>/T<index>.a<attempt>.task   one claimable cell
///   staging/                                   task files mid-write; the
///                                              coordinator publishes by
///                                              rename so shards only ever
///                                              hold complete `.task` files
///   claims/T<index>.a<k>.s<slot>.g<gen>.claim  claimed by worker slot/gen
///   done/T<index>.done                         cell finished + persisted
///   failed/T<index>.a<k>.s<slot>.g<gen>.fail   checkpoint commit failed
///   corrupt/<name>.corrupt                     unreadable/mismatched task
///   cells/cell-<seed>.ckpt                     the ONLY result state
///   obs/worker-<slot>.g<gen>.{log,status,trace.json,stats.jsonl}
///   obs/{coordinator.trace.json,merged.trace.json}
///                                              written at assembly when
///                                              tracing is on
///
/// A task file carries `ppnfab1 <index> <derived_seed hex>`; the worker
/// validates the seed echo against its own `CellPlan`, so a coordinator
/// and worker that disagree about the spec can never silently mix
/// results. A worker CLAIMS a cell by renaming the task file into
/// `claims/` — rename is atomic within a filesystem, so exactly one
/// worker wins — runs it, commits the per-cell checkpoint (the PR-4
/// crash-safe kind), and renames its claim into `done/`. Workers prefer
/// their own shard and STEAL from other shards once it drains.
///
/// Because the only cross-process state is the atomically-committed cell
/// checkpoint, workers are disposable: a worker SIGKILLed mid-cell leaves
/// either no checkpoint (the cell is re-dispatched and recomputed — same
/// key, same seed, same bits) or a complete one (the replacement restores
/// it). Merged results are therefore bit-identical to a single-process
/// run, modulo `wall_seconds`.
///
/// ## Failure matrix (coordinator side)
///
///   worker exits nonzero / dies by signal → requeue its claims, respawn
///     the slot with exponential backoff, bounded by `max_restarts`
///   claim unchanged for `worker_timeout_s` → straggler: re-dispatch a
///     duplicate task (checkpoint commits are idempotent — identical
///     bits — so whoever finishes first wins and the other is harmless).
///     Staleness ages against the coordinator's FIRST-SEEN clock, not the
///     claim file's mtime (rename preserves mtime, which reflects queue
///     wait). Backups are capped per cell but are speculative, not
///     failures: they never spend the abort budget.
///   corrupt/mismatched task file           → rewrite from the
///     coordinator's authoritative cell list, bounded per cell
///   done marker without a loadable ckpt    → drop the marker, requeue
///   cell FAILING `max_cell_attempts` times → abort loudly (worker
///     deaths, corruption, failed commits, lost checkpoints — not
///     straggler backups)
///
/// Observability: `exec.fabric.*` counters (workers spawned / died /
/// restarted, cells stolen / re-dispatched, corrupt queue files, failed
/// checkpoint writes, unreadable worker stats streams), per-worker
/// console logs, and — when obs is on — one `ppn.stats.v1` stream per
/// worker (`obs/worker-<slot>.g<gen>.stats.jsonl`). At assembly the
/// coordinator folds each stream's `total` line into its own registry
/// (counters add, gauges take the max), so one report covers the whole
/// sweep; a stream without a total line (a SIGKILLed worker) is skipped.
/// With `PPN_TRACE_JSON` set, the assembly also stitches the
/// coordinator's and every worker generation's Chrome traces into one
/// Perfetto timeline (obs/trace_merge.h), copied to
/// `$PPN_TRACE_JSON.merged.json`; with `PPN_STATS_JSONL` set on the
/// coordinator, each worker stream is copied byte for byte to
/// `$PPN_STATS_JSONL.worker-<slot>.g<gen>.stats.jsonl`, in the same
/// `ppn.stats.v1` format `ppn_cli top` reads.

namespace ppn::exec {

/// Coordinator-side bookkeeping for one fabric sweep. Mirrored into
/// `exec.fabric.*` obs counters when profiling is enabled.
struct FabricStats {
  int64_t workers_spawned = 0;     ///< Including respawns.
  int64_t workers_died = 0;        ///< Nonzero exit or killed by signal.
  int64_t workers_restarted = 0;   ///< Replacement spawns.
  int64_t cells_stolen = 0;        ///< Claimed outside the owner shard.
  int64_t cells_redispatched = 0;  ///< Requeued after death/timeout/loss.
  int64_t queue_corrupt = 0;       ///< Corrupt task files recovered.
  int64_t ckpt_write_failures = 0; ///< Worker-side failed cell commits.
  int64_t cells_restored = 0;      ///< Loaded from pre-existing ckpts.
  int64_t stats_merge_failed = 0;  ///< Worker streams unreadable.
};

struct FabricOptions {
  /// Worker processes to keep alive while work remains. Must be >= 1.
  int num_processes = 2;

  /// Scratch + handoff directory (created if needed). Unless
  /// `keep_fabric_dir`, it is removed after a fully successful sweep.
  std::string fabric_dir;

  /// Base argv of a worker, e.g. {"/path/ppn_cli", "sweep-worker",
  /// "--datasets", "crypto-a", ...} — flags that rebuild THE SAME spec
  /// the coordinator was given. The fabric appends
  /// `--fabric-dir <dir> --worker-slot <s> --worker-gen <g>`.
  std::vector<std::string> worker_argv;

  /// Claims older than this are considered stragglers and re-dispatched.
  /// < 0 reads `PPN_FABRIC_WORKER_TIMEOUT_S` (default 300).
  double worker_timeout_s = -1.0;

  /// Total worker (re)spawns beyond the initial `num_processes` before
  /// the coordinator gives up. < 0 reads `PPN_FABRIC_MAX_RESTARTS`
  /// (default 8).
  int max_restarts = -1;

  /// FAILURE-driven requeues (worker death, corrupt task, failed
  /// checkpoint commit, lost checkpoint) one cell may absorb before the
  /// sweep aborts. Speculative straggler backups are capped at the same
  /// count per cell but never abort — a cell legitimately slower than
  /// `worker_timeout_s` keeps its original claim running.
  int max_cell_attempts = 4;

  /// Supervision poll interval.
  double poll_interval_s = 0.05;

  /// How long the shutdown path waits for still-live workers to finish
  /// their clean exit (status file, trace + stats stream flush) before
  /// SIGKILLing them. Workers that already exited cost nothing; only a
  /// genuinely hung worker pays the full grace. 0 restores the old
  /// kill-immediately behavior (which loses end-of-run telemetry from
  /// any worker slower to exit than the coordinator's final poll).
  double shutdown_grace_s = 5.0;

  /// Leave `fabric_dir` in place after success (debugging; always left
  /// in place on failure).
  bool keep_fabric_dir = false;

  /// Test hooks. `after_queue_hook` runs after the queue is written but
  /// before any worker spawns (fault injection); `on_spawn` observes
  /// every (slot, pid) spawn.
  std::function<void()> after_queue_hook;
  std::function<void(int slot, long pid)> on_spawn;
};

/// Runs the sweep across worker processes and returns rows in cell
/// enumeration order — bit-identical to `ExperimentRunner::Run` on the
/// same spec (modulo `wall_seconds`), at any process count, and across
/// worker kills. Aborts (PPN_CHECK) when the sweep cannot be completed
/// within the restart/attempt bounds; `stats`, when non-null, receives
/// the supervision counters either way.
std::vector<CellResult> RunSweepFabric(const ExperimentSpec& spec,
                                       const FabricOptions& options,
                                       FabricStats* stats = nullptr);

/// Worker entry point (what `ppn_cli sweep-worker` calls after rebuilding
/// the spec from its flags): claims cells from shard `worker_slot` (then
/// steals), computes or restores each, commits its checkpoint, and marks
/// it done. Returns 0 on a clean drain. Honors the fault-injection knobs
/// `PPN_FABRIC_TEST_KILL_AFTER` / `PPN_FABRIC_TEST_HANG_AFTER`
/// ("<slot>:<cells>") for the fabric test suite.
int FabricWorkerMain(const ExperimentSpec& spec, const std::string& fabric_dir,
                     int worker_slot, int worker_gen);

}  // namespace ppn::exec

#endif  // PPN_EXEC_FABRIC_H_
