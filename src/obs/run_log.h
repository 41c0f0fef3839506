#ifndef PPN_OBS_RUN_LOG_H_
#define PPN_OBS_RUN_LOG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/atomic_file.h"

/// \file
/// Streaming per-step training telemetry: `obs::RunLog` records EVERY
/// training step's scalars — the cost-sensitive reward total and its
/// λ-variance / γ-turnover components, gradient norm, PVM staleness,
/// cost-solver iterations, step wall time — as one JSONL line per step,
/// one file per experiment cell. It is the only per-step channel and the
/// substrate for training-dynamics analysis (Table 6 turnover
/// trajectories, Table 7 variance suppression): nothing is downsampled
/// and nothing wraps.
///
/// Architecture: `Append` formats the record on the calling (training)
/// thread and streams it into the buffered `common/atomic_file.h`
/// writer, so a step reaches the kernel only when the stream's buffer
/// fills (about every 8 KiB, ≈30 records). Records are never dropped: a
/// stalled disk stalls the step that fills the buffer, since a gap in a
/// dynamics curve is worse than a slow step. A crash mid-run leaves no
/// partial file at the target path; `Close()` (or destruction) commits
/// and renames.
///
/// File format (schema-versioned): first line is a header object
///   {"schema": "ppn.runlog.v1", "run": "<id>", ...metadata...}
/// and every following line is one step record
///   {"step": 0, "reward_total": ..., "reward_log_return": ...,
///    "reward_variance": ..., "reward_turnover": ..., "grad_norm": ...,
///    "pvm_staleness": ..., "solver_iterations": ..., "step_seconds": ...}
/// Doubles are printed with %.17g, so the file round-trips bit-exactly:
/// `ppn_cli report` reproduces the trainer's returned metrics EXACTLY,
/// not approximately.
///
/// Gating follows the rest of `src/obs`: `Open` returns null when
/// `obs::Enabled()` is false (training code holds a null-tolerant
/// pointer), and the whole class is a no-op stub under
/// -DPPN_OBS_COMPILED=OFF. Determinism contract: a RunLog only observes
/// values already computed by the trainer; it feeds nothing back.

namespace ppn::obs {

/// One training step's scalars. Fields that do not apply to a given
/// trainer (e.g. PVM staleness for DDPG) stay 0.
struct RunLogRecord {
  int64_t step = 0;
  double reward_total = 0.0;
  double reward_log_return = 0.0;
  double reward_variance = 0.0;    ///< λ-weighted term's raw variance.
  double reward_turnover = 0.0;    ///< γ-weighted term's raw turnover.
  double grad_norm = 0.0;          ///< Pre-clip global gradient norm.
  double pvm_staleness = 0.0;      ///< Mean steps since batch rows' PVM write.
  double solver_iterations = 0.0;  ///< Cost-solver fixed-point iterations.
  double step_seconds = 0.0;       ///< Wall time of this step.
};

/// Key/value metadata stamped into the header line (strategy, dataset,
/// γ/λ/cost-rate, seed, planned steps).
struct RunLogMeta {
  std::string run_id;
  std::string strategy;
  std::string dataset;
  double gamma = 0.0;
  double lambda = 0.0;
  double cost_rate = 0.0;
  int64_t seed = 0;
  int64_t steps = 0;
};

#ifndef PPN_OBS_DISABLED

class RunLog {
 public:
  /// Opens a run log writing to `path` (atomically, via a .tmp sibling).
  /// Returns null — callers must tolerate it — when `obs::Enabled()` is
  /// false or the file cannot be opened. The header line is written
  /// immediately.
  static std::unique_ptr<RunLog> Open(const std::string& path,
                                      const RunLogMeta& meta);

  /// Commits if `Close` was not called.
  ~RunLog();

  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  /// Writes one step record into the stream's buffer. Discarded after
  /// `Close`. Thread-compatible: one producer per RunLog, which is how
  /// trainers use it.
  void Append(const RunLogRecord& record);

  /// Commits the file (atomic rename). Returns false if any write
  /// failed. Idempotent: later calls return the first verdict.
  bool Close();

  /// Final target path.
  const std::string& path() const { return path_; }

 private:
  RunLog(std::string path, const RunLogMeta& meta);

  std::string path_;
  std::unique_ptr<AtomicFileWriter> file_;  ///< Null once closed.
  bool ok_ = true;
};

#else  // PPN_OBS_DISABLED: the logger compiles to nothing.

class RunLog {
 public:
  static std::unique_ptr<RunLog> Open(const std::string&,
                                      const RunLogMeta&) {
    return nullptr;
  }
  void Append(const RunLogRecord&) {}
  bool Close() { return true; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

#endif  // PPN_OBS_DISABLED

}  // namespace ppn::obs

#endif  // PPN_OBS_RUN_LOG_H_
