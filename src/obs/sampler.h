#ifndef PPN_OBS_SAMPLER_H_
#define PPN_OBS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/stats.h"

/// \file
/// Periodic time-series sampling of the obs registry: a background thread
/// snapshots every `PPN_SAMPLE_MS` milliseconds and appends one JSON line
/// per window to an append-only `ppn.stats.v1` stream, giving every
/// long-running process (trainers, `ppn_cli serve`, fabric workers,
/// benches) a live, tailable view. The stream is the process's only
/// metrics file: its last line is the end-of-run profile.
///
/// ## Stream format (`ppn.stats.v1`)
///
/// Line 1 is a header object; every subsequent line but the last is one
/// sample window, and the last is the whole-run `total` line:
///
///   {"schema": "ppn.stats.v1", "process": "serve", "sample_ms": 250,
///    "start_unix_ms": 1754650000123}
///   {"t_ms": 250.1, "window_ms": 250.1,
///    "counters": {"serve.decisions": 1210},
///    "gauges": {"serve.queue.depth": 32},
///    "hists": {"serve.decide.latency.seconds":
///              {"count": 1210, "mean": 0.0011, "min": 0.0002,
///               "max": 0.004, "p50": 0.0009, "p95": 0.002, "p99": 0.003}},
///    "health": [{"rule": "...p99<5ms", "ok": true, "value": 0.003}]}
///   {"total": true, "t_ms": 1210.4,
///    "counters": {"serve.decisions": 48400}, "gauges": {...},
///    "hists": {"serve.decide.latency.seconds": {"count": 48400, ...}}}
///
///   - `t_ms` is MONOTONIC (steady-clock milliseconds since sampler
///     start); `start_unix_ms` in the header anchors it to wall time so
///     streams from different processes line up on one clock.
///   - `counters` holds per-window DELTAS (zero deltas omitted);
///     `gauges` holds the current high-watermark values; `hists` holds
///     per-window distributions (bucket-wise snapshot deltas — a rolling
///     p99, not the cumulative one). Empty sections are omitted;
///     a window with no activity still emits `{"t_ms": ..}` so liveness
///     is observable.
///   - `health` appears when `PPN_HEALTH` rules are configured,
///     evaluated against the WINDOW view (so a latency rule reads the
///     rolling percentile). Violations also tally into the monitor
///     consumed by the end-of-run summary.
///   - The `total` line is written by `Stop`, right after the final
///     window, from the same registry snapshot: cumulative counters
///     (exactly `TakeSnapshot()`'s doubles; zeros omitted), gauge
///     watermarks, and whole-run histograms with exact min/max and
///     `HistogramSnapshot::Percentile` p50/p95/p99. It carries no
///     `window_ms` and no `health` (exit-time health is judged on the
///     registry). A stream without it was cut short (e.g. SIGKILL).
///   - Doubles print as `%.17g`, so a parse→reprint round trip through
///     `common/json` is bit-exact.
///
/// The sampling thread formats each line and commits it with a single
/// `write(2)` on an append-only fd, so concurrent tailers never observe a
/// torn line (except a benign trailing partial while a write is in
/// flight). A stalled disk stretches the next window, and `window_ms`
/// records its real length.
///
/// The sampler only OBSERVES: it never feeds values back into
/// computation, so result paths stay bit-identical with sampling on or
/// off. Under -DPPN_OBS_COMPILED=OFF, `Start` returns null and the whole
/// implementation compiles out; the stream readers below stay available
/// (they only need `common/json`).

namespace ppn::obs {

struct SamplerOptions {
  std::string path;          ///< Stream path; empty disables.
  std::string process;       ///< `process` field; derived from path if "".
  int64_t sample_ms = 0;     ///< Window length; <= 0 reads PPN_SAMPLE_MS.
  std::vector<HealthRule> health;  ///< Rules evaluated per window.
};

class StatsSampler {
 public:
  /// Starts sampling. Returns null when obs is disabled (runtime or
  /// compile-time) or `options.path` is empty. Aborts on a sample_ms < 1
  /// or an unwritable path is reported via `ok()` after Stop.
  static std::unique_ptr<StatsSampler> Start(const SamplerOptions& options);

  /// Stops with a final window sample (so even sub-window runs emit at
  /// least one line) and the whole-run `total` line, joins the sampling
  /// thread, and closes the stream. Returns false if any write failed.
  /// Idempotent; the destructor calls it.
  bool Stop();

  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// True while every configured health rule has held in every window
  /// sampled so far (vacuously true without rules).
  bool healthy() const;

  /// Cumulative PASS/FAIL summary of the per-window health verdicts.
  std::string HealthSummary(bool color) const;

  const std::string& path() const { return path_; }

 private:
  struct Impl;
  explicit StatsSampler(std::unique_ptr<Impl> impl);

  std::string path_;
  std::unique_ptr<Impl> impl_;
};

/// Honors `PPN_STATS_JSONL` / `PPN_SAMPLE_MS` / `PPN_HEALTH`: starts a
/// sampler streaming to `$PPN_STATS_JSONL` (null when unset/empty or obs
/// is off). `process` labels the stream; when the path's basename looks
/// like `<name>.stats.jsonl` that name wins (fabric workers get their
/// slot/generation identity from their redirected path).
std::unique_ptr<StatsSampler> StartSamplerFromEnv(const std::string& process);

// ---------------------------------------------------------------------------
// Stream readers (always compiled; used by `ppn_cli top` and the fabric
// coordinator's fold of each worker's `total` line).

/// Reader-side view of one histogram window (the stream stores derived
/// stats, not buckets).
struct StatsHistWindow {
  int64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One parsed sample line.
struct StatsSample {
  double t_ms = 0.0;
  double window_ms = 0.0;
  std::map<std::string, double> counters;  ///< Window deltas.
  std::map<std::string, double> gauges;
  std::map<std::string, StatsHistWindow> hists;
  int health_checked = 0;
  int health_failed = 0;
};

/// One parsed stream: header, window samples, and the `total` line
/// (absent when the writer never reached `Stop`).
struct StatsStream {
  std::string process;
  int64_t sample_ms = 0;
  int64_t start_unix_ms = 0;
  std::vector<StatsSample> samples;  ///< Windows only, in stream order.
  std::optional<StatsSample> total;  ///< Cumulative counters, not deltas.
};

/// Parses a `ppn.stats.v1` file. False (with `*error`) when the file is
/// unreadable or the header is not a ppn.stats.v1 object; individual
/// malformed sample lines are skipped, not fatal.
bool ReadStatsStream(const std::string& path, StatsStream* out,
                     std::string* error = nullptr);

}  // namespace ppn::obs

#endif  // PPN_OBS_SAMPLER_H_
