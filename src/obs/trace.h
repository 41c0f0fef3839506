#ifndef PPN_OBS_TRACE_H_
#define PPN_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/stats.h"

/// \file
/// Span-level timeline tracing: RAII `obs::Span` scopes record Chrome
/// trace-event "complete" slices (name, thread, wall-clock start,
/// duration, numeric args) into PER-THREAD buffers, and
/// `BeginFlow`/`EndFlow` record cross-thread flow arrows — stitched
/// through `exec::ThreadPool` task submission so a Perfetto timeline
/// shows which submit produced which worker slice.
///
/// Design constraints, in the same priority order as stats.h:
///
/// 1. **No locks, no allocation on the hot path.** A thread appends into
///    its own preallocated buffer; the only synchronization is a
///    release-store of the event count (so an export from another thread
///    reads fully-constructed events and the TSAN lane stays clean). A
///    full buffer drops further events (counted) instead of growing.
/// 2. **Determinism is untouched.** Tracing only reads clocks and copies
///    values; it feeds nothing back.
/// 3. **Inert when off.** `Span` construction is one branch when tracing
///    is disabled, and the whole layer compiles out with the rest of
///    `src/obs` under -DPPN_OBS_COMPILED=OFF.
///
/// Runtime enablement: tracing is ON when profiling is on (`Enabled()`)
/// AND a trace sink is armed — `PPN_TRACE_JSON=<path>` at startup, or
/// `SetTraceEnabled(true)` from tests. `WriteTraceIfRequested()` (called
/// by `ppn_cli` and `bench::BenchContext` on exit) writes the merged
/// Chrome trace-event JSON to the `PPN_TRACE_JSON` path; load it at
/// https://ui.perfetto.dev or chrome://tracing.
///
/// Environment knobs:
///   PPN_TRACE_JSON=<path>   arm tracing + set the export destination
///   PPN_TRACE_CAPACITY=<n>  per-thread event-buffer capacity (default
///                           65536; events beyond it are dropped and
///                           counted in `TraceDroppedEvents()` / the
///                           export's "ppn_dropped_events" metadata)

namespace ppn::obs {

#ifndef PPN_OBS_DISABLED
namespace internal {
std::atomic<bool>& TraceFlag();
}  // namespace internal
#endif

/// True when span/flow recording is active right now.
inline bool TraceEnabled() {
#ifdef PPN_OBS_DISABLED
  return false;
#else
  return Enabled() &&
         internal::TraceFlag().load(std::memory_order_relaxed);
#endif
}

/// Arms/disarms the trace sink at runtime (tests); returns the previous
/// value. `Enabled()` must also hold for recording to happen. The
/// compile-out build ignores the setting.
bool SetTraceEnabled(bool enabled);

/// RAII trace arming for tests (enables profiling too, since tracing is
/// gated on both).
class ScopedTraceEnable {
 public:
  explicit ScopedTraceEnable(bool enabled = true)
      : previous_obs_(SetEnabled(enabled)),
        previous_trace_(SetTraceEnabled(enabled)) {}
  ~ScopedTraceEnable() {
    SetTraceEnabled(previous_trace_);
    SetEnabled(previous_obs_);
  }

  ScopedTraceEnable(const ScopedTraceEnable&) = delete;
  ScopedTraceEnable& operator=(const ScopedTraceEnable&) = delete;

 private:
  bool previous_obs_;
  bool previous_trace_;
};

/// Maximum numeric args per span.
inline constexpr int kMaxSpanArgs = 4;

#ifndef PPN_OBS_DISABLED

/// RAII wall-clock slice. Records a Chrome "X" (complete) event into the
/// calling thread's buffer at destruction — begin/end nesting therefore
/// follows C++ scope nesting exactly. Arg KEYS must be string literals
/// (stored by pointer); values are doubles.
///
///   {
///     obs::Span span("trainer.step");
///     span.AddArg("step", static_cast<double>(step));
///     ...
///   }  // recorded here
///
/// `min_duration_us` suppresses recording of spans shorter than the
/// threshold (useful for per-kernel spans that would otherwise flood the
/// buffer).
class Span {
 public:
  explicit Span(std::string_view name, double min_duration_us = 0.0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric arg (shown in the trace viewer). `key` must be a
  /// string literal. Silently keeps only the first kMaxSpanArgs args.
  void AddArg(const char* key, double value);

  /// True when this span will record (tracing was on at construction).
  bool active() const { return active_; }

 private:
  bool active_ = false;
  double min_duration_us_ = 0.0;
  double start_us_ = 0.0;
  int num_args_ = 0;
  std::array<std::pair<const char*, double>, kMaxSpanArgs> args_;
  std::string name_;
};

#else  // PPN_OBS_DISABLED: spans compile to nothing.

class Span {
 public:
  explicit Span(std::string_view, double = 0.0) {}
  void AddArg(const char*, double) {}
  bool active() const { return false; }
};

#endif  // PPN_OBS_DISABLED

/// Starts a cross-thread flow arrow named `name` on the CALLING thread
/// and returns its id, or 0 when tracing is off. `name` must be a string
/// literal and the SAME literal must be passed to `EndFlow`.
uint64_t BeginFlow(const char* name);

/// Terminates flow `id` (from `BeginFlow`) on the calling thread; no-op
/// for id 0.
void EndFlow(uint64_t id, const char* name);

/// Number of events dropped because a thread buffer filled up.
int64_t TraceDroppedEvents();

/// Renders every thread's events as Chrome trace-event JSON (an object
/// with a "traceEvents" array, sorted by thread id then timestamp so the
/// file structure is stable).
std::string TraceToJson();

/// Writes `TraceToJson()` to `path` atomically; false if the file cannot
/// be written.
bool WriteTraceJson(const std::string& path);

/// Honors `PPN_TRACE_JSON=<path>`: writes the merged trace there and
/// returns true on success. No-op (returns false) when unset or empty.
bool WriteTraceIfRequested();

/// Clears every thread's event buffer and the drop counter (handles stay
/// valid). Callers must be quiescent; intended for tests.
void ResetTrace();

}  // namespace ppn::obs

#endif  // PPN_OBS_TRACE_H_
