#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "market/dataset.h"
#include "obs/stats.h"
#include "obs/trace.h"

/// \file
/// Shared pieces of the repository benchmark: options, the result report,
/// sample statistics, the bench-side layer clock (an obs::Span plus a
/// self-time table, opened around calls into each layer's public API),
/// and the seeded market every workload starts from.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Recorded golden values (checksums, APVs) the run is checked against.
  std::string expected_path = "perfbench/expected.json";
  /// Directory the traced run writes its Chrome-trace JSON into.
  std::string trace_dir = ".bench_build/traces";
  /// Print the golden values this build produces instead of checking them.
  bool record = false;
};

/// What one run prints as its last line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  void Attempt(int64_t attempted, int64_t failed);

  bool correct() const { return correct_; }
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
  std::string ToJson() const;
  /// Human-readable metric lines ("name  value unit").
  void PrintMetrics() const;

  /// Golden values produced by this run (`--record` prints them).
  std::vector<std::pair<std::string, std::string>> recorded;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Samples a workload's set-up time across its run: once before the
/// measured loop, then again each time another twentieth of the run has
/// passed (a throwaway set-up, off the clock). The median then spans the
/// host's load phases instead of the run's first second.
class SetupSampler {
 public:
  explicit SetupSampler(double run_seconds) : interval_s_(run_seconds / 20) {}

  /// Times one call of `setup` and records it.
  template <typename Setup>
  double Sample(Setup&& setup) {
    const Clock::time_point start = Clock::now();
    setup();
    samples_.push_back(SecondsSince(start));
    return samples_.back();
  }

  /// Samples `setup` when the next sample is due at `elapsed_s` seconds
  /// into the measured loop. Returns the seconds it took (0 when not due),
  /// which the caller keeps off the measured clock.
  template <typename Setup>
  double MaybeSample(double elapsed_s, Setup&& setup) {
    if (elapsed_s < next_s_) return 0.0;
    next_s_ += interval_s_;
    return Sample(setup);
  }

  double Median() const;

 private:
  double interval_s_;
  double next_s_ = 0.0;
  std::vector<double> samples_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
/// Median, over `segments` equal contiguous slices of `samples`, of each
/// slice's q-quantile: a tail that one stalled stretch of a run cannot
/// move on its own.
double SegmentedQuantile(const std::vector<double>& samples, double q,
                         int segments);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// 64-bit FNV-1a over raw bytes, chained through `hash`.
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash);
std::string Hex64(uint64_t value);

/// The recorded golden values, keyed by name. Fails `report` when the
/// file is missing or malformed.
class Expected {
 public:
  bool Load(const std::string& path, Report* report);
  /// Checks `actual` against the recorded value `key`; a mismatch or a
  /// missing key fails `report`. With `record`, only collects the value.
  void Check(const Options& options, const std::string& key,
             const std::string& actual, Report* report) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Crypto-A preset (12 assets, `quick` length) regenerated from the
/// benchmark seed: same shape as the paper preset, different path.
ppn::market::MarketDataset SeededCryptoA(uint64_t seed);

/// Accumulates calls, total and self time of the benchmark's own layer
/// scopes. Self time is a scope's duration minus the part its child
/// scopes cover. One table per thread of the benchmark (the main one).
class LayerTable {
 public:
  struct Row {
    int64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::string parent;
  };
  static LayerTable& Get();
  void Reset() { rows_.clear(); }
  /// Mean seconds per call of `name` (0 when never called).
  double MeanSeconds(const std::string& name) const;
  /// Mean self seconds per call of `name`: its time outside child scopes.
  double MeanSelfSeconds(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  /// Prints calls, total, self and per-call time per scope, children
  /// indented under their parent.
  void Print() const;

 private:
  friend class Scope;
  std::map<std::string, Row> rows_;
};

/// RAII timing scope around one call into a layer: records an obs::Span
/// (written by the repo's tracer when tracing is on) and a LayerTable row.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  Scope* parent_;
  double child_s_ = 0.0;
  Clock::time_point start_;
  ppn::obs::Span span_;
};

/// Deltas of the obs registry between construction and `Stop()`.
class CounterDelta {
 public:
  CounterDelta();
  void Stop();
  double Counter(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  int64_t HistogramCount(const std::string& name) const;
  /// Prints every counter that moved, and every histogram's new samples.
  void Print() const;

 private:
  ppn::obs::Snapshot before_;
  ppn::obs::Snapshot after_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
