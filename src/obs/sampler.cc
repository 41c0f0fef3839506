#include "obs/sampler.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/json.h"

namespace ppn::obs {

// ---------------------------------------------------------------------------
// Stream readers — always compiled (only need common/json).

bool ReadStatsStream(const std::string& path, StatsStream* out,
                     std::string* error) {
  *out = StatsStream{};
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    if (error != nullptr) *error = "empty stream " + path;
    return false;
  }
  JsonValue header;
  if (!ParseJson(line, &header) || !header.is_object() ||
      header.StringOr("schema", "") != "ppn.stats.v1") {
    if (error != nullptr) {
      *error = "not a ppn.stats.v1 stream: " + path;
    }
    return false;
  }
  out->process = header.StringOr("process", "");
  out->sample_ms = static_cast<int64_t>(header.NumberOr("sample_ms", 0.0));
  out->start_unix_ms =
      static_cast<int64_t>(header.NumberOr("start_unix_ms", 0.0));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue value;
    // A torn trailing line (sampler mid-write) is expected; skip quietly.
    if (!ParseJson(line, &value) || !value.is_object()) continue;
    StatsSample sample;
    sample.t_ms = value.NumberOr("t_ms", 0.0);
    sample.window_ms = value.NumberOr("window_ms", 0.0);
    if (const JsonValue* counters = value.Find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [name, member] : counters->AsObject()) {
        if (member.is_number()) sample.counters[name] = member.AsNumber();
      }
    }
    if (const JsonValue* gauges = value.Find("gauges");
        gauges != nullptr && gauges->is_object()) {
      for (const auto& [name, member] : gauges->AsObject()) {
        if (member.is_number()) sample.gauges[name] = member.AsNumber();
      }
    }
    if (const JsonValue* hists = value.Find("hists");
        hists != nullptr && hists->is_object()) {
      for (const auto& [name, member] : hists->AsObject()) {
        if (!member.is_object()) continue;
        StatsHistWindow window;
        window.count = static_cast<int64_t>(member.NumberOr("count", 0.0));
        window.mean = member.NumberOr("mean", 0.0);
        window.min = member.NumberOr("min", 0.0);
        window.max = member.NumberOr("max", 0.0);
        window.p50 = member.NumberOr("p50", 0.0);
        window.p95 = member.NumberOr("p95", 0.0);
        window.p99 = member.NumberOr("p99", 0.0);
        sample.hists[name] = window;
      }
    }
    if (const JsonValue* health = value.Find("health");
        health != nullptr && health->is_array()) {
      for (const JsonValue& verdict : health->AsArray()) {
        if (!verdict.is_object()) continue;
        ++sample.health_checked;
        const JsonValue* ok = verdict.Find("ok");
        if (ok != nullptr && ok->is_bool() && !ok->AsBool()) {
          ++sample.health_failed;
        }
      }
    }
    // The whole-run line is kept apart so window consumers never see it.
    const JsonValue* total = value.Find("total");
    if (total != nullptr && total->is_bool() && total->AsBool()) {
      out->total = std::move(sample);
    } else {
      out->samples.push_back(std::move(sample));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sampler — compiles out with the rest of the obs write path.

#ifndef PPN_OBS_DISABLED

namespace {

/// Lower bound of histogram bucket `index` (inclusive); bucket 0 also
/// absorbs clamped non-positive values, so its floor is 0.
double BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  return HistogramBucketUpperBound(index - 1);
}

/// Per-window histogram: bucket-wise delta of two cumulative snapshots.
/// The window's exact min/max are not recoverable from cumulative
/// watermarks, so they are estimated from the first/last nonempty delta
/// bucket (tightened by the cumulative watermarks, which bound every
/// window) — exactly the resolution `Percentile` already has.
HistogramSnapshot WindowHistogram(const HistogramSnapshot* prev,
                                  const HistogramSnapshot& cur) {
  HistogramSnapshot delta;
  delta.count = cur.count - (prev != nullptr ? prev->count : 0);
  if (delta.count <= 0) return delta;
  delta.sum = cur.sum - (prev != nullptr ? prev->sum : 0.0);
  int first = -1;
  int last = -1;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    delta.buckets[i] =
        cur.buckets[i] - (prev != nullptr ? prev->buckets[i] : 0);
    if (delta.buckets[i] > 0) {
      if (first < 0) first = i;
      last = i;
    }
  }
  // `Histogram::Observe` bumps the count before its bucket, so a snapshot
  // racing an observer can show a count delta with no bucket delta yet
  // (last < 0); then only the cumulative watermarks bound the window.
  if (prev == nullptr || prev->count <= 0 || last < 0) {
    // First active window: cumulative == window, watermarks are exact.
    delta.min = cur.min;
    delta.max = cur.max;
  } else {
    delta.min = std::max(BucketLowerBound(first), cur.min);
    delta.max = std::min(HistogramBucketUpperBound(last), cur.max);
    if (delta.min > delta.max) delta.min = delta.max;
  }
  return delta;
}

/// Counter deltas + current gauges + per-window histograms: the view one
/// sample line describes, and the view window health rules see.
Snapshot WindowView(const Snapshot& prev, const Snapshot& cur) {
  Snapshot window;
  for (const auto& [name, value] : cur.counters) {
    auto it = prev.counters.find(name);
    double delta = value - (it != prev.counters.end() ? it->second : 0.0);
    if (delta != 0.0) window.counters[name] = delta;
  }
  window.gauges = cur.gauges;
  for (const auto& [name, hist] : cur.histograms) {
    auto it = prev.histograms.find(name);
    HistogramSnapshot delta = WindowHistogram(
        it != prev.histograms.end() ? &it->second : nullptr, hist);
    if (delta.count > 0) window.histograms[name] = delta;
  }
  return window;
}

void AppendHistogram(std::string* out, const HistogramSnapshot& hist) {
  *out += "{\"count\": " + std::to_string(hist.count);
  const std::pair<const char*, double> stats[] = {
      {"mean", hist.count > 0 ? hist.sum / static_cast<double>(hist.count)
                              : 0.0},
      {"min", hist.min},
      {"max", hist.max},
      {"p50", hist.Percentile(0.50)},
      {"p95", hist.Percentile(0.95)},
      {"p99", hist.Percentile(0.99)},
  };
  for (const auto& [name, value] : stats) {
    *out += ", \"";
    *out += name;
    *out += "\": ";
    AppendJsonNumber(out, value);
  }
  *out += "}";
}

/// Renders one stream line: `head` (the leading fields, e.g. `"t_ms": 5`),
/// then the view's counters, gauges and histograms, then any evaluated
/// health verdicts.
std::string FormatSample(const std::string& head, const Snapshot& window,
                         const std::vector<HealthEval>& evals) {
  std::string line = "{" + head;
  if (!window.counters.empty()) {
    line += ", \"counters\": {";
    bool sep = false;
    for (const auto& [name, value] : window.counters) {
      if (sep) line += ", ";
      sep = true;
      line += "\"" + JsonEscape(name) + "\": ";
      AppendJsonNumber(&line, value);
    }
    line += "}";
  }
  if (!window.gauges.empty()) {
    line += ", \"gauges\": {";
    bool sep = false;
    for (const auto& [name, value] : window.gauges) {
      if (sep) line += ", ";
      sep = true;
      line += "\"" + JsonEscape(name) + "\": ";
      AppendJsonNumber(&line, value);
    }
    line += "}";
  }
  if (!window.histograms.empty()) {
    line += ", \"hists\": {";
    bool sep = false;
    for (const auto& [name, hist] : window.histograms) {
      if (sep) line += ", ";
      sep = true;
      line += "\"" + JsonEscape(name) + "\": ";
      AppendHistogram(&line, hist);
    }
    line += "}";
  }
  bool any_eval = false;
  for (const HealthEval& eval : evals) {
    if (eval.evaluated) any_eval = true;
  }
  if (any_eval) {
    line += ", \"health\": [";
    bool sep = false;
    for (const HealthEval& eval : evals) {
      if (!eval.evaluated) continue;
      if (sep) line += ", ";
      sep = true;
      line += "{\"rule\": \"" + JsonEscape(eval.rule->raw) + "\", \"ok\": ";
      line += eval.ok ? "true" : "false";
      line += ", \"value\": ";
      AppendJsonNumber(&line, eval.value);
      line += "}";
    }
    line += "]";
  }
  line += "}\n";
  return line;
}

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// `<dir>/serve.stats.jsonl` → "serve": the stream basename is the
/// natural process label (fabric workers inherit slot/gen identity from
/// their redirected path).
std::string ProcessFromPath(const std::string& path,
                            const std::string& fallback) {
  size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  for (const char* suffix : {".stats.jsonl", ".jsonl"}) {
    size_t len = std::strlen(suffix);
    if (base.size() > len &&
        base.compare(base.size() - len, len, suffix) == 0) {
      return base.substr(0, base.size() - len);
    }
  }
  return fallback.empty() ? base : fallback;
}

}  // namespace

struct StatsSampler::Impl {
  SamplerOptions options;
  int64_t sample_ms = 250;
  int fd = -1;
  bool write_ok = true;
  // Evaluated on the sampling thread, read by `healthy()` / (possibly
  // live) `HealthSummary()` on the owner thread.
  mutable std::mutex monitor_mutex;
  HealthMonitor monitor{{}};
  Snapshot prev;
  std::chrono::steady_clock::time_point start;
  double last_t_ms = 0.0;

  std::mutex mutex;
  std::condition_variable wake;
  bool stop_sampling = false;  ///< Sampling thread: emit final lines, exit.
  bool stopped = false;
  std::thread sampling_thread;

  void SampleOnce(std::chrono::steady_clock::time_point now) {
    Snapshot cur = TakeSnapshot();
    Snapshot window = WindowView(prev, cur);
    std::vector<HealthEval> evals;
    {
      std::lock_guard<std::mutex> lock(monitor_mutex);
      evals = monitor.Evaluate(window);
    }
    double t_ms =
        std::chrono::duration<double, std::milli>(now - start).count();
    std::string head = "\"t_ms\": ";
    AppendJsonNumber(&head, t_ms);
    head += ", \"window_ms\": ";
    AppendJsonNumber(&head, t_ms - last_t_ms);
    last_t_ms = t_ms;
    WriteLine(FormatSample(head, window, evals));
    prev = std::move(cur);
  }

  /// The whole-run line: the last snapshot viewed from an empty one, i.e.
  /// cumulative counters, gauge watermarks and histograms with exact
  /// min/max. Health is judged elsewhere (per window and at exit).
  void EmitTotal() {
    std::string head = "\"total\": true, \"t_ms\": ";
    AppendJsonNumber(&head, last_t_ms);
    WriteLine(FormatSample(head, WindowView(Snapshot{}, prev), {}));
  }

  void SamplingLoop() {
    auto deadline = start;
    for (;;) {
      deadline += std::chrono::milliseconds(sample_ms);
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait_until(lock, deadline, [this] { return stop_sampling; });
        if (stop_sampling) break;
      }
      SampleOnce(std::chrono::steady_clock::now());
    }
    // Final (usually partial) window: short runs still get >= 1 sample.
    SampleOnce(std::chrono::steady_clock::now());
    EmitTotal();
  }

  /// One full-line write(2) per line, on the thread that formatted it: a
  /// tailer never sees interleaved fragments, only whole lines plus at
  /// most one in-flight partial. A stalled disk stretches the next window
  /// (`window_ms` records its real length).
  void WriteLine(const std::string& line) {
    size_t written = 0;
    while (written < line.size()) {
      ssize_t n = ::write(fd, line.data() + written, line.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        write_ok = false;
        return;
      }
      written += static_cast<size_t>(n);
    }
  }
};

StatsSampler::StatsSampler(std::unique_ptr<Impl> impl)
    : path_(impl->options.path), impl_(std::move(impl)) {}

std::unique_ptr<StatsSampler> StatsSampler::Start(
    const SamplerOptions& options) {
  if (!Enabled() || options.path.empty()) return nullptr;
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->sample_ms = options.sample_ms > 0
                        ? options.sample_ms
                        : env::Int64Or("PPN_SAMPLE_MS", 250);
  PPN_CHECK(impl->sample_ms >= 1)
      << "PPN_SAMPLE_MS must be >= 1, got " << impl->sample_ms;
  impl->monitor = HealthMonitor(options.health);
  impl->fd = ::open(options.path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (impl->fd < 0) {
    std::fprintf(stderr, "[obs] cannot open stats stream %s: %s\n",
                 options.path.c_str(), std::strerror(errno));
    return nullptr;
  }
  std::string process = ProcessFromPath(options.path, options.process);
  std::string header = "{\"schema\": \"ppn.stats.v1\", \"process\": \"" +
                       JsonEscape(process) + "\", \"sample_ms\": " +
                       std::to_string(impl->sample_ms) +
                       ", \"start_unix_ms\": " + std::to_string(NowUnixMs()) +
                       "}\n";
  impl->start = std::chrono::steady_clock::now();
  impl->prev = TakeSnapshot();
  impl->WriteLine(header);
  Impl* raw = impl.get();
  impl->sampling_thread = std::thread([raw] { raw->SamplingLoop(); });
  // unique_ptr via `new`: the constructor is private.
  return std::unique_ptr<StatsSampler>(new StatsSampler(std::move(impl)));
}

bool StatsSampler::Stop() {
  Impl& impl = *impl_;
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    if (impl.stopped) return impl.write_ok;
    impl.stopped = true;
    impl.stop_sampling = true;
  }
  impl.wake.notify_all();
  // The sampling thread writes its final window and the total line
  // before exiting, so the fd closes only after it joins.
  if (impl.sampling_thread.joinable()) impl.sampling_thread.join();
  if (impl.fd >= 0) {
    ::close(impl.fd);
    impl.fd = -1;
  }
  return impl.write_ok;
}

StatsSampler::~StatsSampler() { Stop(); }

bool StatsSampler::healthy() const {
  std::lock_guard<std::mutex> lock(impl_->monitor_mutex);
  return impl_->monitor.ok();
}

std::string StatsSampler::HealthSummary(bool color) const {
  std::lock_guard<std::mutex> lock(impl_->monitor_mutex);
  return impl_->monitor.Summary(color);
}

std::unique_ptr<StatsSampler> StartSamplerFromEnv(
    const std::string& process) {
  std::string path = env::StringOr("PPN_STATS_JSONL", "");
  if (path.empty()) return nullptr;
  SamplerOptions options;
  options.path = path;
  options.process = process;
  options.health = HealthRulesFromEnv();
  return StatsSampler::Start(options);
}

#else  // PPN_OBS_DISABLED

struct StatsSampler::Impl {};

StatsSampler::StatsSampler(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

std::unique_ptr<StatsSampler> StatsSampler::Start(const SamplerOptions&) {
  return nullptr;
}

bool StatsSampler::Stop() { return true; }

StatsSampler::~StatsSampler() = default;

bool StatsSampler::healthy() const { return true; }

std::string StatsSampler::HealthSummary(bool) const { return ""; }

std::unique_ptr<StatsSampler> StartSamplerFromEnv(const std::string&) {
  return nullptr;
}

#endif  // PPN_OBS_DISABLED

}  // namespace ppn::obs
