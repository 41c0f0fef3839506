#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "market/generator.h"
#include "market/presets.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Report::Attempt(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics_) {
    // %.17g keeps every digit; non-finite values are not JSON numbers.
    const double value = std::isfinite(metric.first) ? metric.first : -1.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Report::PrintMetrics() const {
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double SetupSampler::Median() const { return Quantile(samples_, 0.5); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double SegmentedQuantile(const std::vector<double>& samples, double q,
                         int segments) {
  std::vector<double> quantiles;
  const size_t n = samples.size();
  for (int i = 0; i < segments; ++i) {
    const auto first = samples.begin() + n * i / segments;
    const auto last = samples.begin() + n * (i + 1) / segments;
    if (first != last) {
      quantiles.push_back(Quantile(std::vector<double>(first, last), q));
    }
  }
  return Quantile(quantiles, 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

bool Expected::Load(const std::string& path, Report* report) {
  std::ifstream in(path);
  if (!in) {
    report->Fail("cannot read recorded values from " + path);
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  ppn::JsonValue root;
  std::string error;
  if (!ppn::ParseJson(text.str(), &root, &error) || !root.is_object()) {
    report->Fail("malformed recorded values in " + path + ": " + error);
    return false;
  }
  for (const auto& [key, value] : root.AsObject()) {
    if (value.is_string()) values_[key] = value.AsString();
  }
  return true;
}

void Expected::Check(const Options& options, const std::string& key,
                     const std::string& actual, Report* report) const {
  report->recorded.emplace_back(key, actual);
  if (options.record) return;
  const auto it = values_.find(key);
  if (it == values_.end()) {
    report->Fail("no recorded value for " + key);
  } else if (it->second != actual) {
    report->Fail(key + ": got " + actual + ", recorded " + it->second);
  }
}

ppn::market::MarketDataset SeededCryptoA(uint64_t seed) {
  using ppn::market::DatasetId;
  ppn::market::SyntheticMarketConfig config =
      ppn::market::PresetConfig(DatasetId::kCryptoA, ppn::RunScale::kQuick);
  // splitmix64 finalizer: neighbouring benchmark seeds give unrelated paths.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  config.seed = z ^ (z >> 31);
  // The preset's 92/8 train:test split (market/presets.cc).
  return ppn::market::SyntheticMarketGenerator(config).GenerateDataset(
      ppn::market::DatasetName(DatasetId::kCryptoA), 0.92);
}

// ------------------------------------------------------------ layers ----

namespace {
thread_local Scope* tls_current_scope = nullptr;
}  // namespace

LayerTable& LayerTable::Get() {
  static LayerTable table;
  return table;
}

double LayerTable::MeanSeconds(const std::string& name) const {
  const auto it = rows_.find(name);
  if (it == rows_.end() || it->second.calls == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.calls);
}

double LayerTable::MeanSelfSeconds(const std::string& name) const {
  const auto it = rows_.find(name);
  if (it == rows_.end() || it->second.calls == 0) return 0.0;
  return it->second.self_s / static_cast<double>(it->second.calls);
}

double LayerTable::TotalSeconds(const std::string& name) const {
  const auto it = rows_.find(name);
  return it == rows_.end() ? 0.0 : it->second.total_s;
}

void LayerTable::Print() const {
  std::printf("  %-34s %8s %11s %11s %11s\n", "layer scope", "calls",
              "total_ms", "self_ms", "ms/call");
  // Depth-first from the roots so children sit under their parent.
  std::vector<std::pair<std::string, int>> stack;
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->second.parent.empty()) stack.emplace_back(it->first, 0);
  }
  while (!stack.empty()) {
    const auto [name, depth] = stack.back();
    stack.pop_back();
    const Row& row = rows_.at(name);
    const std::string label = std::string(2 * depth, ' ') + name;
    std::printf("  %-34s %8" PRId64 " %11.3f %11.3f %11.4f\n", label.c_str(),
                row.calls, row.total_s * 1e3, row.self_s * 1e3,
                row.total_s * 1e3 / static_cast<double>(row.calls));
    for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
      if (it->second.parent == name) stack.emplace_back(it->first, depth + 1);
    }
  }
}

Scope::Scope(const char* name)
    : name_(name),
      parent_(tls_current_scope),
      start_(Clock::now()),
      span_(name) {
  tls_current_scope = this;
}

Scope::~Scope() {
  const double elapsed = SecondsSince(start_);
  tls_current_scope = parent_;
  LayerTable::Row& row = LayerTable::Get().rows_[name_];
  ++row.calls;
  row.total_s += elapsed;
  row.self_s += elapsed - child_s_;
  if (parent_ != nullptr) {
    row.parent = parent_->name_;
    parent_->child_s_ += elapsed;
  }
}

CounterDelta::CounterDelta() : before_(ppn::obs::TakeSnapshot()) {}

void CounterDelta::Stop() { after_ = ppn::obs::TakeSnapshot(); }

namespace {
template <typename Map>
const typename Map::mapped_type* FindIn(const Map& map,
                                        const std::string& name) {
  const auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}
}  // namespace

double CounterDelta::Counter(const std::string& name) const {
  const double* after = FindIn(after_.counters, name);
  const double* before = FindIn(before_.counters, name);
  return (after ? *after : 0.0) - (before ? *before : 0.0);
}

double CounterDelta::HistogramSum(const std::string& name) const {
  const auto* after = FindIn(after_.histograms, name);
  const auto* before = FindIn(before_.histograms, name);
  return (after ? after->sum : 0.0) - (before ? before->sum : 0.0);
}

int64_t CounterDelta::HistogramCount(const std::string& name) const {
  const auto* after = FindIn(after_.histograms, name);
  const auto* before = FindIn(before_.histograms, name);
  return (after ? after->count : 0) - (before ? before->count : 0);
}

void CounterDelta::Print() const {
  for (const auto& [name, value] : after_.counters) {
    const double delta = Counter(name);
    if (delta != 0.0) std::printf("  %-44s %16.6g\n", name.c_str(), delta);
  }
  for (const auto& [name, histogram] : after_.histograms) {
    const int64_t count = HistogramCount(name);
    if (count == 0) continue;
    std::printf("  %-44s %16.6g  (%lld samples, mean %.6g)\n", name.c_str(),
                HistogramSum(name), static_cast<long long>(count),
                HistogramSum(name) / static_cast<double>(count));
  }
}

}  // namespace perfbench
