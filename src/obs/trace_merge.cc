#include "obs/trace_merge.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/json.h"

namespace ppn::obs {

namespace {

namespace fs = std::filesystem;

void AppendUs(std::string* out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  *out += buffer;
}

/// Serializes a parsed args subtree back to JSON (numbers as %.17g).
void AppendJsonValue(std::string* out, const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += value.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      AppendJsonNumber(out, value.AsNumber());
      break;
    case JsonValue::Type::kString:
      *out += "\"" + JsonEscape(value.AsString()) + "\"";
      break;
    case JsonValue::Type::kArray: {
      *out += "[";
      bool sep = false;
      for (const JsonValue& item : value.AsArray()) {
        if (sep) *out += ", ";
        sep = true;
        AppendJsonValue(out, item);
      }
      *out += "]";
      break;
    }
    case JsonValue::Type::kObject: {
      *out += "{";
      bool sep = false;
      for (const auto& [key, member] : value.AsObject()) {
        if (sep) *out += ", ";
        sep = true;
        *out += "\"" + JsonEscape(key) + "\": ";
        AppendJsonValue(out, member);
      }
      *out += "}";
      break;
    }
  }
}

/// One event of the merged timeline, already pid-stamped and time-shifted.
struct MergedEvent {
  int pid = 0;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  std::string name;
  std::string ph;
  std::string cat;
  std::string bp;
  uint64_t id = 0;
  bool has_id = false;
  bool has_dur = false;
  JsonValue args;  ///< kNull when absent.
  bool metadata = false;  ///< process_name events sort before peers.
};

void AppendEventJson(std::string* out, const MergedEvent& event) {
  *out += "{\"name\": \"" + JsonEscape(event.name) + "\"";
  if (!event.cat.empty()) {
    *out += ", \"cat\": \"" + JsonEscape(event.cat) + "\"";
  }
  *out += ", \"ph\": \"" + JsonEscape(event.ph) + "\"";
  if (!event.bp.empty()) {
    *out += ", \"bp\": \"" + JsonEscape(event.bp) + "\"";
  }
  if (event.has_id) {
    // Chrome's trace format allows string ids; hex strings keep 64-bit
    // remapped ids exact in readers that parse JSON numbers as doubles.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "\"0x%llx\"",
                  static_cast<unsigned long long>(event.id));
    *out += ", \"id\": ";
    *out += buffer;
  }
  *out += ", \"ts\": ";
  AppendUs(out, event.ts);
  if (event.has_dur) {
    *out += ", \"dur\": ";
    AppendUs(out, event.dur);
  }
  *out += ", \"pid\": " + std::to_string(event.pid);
  *out += ", \"tid\": " + std::to_string(event.tid);
  if (event.args.is_object()) {
    *out += ", \"args\": ";
    AppendJsonValue(out, event.args);
  }
  *out += "}";
}

/// Flow ids from different processes must not collide after the merge;
/// 40 bits leaves room for any realistic per-process id while keeping
/// pid tags distinct. Synthetic fabric flows get their own tag.
uint64_t RemapFlowId(int pid, uint64_t id) {
  return (static_cast<uint64_t>(pid) << 40) | (id & ((1ull << 40) - 1));
}

uint64_t FabricFlowId(int64_t index) {
  return (0xffull << 48) | static_cast<uint64_t>(index);
}

struct ParsedInput {
  std::string name;
  std::vector<JsonValue> events;
  int64_t epoch_unix_us = 0;
  int64_t dropped = 0;
};

bool ParseInput(const TraceProcess& input, ParsedInput* out) {
  std::ifstream in(input.path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue root;
  if (!ParseJson(text.str(), &root) || !root.is_object()) return false;
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;
  out->name = input.name;
  out->events = events->AsArray();
  if (const JsonValue* other = root.Find("otherData");
      other != nullptr && other->is_object()) {
    out->epoch_unix_us =
        static_cast<int64_t>(other->NumberOr("ppn_epoch_unix_us", 0.0));
    out->dropped =
        static_cast<int64_t>(other->NumberOr("ppn_dropped_events", 0.0));
  }
  return true;
}

/// One side of a cross-process stitch candidate.
struct SpanRef {
  int pid = 0;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  bool valid = false;
};

}  // namespace

bool MergeChromeTraces(const std::vector<TraceProcess>& inputs,
                       const std::string& out_path, std::string* error,
                       TraceMergeStats* stats) {
  TraceMergeStats local;
  std::vector<ParsedInput> parsed;
  for (const TraceProcess& input : inputs) {
    ParsedInput one;
    if (!ParseInput(input, &one)) {
      ++local.skipped_files;
      continue;
    }
    parsed.push_back(std::move(one));
  }
  if (parsed.empty()) {
    if (stats != nullptr) *stats = local;
    if (error != nullptr) *error = "no readable trace inputs";
    return false;
  }
  local.processes = static_cast<int>(parsed.size());

  // Shared time axis: shift each process by its wall-clock distance from
  // the earliest anchored process. Unanchored inputs stay at offset 0.
  int64_t min_epoch = 0;
  bool have_epoch = false;
  for (const ParsedInput& input : parsed) {
    if (input.epoch_unix_us <= 0) continue;
    if (!have_epoch || input.epoch_unix_us < min_epoch) {
      min_epoch = input.epoch_unix_us;
      have_epoch = true;
    }
  }

  std::vector<MergedEvent> merged;
  // index → dispatch end / earliest cell span, for cross-process flows.
  std::map<int64_t, SpanRef> dispatches;
  std::map<int64_t, SpanRef> cells;

  for (size_t p = 0; p < parsed.size(); ++p) {
    const ParsedInput& input = parsed[p];
    const int pid = static_cast<int>(p) + 1;
    local.dropped_events += input.dropped;
    double offset_us = 0.0;
    if (have_epoch && input.epoch_unix_us > 0) {
      offset_us = static_cast<double>(input.epoch_unix_us - min_epoch);
    }

    MergedEvent meta;
    meta.pid = pid;
    meta.tid = 0;
    meta.name = "process_name";
    meta.ph = "M";
    meta.metadata = true;
    meta.args = JsonValue::MakeObject(
        {{"name", JsonValue::MakeString(input.name)}});
    merged.push_back(std::move(meta));

    for (const JsonValue& raw : input.events) {
      if (!raw.is_object()) continue;
      MergedEvent event;
      event.pid = pid;
      event.tid = static_cast<int>(raw.NumberOr("tid", 0.0));
      event.ts = raw.NumberOr("ts", 0.0) + offset_us;
      event.name = raw.StringOr("name", "");
      event.ph = raw.StringOr("ph", "X");
      event.cat = raw.StringOr("cat", "");
      event.bp = raw.StringOr("bp", "");
      if (const JsonValue* dur = raw.Find("dur");
          dur != nullptr && dur->is_number()) {
        event.dur = dur->AsNumber();
        event.has_dur = true;
      }
      if (const JsonValue* id = raw.Find("id"); id != nullptr) {
        if (id->is_number()) {
          event.id = RemapFlowId(pid, static_cast<uint64_t>(id->AsNumber()));
          event.has_id = true;
        } else if (id->is_string()) {
          // "0x..." or decimal string ids (the format this merger emits).
          event.id = RemapFlowId(
              pid, std::strtoull(id->AsString().c_str(), nullptr, 0));
          event.has_id = true;
        }
      }
      if (const JsonValue* args = raw.Find("args");
          args != nullptr && args->is_object()) {
        event.args = *args;
        if (event.ph == "X") {
          const double index = args->NumberOr("index", -1.0);
          if (index >= 0.0) {
            const auto key = static_cast<int64_t>(index);
            SpanRef ref{pid, event.tid, event.ts, event.dur, true};
            if (event.name == "fabric.dispatch") {
              // Last dispatch wins: a redispatched cell's arrow should
              // leave the attempt that actually reached a worker.
              dispatches[key] = ref;
            } else if (event.name == "exec.cell") {
              // Earliest cell wins: the first claimant did the work.
              auto it = cells.find(key);
              if (it == cells.end() || ref.ts < it->second.ts) {
                cells[key] = ref;
              }
            }
          }
        }
      }
      merged.push_back(std::move(event));
      ++local.events;
    }
  }

  // Stitch: one s→f pair per cell index seen on both sides of a process
  // boundary. `s` leaves the end of the dispatch span; `f` binds to the
  // enclosing worker cell span (bp:"e"). Clock skew between anchors can
  // put the dispatch end marginally after the cell start; clamp so the
  // arrow never points backwards.
  for (const auto& [index, dispatch] : dispatches) {
    auto it = cells.find(index);
    if (it == cells.end() || it->second.pid == dispatch.pid) continue;
    const SpanRef& cell = it->second;
    MergedEvent start;
    start.pid = dispatch.pid;
    start.tid = dispatch.tid;
    start.ts = std::min(dispatch.ts + dispatch.dur, cell.ts);
    start.name = "fabric.cell";
    start.ph = "s";
    start.cat = "fabric";
    start.id = FabricFlowId(index);
    start.has_id = true;
    MergedEvent finish;
    finish.pid = cell.pid;
    finish.tid = cell.tid;
    finish.ts = cell.ts;
    finish.name = "fabric.cell";
    finish.ph = "f";
    finish.bp = "e";
    finish.cat = "fabric";
    finish.id = FabricFlowId(index);
    finish.has_id = true;
    merged.push_back(std::move(start));
    merged.push_back(std::move(finish));
    local.events += 2;
    ++local.flow_pairs;
  }

  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.metadata != b.metadata) return a.metadata;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.tid < b.tid;
                   });

  AtomicFileWriter writer(out_path);
  if (!writer.ok()) {
    if (stats != nullptr) *stats = local;
    if (error != nullptr) *error = "cannot open " + out_path;
    return false;
  }
  std::string out = "{\n\"traceEvents\": [";
  bool first = true;
  for (const MergedEvent& event : merged) {
    out += first ? "\n" : ",\n";
    first = false;
    AppendEventJson(&out, event);
    writer.stream() << out;
    out.clear();
  }
  writer.stream() << (first ? "" : "\n") << "],\n"
                  << "\"displayTimeUnit\": \"ms\",\n"
                  << "\"otherData\": {\"ppn_dropped_events\": "
                  << local.dropped_events
                  << ", \"ppn_merged_processes\": " << local.processes
                  << ", \"ppn_flow_pairs\": " << local.flow_pairs << "}\n}\n";
  if (!writer.Commit()) {
    if (stats != nullptr) *stats = local;
    if (error != nullptr) *error = "cannot write " + out_path;
    return false;
  }
  if (stats != nullptr) *stats = local;
  return true;
}

bool MergeFabricTraces(const std::string& fabric_dir,
                       const std::string& out_path, std::string* error,
                       TraceMergeStats* stats) {
  const fs::path obs_dir = fs::path(fabric_dir) / "obs";
  std::error_code ec;
  std::vector<TraceProcess> workers;
  TraceProcess coordinator;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(obs_dir, ec)) {
    const std::string filename = entry.path().filename().string();
    const std::string suffix = ".trace.json";
    if (filename.size() <= suffix.size() ||
        filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      continue;
    }
    TraceProcess process;
    process.name = filename.substr(0, filename.size() - suffix.size());
    // A prior merge's own output lives in the same directory; re-merging
    // it would double every event and break flow pairing.
    if (process.name == "merged") continue;
    process.path = entry.path().string();
    if (process.name == "coordinator") {
      coordinator = process;
    } else {
      workers.push_back(std::move(process));
    }
  }
  if (ec) {
    if (error != nullptr) {
      *error = "cannot list " + obs_dir.string() + ": " + ec.message();
    }
    return false;
  }
  std::sort(workers.begin(), workers.end(),
            [](const TraceProcess& a, const TraceProcess& b) {
              return a.name < b.name;
            });
  std::vector<TraceProcess> inputs;
  if (!coordinator.path.empty()) inputs.push_back(coordinator);
  inputs.insert(inputs.end(), workers.begin(), workers.end());
  if (inputs.empty()) {
    if (error != nullptr) {
      *error = "no *.trace.json files under " + obs_dir.string();
    }
    return false;
  }
  return MergeChromeTraces(inputs, out_path, error, stats);
}

}  // namespace ppn::obs
