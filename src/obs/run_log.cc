#include "obs/run_log.h"

#ifndef PPN_OBS_DISABLED

#include <utility>

#include "common/json.h"
#include "obs/stats.h"

namespace ppn::obs {

namespace {

std::string FormatHeader(const RunLogMeta& meta) {
  std::string line = "{\"schema\": \"ppn.runlog.v1\"";
  line += ", \"run\": \"" + JsonEscape(meta.run_id) + "\"";
  line += ", \"strategy\": \"" + JsonEscape(meta.strategy) + "\"";
  line += ", \"dataset\": \"" + JsonEscape(meta.dataset) + "\"";
  line += ", \"gamma\": ";
  AppendJsonNumber(&line, meta.gamma);
  line += ", \"lambda\": ";
  AppendJsonNumber(&line, meta.lambda);
  line += ", \"cost_rate\": ";
  AppendJsonNumber(&line, meta.cost_rate);
  line += ", \"seed\": " + std::to_string(meta.seed);
  line += ", \"steps\": " + std::to_string(meta.steps);
  line += "}\n";
  return line;
}

std::string FormatRecord(const RunLogRecord& record) {
  std::string line = "{\"step\": " + std::to_string(record.step);
  const std::pair<const char*, double> fields[] = {
      {"reward_total", record.reward_total},
      {"reward_log_return", record.reward_log_return},
      {"reward_variance", record.reward_variance},
      {"reward_turnover", record.reward_turnover},
      {"grad_norm", record.grad_norm},
      {"pvm_staleness", record.pvm_staleness},
      {"solver_iterations", record.solver_iterations},
      {"step_seconds", record.step_seconds},
  };
  for (const auto& [name, value] : fields) {
    line += ", \"";
    line += name;
    line += "\": ";
    AppendJsonNumber(&line, value);
  }
  line += "}\n";
  return line;
}

}  // namespace

std::unique_ptr<RunLog> RunLog::Open(const std::string& path,
                                     const RunLogMeta& meta) {
  if (!Enabled() || path.empty()) return nullptr;
  // unique_ptr via `new`: the constructor is private.
  std::unique_ptr<RunLog> log(new RunLog(path, meta));
  if (log->file_ == nullptr) return nullptr;
  return log;
}

RunLog::RunLog(std::string path, const RunLogMeta& meta)
    : path_(std::move(path)) {
  auto file = std::make_unique<AtomicFileWriter>(path_);
  if (!file->ok()) return;
  file->stream() << FormatHeader(meta);
  if (!file->ok()) return;
  file_ = std::move(file);
}

RunLog::~RunLog() { Close(); }

void RunLog::Append(const RunLogRecord& record) {
  if (file_ == nullptr) return;  // Appends after Close are discarded.
  file_->stream() << FormatRecord(record);
}

bool RunLog::Close() {
  if (file_ == nullptr) return ok_;
  ok_ = file_->Commit();
  file_.reset();
  return ok_;
}

}  // namespace ppn::obs

#endif  // PPN_OBS_DISABLED
