#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "common/parse.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace ppn::ckpt {

namespace {

/// Section headers are marked so a desynchronized read fails fast with
/// context instead of misinterpreting payload bytes as a name.
constexpr uint32_t kSectionMarker = 0x54434553;  // "SECT" little-endian.

constexpr char kSnapshotPrefix[] = "step-";
constexpr char kSnapshotSuffix[] = ".ckpt";
/// Zero-padded step width: keeps lexicographic and numeric order equal.
constexpr int kStepDigits = 12;

void ObserveSeconds(const char* name,
                    std::chrono::steady_clock::time_point start) {
  if (!obs::Enabled()) return;
  obs::GetHistogram(name).Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

// ---------------------------------------------------- CheckpointWriter --

CheckpointWriter::CheckpointWriter(const std::string& path)
    : path_(path), file_(path), start_(std::chrono::steady_clock::now()) {
  writer_ = std::make_unique<BinWriter>(&file_.stream());
  writer_->WriteBytes(kMagic, sizeof(kMagic));
  writer_->WriteU32(kFormatVersion);
}

CheckpointWriter::~CheckpointWriter() = default;

void CheckpointWriter::BeginSection(const std::string& name) {
  writer_->WriteU32(kSectionMarker);
  writer_->WriteString(name);
}

bool CheckpointWriter::Commit(std::string* error) {
  PPN_CHECK(!committed_) << "checkpoint committed twice: " << path_;
  committed_ = true;
  // Spans the stream flush + atomic rename (the I/O tail of the write; the
  // section payloads stream into the buffered file before this).
  obs::Span span("ckpt.commit");
  span.AddArg("bytes", static_cast<double>(writer_->bytes_written()));
  // The footer is the CRC of everything before it, excluded from itself.
  const uint32_t crc = writer_->crc();
  const uint64_t payload_bytes = writer_->bytes_written();
  writer_->WriteU32(crc);
  if (!file_.stream().is_open()) {
    return Fail(error, "cannot create " + file_.temp_path());
  }
  if (!writer_->ok()) {
    file_.Commit();  // Clears the temp file; the stream is already bad.
    return Fail(error, "checkpoint write failed (disk full?): " + path_);
  }
  if (!file_.Commit()) {
    return Fail(error, "checkpoint rename failed: " + path_);
  }
  if (obs::Enabled()) {
    obs::GetCounter("ckpt.writes").Add(1.0);
    obs::GetCounter("ckpt.write.bytes")
        .Add(static_cast<double>(payload_bytes + sizeof(crc)));
    ObserveSeconds("ckpt.write.seconds", start_);
  }
  return true;
}

// ---------------------------------------------------- CheckpointReader --

bool CheckpointReader::Open(const std::string& path, std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  path_ = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open checkpoint: " + path);
  buffer_.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Fail(error, "read error on checkpoint: " + path);
  }
  constexpr size_t kMinSize = sizeof(kMagic) + sizeof(uint32_t) * 2;
  if (buffer_.size() < kMinSize) {
    if (obs::Enabled()) obs::GetCounter("ckpt.corrupt").Add(1.0);
    return Fail(error, "checkpoint too short (truncated?): " + path);
  }
  if (std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
    if (obs::Enabled()) obs::GetCounter("ckpt.corrupt").Add(1.0);
    return Fail(error, "bad magic (not a PPN checkpoint): " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buffer_.data() + buffer_.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const uint32_t computed_crc =
      Crc32Of(buffer_.data(), buffer_.size() - sizeof(stored_crc));
  if (stored_crc != computed_crc) {
    if (obs::Enabled()) obs::GetCounter("ckpt.corrupt").Add(1.0);
    return Fail(error, "CRC mismatch (corrupt or truncated checkpoint): " +
                           path);
  }
  uint32_t version = 0;
  std::memcpy(&version, buffer_.data() + sizeof(kMagic), sizeof(version));
  if (version != kFormatVersion) {
    return Fail(error, "unsupported checkpoint format version " +
                           std::to_string(version) + ": " + path);
  }
  const size_t header = sizeof(kMagic) + sizeof(version);
  reader_ = std::make_unique<BinReader>(
      buffer_.data() + header, buffer_.size() - header - sizeof(stored_crc));
  if (obs::Enabled()) {
    obs::GetCounter("ckpt.restores").Add(1.0);
    obs::GetCounter("ckpt.restore.bytes")
        .Add(static_cast<double>(buffer_.size()));
    ObserveSeconds("ckpt.restore.seconds", start);
  }
  return true;
}

bool CheckpointReader::EnterSection(const std::string& expected,
                                    std::string* error) {
  PPN_CHECK(reader_ != nullptr) << "EnterSection before Open";
  uint32_t marker = 0;
  std::string name;
  if (!reader_->ReadU32(&marker) || marker != kSectionMarker ||
      !reader_->ReadString(&name)) {
    return Fail(error, "expected section '" + expected +
                           "', found malformed section header: " + path_);
  }
  if (name != expected) {
    return Fail(error, "expected section '" + expected + "', found '" + name +
                           "': " + path_);
  }
  return true;
}

bool CheckpointReader::Finish(std::string* error) {
  PPN_CHECK(reader_ != nullptr) << "Finish before Open";
  if (reader_->failed()) {
    return Fail(error, "checkpoint payload underran a read: " + path_);
  }
  if (reader_->remaining() != 0) {
    return Fail(error, std::to_string(reader_->remaining()) +
                           " trailing payload bytes: " + path_);
  }
  return true;
}

// --------------------------------------------------------- Checkpointer --

Checkpointer::Checkpointer(Options options) : options_(std::move(options)) {
  PPN_CHECK(!options_.dir.empty()) << "checkpoint dir must be set";
  PPN_CHECK_GE(options_.retain, 1);
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  PPN_CHECK(!ec) << "cannot create checkpoint dir" << options_.dir << ":"
                 << ec.message();
}

std::string Checkpointer::SnapshotPath(int64_t step) const {
  PPN_CHECK_GE(step, 0);
  std::string digits = std::to_string(step);
  if (digits.size() < kStepDigits) {
    digits.insert(0, kStepDigits - digits.size(), '0');
  }
  return options_.dir + "/" + kSnapshotPrefix + digits + kSnapshotSuffix;
}

std::vector<int64_t> Checkpointer::ListSnapshots() const {
  std::vector<int64_t> steps;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= std::strlen(kSnapshotPrefix) +
                           std::strlen(kSnapshotSuffix) ||
        name.rfind(kSnapshotPrefix, 0) != 0 ||
        name.substr(name.size() - std::strlen(kSnapshotSuffix)) !=
            kSnapshotSuffix) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kSnapshotPrefix),
                    name.size() - std::strlen(kSnapshotPrefix) -
                        std::strlen(kSnapshotSuffix));
    const std::optional<int64_t> step = ParseInt64(digits);
    if (step.has_value() && *step >= 0) steps.push_back(*step);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

bool Checkpointer::WriteSnapshot(
    int64_t step, const std::function<void(CheckpointWriter*)>& fill,
    std::string* error) {
  CheckpointWriter writer(SnapshotPath(step));
  fill(&writer);
  if (!writer.Commit(error)) return false;
  // Prune beyond the retention window, oldest first. Best effort: a
  // leftover snapshot is harmless, a failed prune must not fail the write.
  std::vector<int64_t> steps = ListSnapshots();
  if (static_cast<int64_t>(steps.size()) > options_.retain) {
    for (size_t i = 0; i + options_.retain < steps.size(); ++i) {
      std::remove(SnapshotPath(steps[i]).c_str());
    }
  }
  return true;
}

bool Checkpointer::RestoreLatest(
    const std::function<bool(CheckpointReader*, std::string*)>& load,
    int64_t* step, std::string* error) {
  PPN_CHECK(step != nullptr);
  const std::vector<int64_t> steps = ListSnapshots();
  if (steps.empty()) {
    return Fail(error, "no snapshots in " + options_.dir);
  }
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    CheckpointReader reader;
    std::string attempt_error;
    if (reader.Open(SnapshotPath(*it), &attempt_error) &&
        load(&reader, &attempt_error)) {
      *step = *it;
      return true;
    }
    std::fprintf(stderr,
                 "ppn: skipping unusable checkpoint (step %lld): %s\n",
                 static_cast<long long>(*it), attempt_error.c_str());
  }
  return Fail(error,
              "no intact snapshot could be restored from " + options_.dir);
}

}  // namespace ppn::ckpt
