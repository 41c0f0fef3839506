#ifndef PPN_COMMON_ATOMIC_FILE_H_
#define PPN_COMMON_ATOMIC_FILE_H_

#include <fstream>
#include <string>

/// \file
/// Crash-safe file writing: every persistence path in the library (CSV
/// tables, text weight dumps, binary checkpoints) streams into a temporary
/// sibling file and atomically renames it over the target on `Commit`. A
/// crash or error mid-write therefore never leaves a truncated file at the
/// target path — readers see either the previous complete file or the new
/// complete file, never a prefix of one.

namespace ppn {

/// Writes `path` via `path + ".tmp"` and a final rename. Single-writer per
/// target path: two concurrent writers to the SAME path would share the
/// temporary (distinct paths, e.g. per-cell checkpoints, are safe).
class AtomicFileWriter {
 public:
  /// Opens the temporary file for binary writing. Check `ok()` before use.
  explicit AtomicFileWriter(std::string path);

  /// Removes the temporary file if `Commit` was never reached (the target
  /// is left untouched).
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The stream to write through. Valid until `Commit`.
  std::ofstream& stream() { return out_; }

  /// True while the temporary opened and every write so far succeeded.
  bool ok() const { return out_.good(); }

  /// Flushes, closes, fsyncs, and renames the temporary over the target
  /// (data is durable BEFORE the name flips — a crash right after Commit
  /// cannot surface the target with truncated content). Returns false
  /// (and removes the temporary) if any write, the close, the fsync, or
  /// the rename failed. Must be called at most once.
  bool Commit();

  /// The final target path.
  const std::string& path() const { return path_; }

  /// The temporary sibling the writes stream into until `Commit`.
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream out_;
  bool committed_ = false;
};

}  // namespace ppn

#endif  // PPN_COMMON_ATOMIC_FILE_H_
