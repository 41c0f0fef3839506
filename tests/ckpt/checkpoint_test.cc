#include "ckpt/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_dir.h"

namespace ppn::ckpt {
namespace {

void WriteSimpleCheckpoint(const std::string& path, int64_t payload) {
  CheckpointWriter writer(path);
  writer.BeginSection("data");
  writer.writer().WriteI64(payload);
  std::string error;
  ASSERT_TRUE(writer.Commit(&error)) << error;
}

/// Reads the "data" section written by WriteSimpleCheckpoint.
bool ReadSimpleCheckpoint(const std::string& path, int64_t* payload,
                          std::string* error) {
  CheckpointReader reader;
  if (!reader.Open(path, error)) return false;
  if (!reader.EnterSection("data", error)) return false;
  if (!reader.reader().ReadI64(payload)) {
    *error = "short read";
    return false;
  }
  return reader.Finish(error);
}

TEST(CheckpointTest, RoundTrip) {
  const std::string path = test::FreshDir("roundtrip") + "/x.ckpt";
  WriteSimpleCheckpoint(path, 1234);
  int64_t payload = 0;
  std::string error;
  ASSERT_TRUE(ReadSimpleCheckpoint(path, &payload, &error)) << error;
  EXPECT_EQ(payload, 1234);
}

TEST(CheckpointTest, NoTempFileLeftBehind) {
  const std::string dir = test::FreshDir("notmp");
  WriteSimpleCheckpoint(dir + "/x.ckpt", 1);
  EXPECT_TRUE(std::filesystem::exists(dir + "/x.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/x.ckpt.tmp"));
}

TEST(CheckpointTest, UncommittedWriterLeavesTargetUntouched) {
  const std::string dir = test::FreshDir("uncommitted");
  const std::string path = dir + "/x.ckpt";
  WriteSimpleCheckpoint(path, 7);
  {
    CheckpointWriter writer(path);
    writer.BeginSection("data");
    writer.writer().WriteI64(999);
    // No Commit: simulates a crash mid-write.
  }
  int64_t payload = 0;
  std::string error;
  ASSERT_TRUE(ReadSimpleCheckpoint(path, &payload, &error)) << error;
  EXPECT_EQ(payload, 7);  // The previous checkpoint survives intact.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointTest, FlippedByteFailsCrc) {
  const std::string path = test::FreshDir("flip") + "/x.ckpt";
  WriteSimpleCheckpoint(path, 42);
  // Flip one payload byte in place.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(14);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(14);
    byte ^= 0x01;
    file.write(&byte, 1);
  }
  CheckpointReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(CheckpointTest, TruncationDetected) {
  const std::string path = test::FreshDir("trunc") + "/x.ckpt";
  WriteSimpleCheckpoint(path, 42);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);
  CheckpointReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointTest, TruncationToBelowHeaderDetected) {
  const std::string path = test::FreshDir("tiny") + "/x.ckpt";
  WriteSimpleCheckpoint(path, 42);
  std::filesystem::resize_file(path, 5);
  CheckpointReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("too short"), std::string::npos) << error;
}

TEST(CheckpointTest, BadMagicDetected) {
  const std::string path = test::FreshDir("magic") + "/x.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACKPTxxxxxxxxxxxxxxxxxxxx";
  }
  CheckpointReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(CheckpointTest, MissingFileReportsOpenError) {
  CheckpointReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(test::FreshDir("missing") + "/absent.ckpt", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CheckpointTest, CommitIntoMissingDirectoryFailsWithError) {
  const std::string path =
      test::FreshDir("missing_dir") + "/no/such/dir/x.ckpt";
  CheckpointWriter writer(path);
  writer.BeginSection("data");
  writer.writer().WriteI64(7);
  std::string error;
  EXPECT_FALSE(writer.Commit(&error));
  // The fault is the path, not the disk: the message names the temp file
  // that could not be created.
  EXPECT_NE(error.find("cannot create " + path + ".tmp"), std::string::npos)
      << error;
  EXPECT_EQ(error.find("disk full"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CheckpointTest, WrongSectionNameReported) {
  const std::string path = test::FreshDir("section") + "/x.ckpt";
  WriteSimpleCheckpoint(path, 42);
  CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_FALSE(reader.EnterSection("other", &error));
  EXPECT_NE(error.find("expected section 'other'"), std::string::npos)
      << error;
}

TEST(CheckpointTest, FinishRejectsTrailingBytes) {
  const std::string path = test::FreshDir("trailing") + "/x.ckpt";
  {
    CheckpointWriter writer(path);
    writer.BeginSection("data");
    writer.writer().WriteI64(1);
    writer.writer().WriteI64(2);  // Extra payload the reader won't consume.
    std::string error;
    ASSERT_TRUE(writer.Commit(&error)) << error;
  }
  CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  ASSERT_TRUE(reader.EnterSection("data", &error)) << error;
  int64_t value = 0;
  ASSERT_TRUE(reader.reader().ReadI64(&value));
  EXPECT_FALSE(reader.Finish(&error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CheckpointerTest, RetainsNewestK) {
  Checkpointer checkpointer({test::FreshDir("retain"), /*retain=*/2});
  std::string error;
  for (int64_t step = 1; step <= 5; ++step) {
    ASSERT_TRUE(checkpointer.WriteSnapshot(
        step,
        [step](CheckpointWriter* writer) {
          writer->BeginSection("data");
          writer->writer().WriteI64(step);
        },
        &error))
        << error;
  }
  EXPECT_EQ(checkpointer.ListSnapshots(), (std::vector<int64_t>{4, 5}));
}

TEST(CheckpointerTest, RestoreLatestPicksNewest) {
  Checkpointer checkpointer({test::FreshDir("latest"), 3});
  std::string error;
  for (int64_t step : {10, 20, 30}) {
    ASSERT_TRUE(checkpointer.WriteSnapshot(
        step,
        [step](CheckpointWriter* writer) {
          writer->BeginSection("data");
          writer->writer().WriteI64(step * 7);
        },
        &error))
        << error;
  }
  int64_t restored_step = 0;
  int64_t payload = 0;
  ASSERT_TRUE(checkpointer.RestoreLatest(
      [&payload](CheckpointReader* reader, std::string* load_error) {
        if (!reader->EnterSection("data", load_error)) return false;
        if (!reader->reader().ReadI64(&payload)) return false;
        return reader->Finish(load_error);
      },
      &restored_step, &error))
      << error;
  EXPECT_EQ(restored_step, 30);
  EXPECT_EQ(payload, 210);
}

TEST(CheckpointerTest, FallsBackToOlderIntactSnapshot) {
  Checkpointer checkpointer({test::FreshDir("fallback"), 3});
  std::string error;
  for (int64_t step : {1, 2}) {
    ASSERT_TRUE(checkpointer.WriteSnapshot(
        step,
        [step](CheckpointWriter* writer) {
          writer->BeginSection("data");
          writer->writer().WriteI64(step);
        },
        &error))
        << error;
  }
  // Corrupt the newest snapshot; restore must fall back to step 1.
  const std::string newest = checkpointer.SnapshotPath(2);
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) - 2);
  int64_t restored_step = 0;
  int64_t payload = 0;
  ASSERT_TRUE(checkpointer.RestoreLatest(
      [&payload](CheckpointReader* reader, std::string* load_error) {
        if (!reader->EnterSection("data", load_error)) return false;
        if (!reader->reader().ReadI64(&payload)) return false;
        return reader->Finish(load_error);
      },
      &restored_step, &error))
      << error;
  EXPECT_EQ(restored_step, 1);
  EXPECT_EQ(payload, 1);
}

TEST(CheckpointerTest, EmptyDirReportsNoSnapshots) {
  Checkpointer checkpointer({test::FreshDir("empty"), 3});
  int64_t step = 0;
  std::string error;
  EXPECT_FALSE(checkpointer.RestoreLatest(
      [](CheckpointReader*, std::string*) { return true; }, &step, &error));
  EXPECT_NE(error.find("no snapshots"), std::string::npos) << error;
}

TEST(CheckpointerTest, ForeignFilesInDirIgnored) {
  const std::string dir = test::FreshDir("foreign");
  { std::ofstream(dir + "/notes.txt") << "not a checkpoint"; }
  { std::ofstream(dir + "/step-abc.ckpt") << "bad digits"; }
  Checkpointer checkpointer({dir, 3});
  EXPECT_TRUE(checkpointer.ListSnapshots().empty());
}

}  // namespace
}  // namespace ppn::ckpt
