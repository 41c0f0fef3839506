// AtomicFileWriter is the durability primitive under every persistence
// path (checkpoints, results JSON, the fabric's queue/status files): the
// target must only ever hold a complete previous file or a complete new
// file, and Commit must not succeed unless the data is actually down.

#include "common/atomic_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_dir.h"

namespace ppn {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AtomicFileTest, CommitPublishesContentAndRemovesTemp) {
  const std::string path = test::FreshDir("commit") + "/atomic_file_commit";
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.stream() << "hello";
    EXPECT_TRUE(writer.Commit());
  }
  EXPECT_EQ(ReadAll(path), "hello");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileTest, AbandonedWriterLeavesTargetUntouched) {
  const std::string path = test::FreshDir("abandon") + "/atomic_file_abandon";
  {
    std::ofstream prior(path);
    prior << "prior";
  }
  {
    AtomicFileWriter writer(path);
    writer.stream() << "half-written";
    // No Commit: destructor must roll back.
  }
  EXPECT_EQ(ReadAll(path), "prior");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileTest, CommitFailsWhenTempVanished) {
  // If the temporary disappears under us (tmp reaper, hostile cleanup),
  // the fsync-before-rename path must report failure, not publish.
  const std::string path = test::FreshDir("vanished") + "/atomic_file_vanished";
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.ok());
  writer.stream() << "data";
  writer.stream().flush();
  std::remove((path + ".tmp").c_str());
  EXPECT_FALSE(writer.Commit());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AtomicFileTest, CommitIsSingleShot) {
  const std::string path = test::FreshDir("single") + "/atomic_file_single";
  AtomicFileWriter writer(path);
  writer.stream() << "x";
  EXPECT_TRUE(writer.Commit());
  EXPECT_FALSE(writer.Commit());  // Second call must refuse.
  EXPECT_EQ(ReadAll(path), "x");
  std::remove(path.c_str());
}

TEST(AtomicFileTest, UnopenableTargetReportsNotOk) {
  AtomicFileWriter writer("/nonexistent-dir-zzz/file");
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Commit());
}

}  // namespace
}  // namespace ppn
