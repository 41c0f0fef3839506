#include "common/csv.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_dir.h"

namespace ppn {
namespace {

TEST(CsvTest, RoundTrip) {
  CsvTable table;
  table.header = {"a", "b", "c"};
  table.rows = {{1.0, 2.5, -3.0}, {0.0, 1e-9, 4.25}};
  const std::string path = test::FreshDir("roundtrip") + "/roundtrip.csv";
  ASSERT_TRUE(WriteCsv(path, table));
  CsvTable loaded;
  ASSERT_TRUE(ReadCsv(path, &loaded));
  ASSERT_EQ(loaded.header, table.header);
  ASSERT_EQ(loaded.rows.size(), table.rows.size());
  for (size_t r = 0; r < table.rows.size(); ++r) {
    for (size_t c = 0; c < table.rows[r].size(); ++c) {
      EXPECT_NEAR(loaded.rows[r][c], table.rows[r][c], 1e-12);
    }
  }
}

TEST(CsvTest, EmptyRowsRoundTrip) {
  CsvTable table;
  table.header = {"x"};
  const std::string path = test::FreshDir("empty") + "/empty.csv";
  ASSERT_TRUE(WriteCsv(path, table));
  CsvTable loaded;
  ASSERT_TRUE(ReadCsv(path, &loaded));
  EXPECT_EQ(loaded.header.size(), 1u);
  EXPECT_TRUE(loaded.rows.empty());
}

TEST(CsvTest, WriteRejectsRaggedRows) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{1.0}};
  EXPECT_FALSE(WriteCsv(test::FreshDir("ragged") + "/ragged.csv", table));
}

TEST(CsvTest, ReadFailsOnMissingFile) {
  CsvTable table;
  EXPECT_FALSE(ReadCsv(test::FreshDir("missing") + "/missing.csv", &table));
  EXPECT_TRUE(table.header.empty());
}

TEST(CsvTest, ReadFailsOnNonNumericCell) {
  const std::string path = test::FreshDir("bad") + "/bad.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1.0,hello\n";
  }
  CsvTable table;
  EXPECT_FALSE(ReadCsv(path, &table));
  EXPECT_TRUE(table.rows.empty());
}

TEST(CsvTest, ReadFailsOnRaggedRow) {
  const std::string path = test::FreshDir("ragged_read") + "/ragged_read.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1.0\n";
  }
  CsvTable table;
  EXPECT_FALSE(ReadCsv(path, &table));
}

TEST(CsvTest, WriteFailsOnBadPath) {
  CsvTable table;
  table.header = {"a"};
  EXPECT_FALSE(WriteCsv("/nonexistent_dir/zzz/file.csv", table));
}

TEST(CsvTest, ReadRejectsTrailingGarbageInCell) {
  // Regression: strtod("1.5abc") parses 1.5 and the old reader accepted
  // it, silently truncating malformed data. A cell must be fully numeric.
  const std::string path =
      test::FreshDir("trailing_garbage") + "/trailing_garbage.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1.5abc,2.0\n";
  }
  CsvTable table;
  EXPECT_FALSE(ReadCsv(path, &table));
  EXPECT_TRUE(table.rows.empty());
}

TEST(CsvTest, ReadRejectsEmbeddedSecondNumber) {
  const std::string path = test::FreshDir("two_numbers") + "/two_numbers.csv";
  {
    std::ofstream out(path);
    out << "a\n1.5 2.5\n";
  }
  CsvTable table;
  EXPECT_FALSE(ReadCsv(path, &table));
}

TEST(CsvTest, ReadAcceptsSurroundingWhitespaceAndCrlf) {
  // Whitespace padding and DOS line endings are benign formatting, not
  // data corruption; the strict parse must still accept them.
  const std::string path = test::FreshDir("whitespace") + "/whitespace.csv";
  {
    std::ofstream out(path);
    out << "a,b\n 1.5 ,2.5\r\n";
  }
  CsvTable table;
  ASSERT_TRUE(ReadCsv(path, &table));
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(table.rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(table.rows[0][1], 2.5);
}

TEST(CsvTest, ReadRejectsWhitespaceOnlyCell) {
  const std::string path = test::FreshDir("blank_cell") + "/blank_cell.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1.0,  \n";
  }
  CsvTable table;
  EXPECT_FALSE(ReadCsv(path, &table));
}

TEST(CsvTest, WriteIsAtomic) {
  CsvTable table;
  table.header = {"a"};
  table.rows = {{1.0}};
  const std::string path = test::FreshDir("atomic") + "/atomic.csv";
  ASSERT_TRUE(WriteCsv(path, table));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace ppn
