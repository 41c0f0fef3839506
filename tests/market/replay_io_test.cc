#include "market/replay_io.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"

namespace ppn::market {
namespace {

class ReplayIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ppn_replay_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes a well-formed long-format file: `periods` x `assets` bars with
  /// close = 10*(a+1)*1.01^t and a small intra-bar envelope.
  std::string WriteGoodCsv(const std::string& name, int64_t periods,
                           int64_t assets) const {
    CsvTable table;
    table.header = {"period", "asset", "open", "high", "low", "close"};
    for (int64_t t = 0; t < periods; ++t) {
      for (int64_t a = 0; a < assets; ++a) {
        const double close =
            10.0 * static_cast<double>(a + 1) * std::pow(1.01, t);
        table.rows.push_back({static_cast<double>(t), static_cast<double>(a),
                              close * 0.99, close * 1.02, close * 0.98,
                              close});
      }
    }
    const std::string path = PathFor(name);
    EXPECT_TRUE(WriteCsv(path, table));
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(ReplayIoTest, LoadsWellFormedFile) {
  const std::string path = WriteGoodCsv("good.csv", 50, 3);
  MarketDataset dataset;
  std::string error;
  ASSERT_TRUE(LoadReplayCsv(path, {}, &dataset, &error)) << error;
  EXPECT_EQ(dataset.panel.num_periods(), 50);
  EXPECT_EQ(dataset.panel.num_assets(), 3);
  EXPECT_EQ(dataset.name, path);
  EXPECT_EQ(dataset.train_end, 46);  // floor(0.92 * 50).
  EXPECT_TRUE(dataset.panel.IsComplete());
  EXPECT_TRUE(dataset.panel.IsValid());
  EXPECT_NEAR(dataset.panel.Close(1, 2), 30.0 * 1.01, 1e-9);
  EXPECT_EQ(dataset.asset_names.size(), 3u);
}

TEST_F(ReplayIoTest, OptionsOverrideNameAndSplit) {
  const std::string path = WriteGoodCsv("named.csv", 40, 2);
  ReplayCsvOptions options;
  options.name = "Vendor-X";
  options.train_end = 30;
  MarketDataset dataset;
  std::string error;
  ASSERT_TRUE(LoadReplayCsv(path, options, &dataset, &error)) << error;
  EXPECT_EQ(dataset.name, "Vendor-X");
  EXPECT_EQ(dataset.train_end, 30);
}

TEST_F(ReplayIoTest, ColumnsMatchByNameInAnyOrder) {
  CsvTable table;
  table.header = {"close", "asset", "volume", "low", "high", "open", "period"};
  for (int64_t t = 0; t < 10; ++t) {
    const double close = 5.0 + t;
    table.rows.push_back({close, 0.0, 999.0, close - 1.0, close + 1.0,
                          close - 0.5, static_cast<double>(t)});
  }
  const std::string path = PathFor("shuffled.csv");
  ASSERT_TRUE(WriteCsv(path, table));
  MarketDataset dataset;
  std::string error;
  ASSERT_TRUE(LoadReplayCsv(path, {}, &dataset, &error)) << error;
  EXPECT_EQ(dataset.panel.num_assets(), 1);
  EXPECT_DOUBLE_EQ(dataset.panel.Close(3, 0), 8.0);
}

TEST_F(ReplayIoTest, MissingColumnIsReported) {
  CsvTable table;
  table.header = {"period", "asset", "open", "high", "low"};  // No close.
  table.rows.push_back({0.0, 0.0, 1.0, 1.1, 0.9});
  table.rows.push_back({1.0, 0.0, 1.0, 1.1, 0.9});
  const std::string path = PathFor("noclose.csv");
  ASSERT_TRUE(WriteCsv(path, table));
  MarketDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadReplayCsv(path, {}, &dataset, &error));
  EXPECT_NE(error.find("close"), std::string::npos) << error;
}

TEST_F(ReplayIoTest, DuplicateBarIsReported) {
  CsvTable table;
  table.header = {"period", "asset", "open", "high", "low", "close"};
  table.rows.push_back({0.0, 0.0, 1.0, 1.1, 0.9, 1.0});
  table.rows.push_back({1.0, 0.0, 1.0, 1.1, 0.9, 1.0});
  table.rows.push_back({1.0, 0.0, 1.0, 1.1, 0.9, 1.05});
  const std::string path = PathFor("dup.csv");
  ASSERT_TRUE(WriteCsv(path, table));
  MarketDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadReplayCsv(path, {}, &dataset, &error));
  EXPECT_NE(error.find("duplicate bar"), std::string::npos) << error;
}

TEST_F(ReplayIoTest, InvalidOhlcNamesTheBar) {
  CsvTable table;
  table.header = {"period", "asset", "open", "high", "low", "close"};
  table.rows.push_back({0.0, 0.0, 1.0, 1.1, 0.9, 1.0});
  // high < close at (1, 0).
  table.rows.push_back({1.0, 0.0, 1.0, 1.0, 0.9, 1.5});
  const std::string path = PathFor("badbar.csv");
  ASSERT_TRUE(WriteCsv(path, table));
  MarketDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadReplayCsv(path, {}, &dataset, &error));
  EXPECT_NE(error.find("period 1"), std::string::npos) << error;
}

TEST_F(ReplayIoTest, SparseBarsAreFlatFilled) {
  CsvTable table;
  table.header = {"period", "asset", "open", "high", "low", "close"};
  // Asset 0: all 6 periods. Asset 1: lists at period 3 and skips period 4.
  for (int64_t t = 0; t < 6; ++t) {
    table.rows.push_back({static_cast<double>(t), 0.0, 2.0, 2.2, 1.8, 2.0});
  }
  table.rows.push_back({3.0, 1.0, 7.0, 7.2, 6.8, 7.0});
  table.rows.push_back({5.0, 1.0, 8.0, 8.2, 6.8, 8.0});
  const std::string path = PathFor("sparse.csv");
  ASSERT_TRUE(WriteCsv(path, table));
  ReplayCsvOptions options;
  options.train_end = 4;
  MarketDataset dataset;
  std::string error;
  ASSERT_TRUE(LoadReplayCsv(path, options, &dataset, &error)) << error;
  // Pre-listing backfill at the first observed close; interior gap forward.
  EXPECT_DOUBLE_EQ(dataset.panel.Close(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(dataset.panel.Close(4, 1), 7.0);
  EXPECT_DOUBLE_EQ(dataset.panel.Close(5, 1), 8.0);

  options.fill_missing = false;
  EXPECT_FALSE(LoadReplayCsv(path, options, &dataset, &error));
  EXPECT_NE(error.find("missing bar"), std::string::npos) << error;
}

TEST_F(ReplayIoTest, DegenerateSplitIsReported) {
  const std::string path = WriteGoodCsv("split.csv", 10, 1);
  ReplayCsvOptions options;
  options.train_end = 10;
  MarketDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadReplayCsv(path, options, &dataset, &error));
  EXPECT_NE(error.find("degenerate split"), std::string::npos) << error;
}

TEST_F(ReplayIoTest, OutOfRangeIndexIsReportedBeforeTheCast) {
  // Each value would be undefined behaviour as an int64_t cast.
  for (const char* bad : {"1e20", "-1e20", "nan", "inf", "-inf"}) {
    for (const bool in_period : {true, false}) {
      const std::string path = PathFor("bad_index.csv");
      {
        std::ofstream out(path);
        out << "period,asset,open,high,low,close\n"
            << "0,0,1,1.1,0.9,1\n";
        if (in_period) {
          out << bad << ",0,1,1.1,0.9,1\n";
        } else {
          out << "1," << bad << ",1,1.1,0.9,1\n";
        }
      }
      MarketDataset dataset;
      std::string error;
      EXPECT_FALSE(LoadReplayCsv(path, {}, &dataset, &error)) << bad;
      EXPECT_NE(error.find("row 3: period/asset must be non-negative"),
                std::string::npos)
          << bad << ": " << error;
    }
  }
}

TEST_F(ReplayIoTest, OversizedPanelIsRejectedBeforeAllocation) {
  // Two rows declaring a 2e9-period panel: ~128 GB if it were allocated.
  CsvTable table;
  table.header = {"period", "asset", "open", "high", "low", "close"};
  table.rows.push_back({0.0, 0.0, 1.0, 1.1, 0.9, 1.0});
  table.rows.push_back({2000000000.0, 0.0, 1.0, 1.1, 0.9, 1.0});
  // Just over the limit through the asset count instead.
  CsvTable wide = table;
  wide.rows[1] = {1.0, static_cast<double>(kMaxReplayPanelBars / 2), 1.0,
                  1.1, 0.9, 1.0};
  for (const CsvTable* t : {&table, &wide}) {
    const std::string path = PathFor("huge.csv");
    ASSERT_TRUE(WriteCsv(path, *t));
    MarketDataset dataset;
    std::string error;
    EXPECT_FALSE(LoadReplayCsv(path, {}, &dataset, &error));
    EXPECT_NE(error.find("-bar panel limit"), std::string::npos) << error;
  }
}

TEST_F(ReplayIoTest, MissingFileIsReported) {
  MarketDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadReplayCsv(PathFor("absent.csv"), {}, &dataset, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ppn::market
