#include "market/io.h"

#include <gtest/gtest.h>

#include "common/csv.h"
#include "market/generator.h"
#include "test_dir.h"

namespace ppn::market {
namespace {

MarketDataset SmallDataset() {
  SyntheticMarketConfig config;
  config.num_assets = 3;
  config.num_periods = 50;
  config.seed = 5;
  SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("io-test", 0.8);
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = test::FreshDir("roundtrip") + "/dataset";
  ASSERT_TRUE(SaveDataset(original, prefix));
  MarketDataset loaded;
  ASSERT_TRUE(LoadDataset(prefix, &loaded));
  EXPECT_EQ(loaded.panel.num_periods(), original.panel.num_periods());
  EXPECT_EQ(loaded.panel.num_assets(), original.panel.num_assets());
  EXPECT_EQ(loaded.train_end, original.train_end);
  for (int64_t t = 0; t < original.panel.num_periods(); ++t) {
    for (int64_t a = 0; a < original.panel.num_assets(); ++a) {
      for (int f = 0; f < kNumPriceFields; ++f) {
        EXPECT_NEAR(loaded.panel.Price(t, a, static_cast<PriceField>(f)),
                    original.panel.Price(t, a, static_cast<PriceField>(f)),
                    1e-9);
      }
    }
  }
  EXPECT_TRUE(loaded.panel.IsValid());
}

TEST(DatasetIoTest, LoadFailsOnMissingFiles) {
  MarketDataset dataset;
  dataset.name = "untouched";
  EXPECT_FALSE(LoadDataset(test::FreshDir("nope") + "/nope", &dataset));
  EXPECT_EQ(dataset.name, "untouched");
}

TEST(DatasetIoTest, LoadRejectsTruncatedPrices) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = test::FreshDir("trunc") + "/dataset";
  ASSERT_TRUE(SaveDataset(original, prefix));
  // Truncate the prices file (keep header + one row).
  {
    CsvTable prices;
    ASSERT_TRUE(ReadCsv(prefix + ".prices.csv", &prices));
    prices.rows.resize(1);
    ASSERT_TRUE(WriteCsv(prefix + ".prices.csv", prices));
  }
  MarketDataset loaded;
  EXPECT_FALSE(LoadDataset(prefix, &loaded));
}

TEST(DatasetIoTest, LoadRejectsCorruptMeta) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = test::FreshDir("badmeta") + "/dataset";
  ASSERT_TRUE(SaveDataset(original, prefix));
  {
    CsvTable meta;
    meta.header = {"num_periods", "num_assets", "train_end"};
    meta.rows = {{50.0, 3.0, 60.0}};  // train_end > num_periods.
    ASSERT_TRUE(WriteCsv(prefix + ".meta.csv", meta));
  }
  MarketDataset loaded;
  EXPECT_FALSE(LoadDataset(prefix, &loaded));
}

TEST(DatasetIoDeathTest, SaveRejectsIncompletePanel) {
  MarketDataset dataset;
  dataset.panel = OhlcPanel(5, 2);  // All NaN.
  const std::string prefix = test::FreshDir("nan") + "/nan";
  EXPECT_DEATH(SaveDataset(dataset, prefix), "incomplete");
}

}  // namespace
}  // namespace ppn::market
