#include "obs/stats.h"

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ppn::obs {
namespace {

/// Every test enables profiling and starts from a zeroed registry. Metric
/// NAMES are still shared process-wide, so each test uses its own prefix.
class ObsStatsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }
  ScopedObsEnable enable_;
};

TEST_F(ObsStatsTest, CounterMergeIsIndependentOfThreadCount) {
  constexpr double kPerThreadAdds = 1000;
  auto run = [](int num_threads) {
    ResetAll();
    const double adds_per_thread = kPerThreadAdds * 4 / num_threads;
    std::vector<std::thread> threads;
    for (int i = 0; i < num_threads; ++i) {
      threads.emplace_back([adds_per_thread] {
        Counter& counter = GetCounter("t.merge.counter");
        for (double j = 0; j < adds_per_thread; ++j) counter.Add(1.0);
      });
    }
    for (std::thread& thread : threads) thread.join();
    return TakeSnapshot().counters.at("t.merge.counter");
  };
  const double with_1 = run(1);
  const double with_2 = run(2);
  const double with_4 = run(4);
  EXPECT_EQ(with_1, kPerThreadAdds * 4);
  EXPECT_EQ(with_1, with_2);
  EXPECT_EQ(with_1, with_4);
}

TEST_F(ObsStatsTest, GaugeMergesAsHighWatermark) {
  std::vector<std::thread> threads;
  for (int i = 1; i <= 4; ++i) {
    threads.emplace_back([i] {
      Gauge& gauge = GetGauge("t.gauge.depth");
      gauge.UpdateMax(static_cast<double>(i));
      gauge.UpdateMax(static_cast<double>(i) - 0.5);  // Lower: ignored.
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(TakeSnapshot().gauges.at("t.gauge.depth"), 4.0);
}

TEST_F(ObsStatsTest, UntouchedGaugeIsAbsentFromSnapshot) {
  GetGauge("t.gauge.untouched");
  const Snapshot snapshot = TakeSnapshot();
  EXPECT_EQ(snapshot.gauges.count("t.gauge.untouched"), 0u);
}

TEST_F(ObsStatsTest, HistogramCountSumMinMax) {
  Histogram& histogram = GetHistogram("t.hist.basic");
  histogram.Observe(3.0);
  histogram.Observe(0.5);
  histogram.Observe(10.0);
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.hist.basic");
  EXPECT_EQ(merged.count, 3);
  EXPECT_DOUBLE_EQ(merged.sum, 13.5);
  EXPECT_DOUBLE_EQ(merged.min, 0.5);
  EXPECT_DOUBLE_EQ(merged.max, 10.0);
  int64_t bucket_total = 0;
  for (const int64_t count : merged.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, 3);
}

TEST_F(ObsStatsTest, HistogramBucketsAreLog2Spaced) {
  // Bucket i covers [2^(i-31), 2^(i-30)): 3.0 lands in the bucket with
  // upper bound 4, 0.5 in the one with upper bound 1.
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(30), 1.0);
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(31), 2.0);
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(32), 4.0);
  Histogram& histogram = GetHistogram("t.hist.buckets");
  histogram.Observe(3.0);
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.hist.buckets");
  EXPECT_EQ(merged.buckets[32], 1);
}

TEST_F(ObsStatsTest, HistogramClampsNonPositiveAndHugeValues) {
  Histogram& histogram = GetHistogram("t.hist.clamp");
  histogram.Observe(0.0);
  histogram.Observe(-5.0);
  histogram.Observe(1e300);
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.hist.clamp");
  EXPECT_EQ(merged.count, 3);
  EXPECT_EQ(merged.buckets[0], 2);
  EXPECT_EQ(merged.buckets[kHistogramBuckets - 1], 1);
}

TEST_F(ObsStatsTest, HistogramMergesAcrossThreads) {
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([] {
      Histogram& histogram = GetHistogram("t.hist.threads");
      histogram.Observe(1.5);
      histogram.Observe(100.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.hist.threads");
  EXPECT_EQ(merged.count, 6);
  EXPECT_DOUBLE_EQ(merged.min, 1.5);
  EXPECT_DOUBLE_EQ(merged.max, 100.0);
}

TEST_F(ObsStatsTest, PercentileOfSingleValueHistogramIsThatValue) {
  Histogram& histogram = GetHistogram("t.pct.single");
  histogram.Observe(3.0);
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.pct.single");
  // The [min, max] clamp collapses every quantile onto the lone value.
  EXPECT_DOUBLE_EQ(merged.Percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(merged.Percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(merged.Percentile(0.95), 3.0);
  EXPECT_DOUBLE_EQ(merged.Percentile(1.0), 3.0);
}

TEST_F(ObsStatsTest, PercentilesAreMonotoneAndBucketAccurate) {
  Histogram& histogram = GetHistogram("t.pct.uniform");
  for (int i = 1; i <= 100; ++i) histogram.Observe(static_cast<double>(i));
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.pct.uniform");
  EXPECT_DOUBLE_EQ(merged.Percentile(0.0), 1.0);    // p0 = min.
  EXPECT_DOUBLE_EQ(merged.Percentile(1.0), 100.0);  // p100 = max.
  const double p50 = merged.Percentile(0.50);
  const double p95 = merged.Percentile(0.95);
  const double p99 = merged.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, merged.max);
  // Log2 buckets bound resolution to 2x: the true median 50 lies in
  // bucket [32, 64), the true p99 of 100 in [64, 128) clamped to 100.
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 64.0);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 100.0);
}

TEST_F(ObsStatsTest, PercentileOfEmptyHistogramIsZero) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
}

TEST_F(ObsStatsTest, PercentileSurvivesAdversarialQuantiles) {
  Histogram& histogram = GetHistogram("t.pct.adversarial");
  histogram.Observe(2.0);
  histogram.Observe(8.0);
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.pct.adversarial");
  // Out-of-range quantiles degrade to the watermarks instead of
  // extrapolating past the observed data.
  EXPECT_DOUBLE_EQ(merged.Percentile(-0.25), merged.min);
  EXPECT_DOUBLE_EQ(merged.Percentile(1.5), merged.max);
  // NaN must not poison the rank comparison into skipping every bucket:
  // it resolves like q <= 0 (the min watermark).
  EXPECT_DOUBLE_EQ(merged.Percentile(std::nan("")), merged.min);
}

TEST_F(ObsStatsTest, PercentileOfInconsistentSnapshotsDoesNotExplode) {
  // Hand-built snapshots can be internally inconsistent (torn reads of a
  // live histogram, or corrupted inputs): Percentile must stay finite.
  HistogramSnapshot torn;
  torn.count = 5;  // count > 0 but every bucket empty...
  torn.min = 1.0;
  torn.max = 4.0;
  // ...degrades to the max watermark (rank never reached), clamped.
  EXPECT_DOUBLE_EQ(torn.Percentile(0.5), 4.0);

  HistogramSnapshot crossed;
  crossed.count = 2;
  crossed.buckets[10] = 2;
  crossed.min = 100.0;  // min > max: the clamp must NOT apply, or every
  crossed.max = 1.0;    // quantile collapses onto the crossed bounds.
  const double value = crossed.Percentile(0.5);
  EXPECT_TRUE(std::isfinite(value));
  const double hi = HistogramBucketUpperBound(10);
  EXPECT_GE(value, hi * 0.5);
  EXPECT_LE(value, hi);
}

TEST_F(ObsStatsTest, PercentileIsMonotoneAcrossAFineQuantileSweep) {
  Histogram& histogram = GetHistogram("t.pct.sweep");
  // A lumpy multi-bucket shape: clusters near 0.01, 3, and 500.
  for (int i = 0; i < 40; ++i) histogram.Observe(0.01);
  for (int i = 0; i < 15; ++i) histogram.Observe(3.0);
  for (int i = 0; i < 5; ++i) histogram.Observe(500.0);
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.pct.sweep");
  double previous = merged.Percentile(0.0);
  for (int step = 1; step <= 1000; ++step) {
    const double q = static_cast<double>(step) / 1000.0;
    const double value = merged.Percentile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    EXPECT_GE(value, merged.min);
    EXPECT_LE(value, merged.max);
    previous = value;
  }
}

TEST_F(ObsStatsTest, ScopedTimerObservesElapsedSeconds) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  {
    ScopedTimer timer("t.timer.span");
    // Do a little real work so the span is strictly positive.
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(i);
  }
  const HistogramSnapshot merged =
      TakeSnapshot().histograms.at("t.timer.span");
  EXPECT_EQ(merged.count, 1);
  EXPECT_GT(merged.sum, 0.0);
  EXPECT_LT(merged.sum, 60.0);  // Sanity: well under a minute.
}

TEST_F(ObsStatsTest, DisabledModeRecordsNothing) {
  ScopedObsEnable disable(false);
  EXPECT_FALSE(Enabled());
  {
    ScopedTimer timer("t.disabled.timer");
  }
  // Call sites follow the guard idiom, so metric objects are never even
  // created while disabled; mimic that here.
  if (Enabled()) GetCounter("t.disabled.counter").Add(1.0);
  const Snapshot snapshot = TakeSnapshot();
  EXPECT_EQ(snapshot.counters.count("t.disabled.counter"), 0u);
  EXPECT_EQ(snapshot.histograms.count("t.disabled.timer"), 0u);
}

TEST_F(ObsStatsTest, SetEnabledReturnsPreviousValue) {
  const bool was = SetEnabled(false);
  EXPECT_TRUE(was);  // Fixture enabled it.
  EXPECT_FALSE(SetEnabled(true));
}

TEST_F(ObsStatsTest, ResetAllZeroesEverythingButKeepsHandles) {
  Counter& counter = GetCounter("t.reset.counter");
  counter.Add(7.0);
  GetHistogram("t.reset.hist").Observe(1.0);
  ResetAll();
  EXPECT_EQ(counter.value(), 0.0);
  const Snapshot snapshot = TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("t.reset.counter"), 0.0);
  EXPECT_EQ(snapshot.histograms.count("t.reset.hist"), 0u);
  counter.Add(2.0);  // Handle still valid after reset.
  EXPECT_EQ(counter.value(), 2.0);
}

}  // namespace
}  // namespace ppn::obs
