#include "market/replay_io.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/csv.h"
#include "obs/trace.h"

namespace ppn::market {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Index of `name` in `header`, or -1.
int FindColumn(const std::vector<std::string>& header,
               const std::string& name) {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

// Parses a period/asset cell. The range check runs on the double: casting
// a NaN or out-of-range value (1e20) to int64_t is undefined behaviour.
// The 2^62 ceiling leaves room for the `index + 1` panel extents.
bool ParseIndex(double raw, int64_t* index) {
  if (!(raw >= 0.0 && raw < 0x1p62)) return false;  // NaN fails both.
  *index = static_cast<int64_t>(raw);
  return static_cast<double>(*index) == raw;
}

}  // namespace

bool LoadReplayCsv(const std::string& path, const ReplayCsvOptions& options,
                   MarketDataset* dataset, std::string* error) {
  PPN_CHECK(dataset != nullptr);
  obs::Span span("market.replay.load_csv");

  CsvTable table;
  if (!ReadCsv(path, &table)) {
    return Fail(error, "cannot read numeric CSV at " + path);
  }
  if (table.rows.empty()) {
    return Fail(error, path + " has a header but no data rows");
  }
  const int col_period = FindColumn(table.header, "period");
  const int col_asset = FindColumn(table.header, "asset");
  const int col_open = FindColumn(table.header, "open");
  const int col_high = FindColumn(table.header, "high");
  const int col_low = FindColumn(table.header, "low");
  const int col_close = FindColumn(table.header, "close");
  const std::pair<int, const char*> required[] = {
      {col_period, "period"}, {col_asset, "asset"}, {col_open, "open"},
      {col_high, "high"},     {col_low, "low"},     {col_close, "close"}};
  for (const auto& [column, name] : required) {
    if (column < 0) {
      return Fail(error, path + " is missing required column '" +
                             std::string(name) + "'");
    }
  }

  // First pass: panel shape from the index maxima.
  int64_t num_periods = 0;
  int64_t num_assets = 0;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    int64_t t = 0;
    int64_t a = 0;
    if (!ParseIndex(row[col_period], &t) || !ParseIndex(row[col_asset], &a)) {
      return Fail(error, path + " row " + std::to_string(r + 2) +
                             ": period/asset must be non-negative integers");
    }
    num_periods = std::max(num_periods, t + 1);
    num_assets = std::max(num_assets, a + 1);
  }
  if (num_periods < 2) {
    return Fail(error, path + " holds fewer than 2 periods; nothing to trade");
  }
  if (num_periods > kMaxReplayPanelBars / num_assets) {
    return Fail(error, path + ": " + std::to_string(num_periods) +
                           " periods x " + std::to_string(num_assets) +
                           " assets exceeds the " +
                           std::to_string(kMaxReplayPanelBars) +
                           "-bar panel limit");
  }

  // Second pass: fill the panel, rejecting duplicate bars.
  OhlcPanel panel(num_periods, num_assets);
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    const int64_t t = static_cast<int64_t>(row[col_period]);
    const int64_t a = static_cast<int64_t>(row[col_asset]);
    if (!panel.IsMissing(t, a)) {
      return Fail(error, path + " row " + std::to_string(r + 2) +
                             ": duplicate bar (period " + std::to_string(t) +
                             ", asset " + std::to_string(a) + ")");
    }
    panel.SetPrice(t, a, kOpen, row[col_open]);
    panel.SetPrice(t, a, kHigh, row[col_high]);
    panel.SetPrice(t, a, kLow, row[col_low]);
    panel.SetPrice(t, a, kClose, row[col_close]);
  }

  if (!panel.IsComplete()) {
    if (!options.fill_missing) {
      for (int64_t t = 0; t < num_periods; ++t) {
        for (int64_t a = 0; a < num_assets; ++a) {
          if (panel.IsMissing(t, a)) {
            return Fail(error, path + ": missing bar (period " +
                                   std::to_string(t) + ", asset " +
                                   std::to_string(a) +
                                   ") and fill_missing is off");
          }
        }
      }
    }
    // FlatFillMissing aborts on an all-missing asset; pre-check it here so
    // untrusted data reports instead.
    for (int64_t a = 0; a < num_assets; ++a) {
      bool observed = false;
      for (int64_t t = 0; t < num_periods && !observed; ++t) {
        observed = !panel.IsMissing(t, a);
      }
      if (!observed) {
        return Fail(error, path + ": asset " + std::to_string(a) +
                               " has no observed bars");
      }
    }
    FlatFillMissing(&panel);
  }

  // OHLC sanity, reported with the offending bar named (IsValid alone only
  // says "no").
  for (int64_t t = 0; t < num_periods; ++t) {
    for (int64_t a = 0; a < num_assets; ++a) {
      const double open = panel.Price(t, a, kOpen);
      const double high = panel.Price(t, a, kHigh);
      const double low = panel.Price(t, a, kLow);
      const double close = panel.Price(t, a, kClose);
      if (!std::isfinite(open) || !std::isfinite(high) ||
          !std::isfinite(low) || !std::isfinite(close)) {
        return Fail(error, path + ": non-finite price at (period " +
                               std::to_string(t) + ", asset " +
                               std::to_string(a) + ")");
      }
      if (!(low > 0.0) || low > open || low > close || high < open ||
          high < close) {
        return Fail(error,
                    path + ": invalid OHLC bar at (period " +
                        std::to_string(t) + ", asset " + std::to_string(a) +
                        "): open=" + std::to_string(open) +
                        " high=" + std::to_string(high) +
                        " low=" + std::to_string(low) +
                        " close=" + std::to_string(close));
      }
    }
  }
  PPN_CHECK(panel.IsValid());

  int64_t train_end = options.train_end;
  if (train_end < 0) {
    if (!(options.train_fraction > 0.0 && options.train_fraction < 1.0)) {
      return Fail(error, "train_fraction must be in (0, 1), got " +
                             std::to_string(options.train_fraction));
    }
    train_end = static_cast<int64_t>(options.train_fraction *
                                     static_cast<double>(num_periods));
  }
  if (train_end < 1 || train_end >= num_periods) {
    return Fail(error, "degenerate split: train_end " +
                           std::to_string(train_end) + " of " +
                           std::to_string(num_periods) +
                           " periods leaves an empty train or test range");
  }

  MarketDataset loaded;
  loaded.name = options.name.empty() ? path : options.name;
  loaded.panel = std::move(panel);
  loaded.train_end = train_end;
  loaded.asset_names.reserve(num_assets);
  for (int64_t a = 0; a < num_assets; ++a) {
    loaded.asset_names.push_back("ASSET" + std::to_string(a));
  }
  span.AddArg("periods", static_cast<double>(num_periods));
  span.AddArg("assets", static_cast<double>(num_assets));
  *dataset = std::move(loaded);
  return true;
}

}  // namespace ppn::market
