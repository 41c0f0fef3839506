#ifndef PPN_BENCH_BENCH_UTIL_H_
#define PPN_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/run_scale.h"
#include "common/table_printer.h"
#include "exec/experiment.h"
#include "market/presets.h"

namespace ppn::obs {
class StatsSampler;
}  // namespace ppn::obs

/// \file
/// Shared machinery of the experiment harness. A `BenchContext` owns the
/// scale tier, the parallel `ExperimentRunner`, and the table/JSON output
/// conventions, so each bench binary reduces to: declare an
/// `ExperimentSpec`, run it, print the grouped tables.
///
/// Strategy construction and training moved to the unified registry
/// (strategies/registry.h); bench binaries must not instantiate strategy
/// or trainer types directly.

namespace ppn::bench {

/// Per-binary harness state: prints the header at construction, runs specs
/// through a shared `ExperimentRunner` (worker count from `PPN_WORKERS`,
/// default: hardware threads), and renders grouped result tables.
class BenchContext {
 public:
  /// Prints the bench header for `title` at the active `PPN_SCALE` tier.
  explicit BenchContext(std::string title);

  /// Stops the periodic stats sampler (if `PPN_STATS_JSONL` started one in
  /// the constructor; its last line is the binary's whole-run profile)
  /// and prints the `PPN_HEALTH` verdict when rules are set.
  ~BenchContext();

  RunScale scale() const { return scale_; }

  /// Generates (and caches) a dataset preset at the context's scale, for
  /// benches that need panel access beyond what a spec run returns.
  const market::MarketDataset& dataset(market::DatasetId id);

  /// Runs `spec` through the parallel runner. The context's scale and (if
  /// unset) title are stamped onto the spec first. When the
  /// `PPN_RESULTS_JSON` environment variable names a directory, the rows
  /// are also dumped there as `<slugged title>.cells.json`.
  std::vector<exec::CellResult> Run(exec::ExperimentSpec spec) const;

  /// Prints one table per dataset (spec enumeration order): rows are the
  /// strategy labels, columns the requested metrics.
  void PrintByDataset(const std::vector<exec::CellResult>& rows,
                      const std::vector<std::string>& metric_columns,
                      const std::string& label_header = "Algos",
                      int precision = 3) const;

  /// Prints one table per cost rate ("--- c = X% ---"): rows are the
  /// strategy labels, columns the requested metrics.
  void PrintByCostRate(const std::vector<exec::CellResult>& rows,
                       const std::vector<std::string>& metric_columns,
                       const std::string& label_header = "Algos",
                       int precision = 3) const;

 private:
  std::string title_;
  RunScale scale_;
  exec::ExperimentRunner runner_;
  std::unique_ptr<obs::StatsSampler> sampler_;
  std::map<market::DatasetId, market::MarketDataset> datasets_;
};

/// Writes per-period wealth curves (one column per labelled series) to a
/// CSV under the current directory; returns the path.
std::string WriteWealthCurves(
    const std::string& file_stem,
    const std::vector<std::pair<std::string,
                                std::vector<double>>>& curves);

/// Prints a header naming the experiment and the active scale.
void PrintBenchHeader(const std::string& title, RunScale scale);

}  // namespace ppn::bench

#endif  // PPN_BENCH_BENCH_UTIL_H_
