#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

/// \file
/// The three workloads. `Run*` measures the end-to-end metrics with
/// telemetry off and checks the outputs; `Trace*` runs the same work with
/// the tracer on, timing the calls into each layer, and reports the
/// per-layer metrics. A traced run of one workload also gives a short
/// traced pass of the other two (`named == false`), so every traced run
/// reports every per-layer metric.
///
/// End-to-end metric names are shared by all workloads (BENCHMARK.json holds
/// one list): `throughput_per_s`, `latency_ms.p50`, `latency_ms.tail`
/// and `setup_s`; each workload says what one operation is.

namespace perfbench {

/// Worker threads of the sweep's thread pool: PPN_WORKERS or the hardware
/// thread count, never more than nproc.
int SweepWorkers();

void RunTrain(const Options& options, const Expected& expected,
              Report* report);
void TraceTrain(const Options& options, double seconds, bool named,
                Report* report);

void RunServe(const Options& options, Report* report);
void TraceServe(const Options& options, double seconds, bool named,
                Report* report);

void RunSweep(const Options& options, const Expected& expected,
              Report* report);
void TraceSweep(const Options& options, double seconds, bool named,
                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
