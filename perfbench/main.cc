// The repository benchmark: one binary, three workloads (train, serve,
// sweep). See perfbench/README.md for the workloads, the metrics and how
// to run it; perfbench/run.py builds this binary and forwards its flags.
//
//   perfbench --workload <train|serve|sweep> --seed <n> --seconds <s>
//             --trace <0|1> [--expected <path>] [--trace-dir <dir>]
//             [--record]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end ones with --trace 0, per-layer ones with
// --trace 1). The exit code is 0 only when every correctness check held.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "tensor/dispatch.h"
#include "workloads.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|serve|sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--expected <path>] [--trace-dir <dir>] [--record]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      options->record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--expected") {
      options->expected_path = value;
    } else if (flag == "--trace-dir") {
      options->trace_dir = value;
    } else {
      return false;
    }
  }
  return options->workload == "train" || options->workload == "serve" ||
         options->workload == "sweep";
}

void PrintHeader(const Options& options) {
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# nproc=%d simd=%s omp_threads=%d exec_workers=%d build=%s\n",
              ppn::HardwareThreads(),
              ppn::dispatch::PathName(ppn::dispatch::ActivePath()),
              omp_threads, SweepWorkers(), PERFBENCH_BUILD_TYPE);
}

/// Short traced passes of the workloads the run is not named after, so a
/// traced run of any workload reports every per-layer metric.
constexpr double kProbeSeconds = 2.0;

void Trace(const Options& options, Report* report) {
  struct Entry {
    const char* name;
    void (*trace)(const Options&, double, bool, Report*);
  };
  const Entry entries[] = {
      {"train", TraceTrain}, {"serve", TraceServe}, {"sweep", TraceSweep}};
  // The named workload first, then the probes.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Entry& entry : entries) {
      const bool named = options.workload == entry.name;
      if (named != (pass == 0)) continue;
      LayerTable::Get().Reset();
      CounterDelta counters;
      entry.trace(options, named ? options.seconds : kProbeSeconds, named,
                  report);
      counters.Stop();
      std::printf("layer self-time table (%s%s):\n", entry.name,
                  named ? "" : ", probe");
      LayerTable::Get().Print();
      std::printf("obs counter deltas (%s):\n", entry.name);
      counters.Print();
    }
  }
  // The market generator, which every workload's set-up runs.
  std::vector<double> generate_ms;
  const ppn::obs::ScopedTraceEnable tracing;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    {
      Scope scope("market.generate");
      SeededCryptoA(options.seed);
    }
    generate_ms.push_back(SecondsSince(start) * 1e3);
  }
  report->Set("market.generate_ms", Quantile(generate_ms, 0.5), "ms");
  std::error_code error;
  std::filesystem::create_directories(options.trace_dir, error);
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  if (ppn::obs::WriteTraceJson(path)) {
    std::printf("# trace written to %s (dropped events: %lld)\n",
                path.c_str(),
                static_cast<long long>(ppn::obs::TraceDroppedEvents()));
  } else {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  PrintHeader(options);

  Report report;
  Expected expected;
  if (expected.Load(options.expected_path, &report)) {
    if (options.trace) {
      Trace(options, &report);
    } else if (options.workload == "train") {
      RunTrain(options, expected, &report);
    } else if (options.workload == "serve") {
      RunServe(options, &report);
    } else {
      RunSweep(options, expected, &report);
    }
  }
  report.PrintMetrics();
  if (options.record) {
    for (const auto& [key, value] : report.recorded) {
      std::printf("  \"%s\": \"%s\",\n", key.c_str(), value.c_str());
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
