// `serve`: one PortfolioServer (fixed-seed PPN, max_batch 64, accounting
// inline) with 256 users, driven as a closed loop per market period: one
// load thread submits a tick for every user, and the next burst starts
// only after the server has drained. User start periods come from the
// seed, so the rows of a batch are different windows. The only workload
// where the forward pass runs tape-free at B=64 and where queueing and
// batching matter; it runs no backward pass and no optimizer step.
//
// One operation is one decision: throughput_per_s is decisions/s,
// latency_ms.p50 the p50 decision latency from submission to the user's
// state being applied, and latency_ms.tail the median of the p99s of ten
// consecutive stretches of the run.

#include <cmath>
#include <cstring>
#include <memory>
#include <set>

#include "backtest/backtester.h"
#include "ppn/policy_inference.h"
#include "ppn/strategy_adapter.h"
#include "serve/portfolio_server.h"
#include "strategies/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppn;

constexpr int64_t kUsers = 256;
constexpr int64_t kMaxBatch = 64;
/// Ticks one server instance runs before it is rebuilt with fresh user
/// start periods (off the clock); start periods leave this much panel.
constexpr int64_t kTicksPerServer = 400;
constexpr int kWarmupTicks = 2;
/// Users per server instance replayed through the backtester.
constexpr int kOracleUsers = 4;
/// Stretches of the run whose p99 latencies latency_ms.tail is the median
/// of: about 3000 decisions each in a 30 s run.
constexpr int kTailSegments = 10;

/// A fixed-seed PPN serving the seeded market.
struct ServeRig {
  explicit ServeRig(uint64_t seed)
      : dataset(SeededCryptoA(seed)),
        init(7),
        dropout(8),
        policy(core::MakePolicy(
            strategies::PaperPolicyConfig(core::PolicyVariant::kPpn,
                                          dataset.panel.num_assets(), 1),
            &init, &dropout)),
        user_rng(seed * 0x9E3779B97F4A7C15ULL + 3) {}

  /// A fresh server whose users start at seeded periods.
  void BuildServer() {
    serve::ServerConfig config;
    config.max_batch = kMaxBatch;
    config.workers = 0;  // Accounting inline on the serving thread.
    config.costs = backtest::CostModel::Uniform(0.0025);
    server = std::make_unique<serve::PortfolioServer>(&dataset.panel,
                                                      policy.get(), config);
    const int64_t k = policy->config().window;
    const int64_t span = dataset.panel.num_periods() - k - kTicksPerServer;
    starts.clear();
    for (int64_t u = 0; u < kUsers; ++u) {
      starts.push_back(k + user_rng.UniformInt(span));
      server->AddUser(starts.back());
    }
    ticks = 0;
  }

  market::MarketDataset dataset;
  Rng init;
  Rng dropout;  // Outlives `policy`.
  std::unique_ptr<core::PolicyModule> policy;
  Rng user_rng;
  std::unique_ptr<serve::PortfolioServer> server;
  std::vector<int64_t> starts;
  int64_t ticks = 0;
};

/// Replays sampled users through RunBacktest of PolicyStrategy (the serve
/// oracle): final wealth must match bit for bit, and every user must have
/// exactly one decision per tick. Returns the number of failed users.
int64_t CheckServer(const ServeRig& rig, Rng* sample_rng, Report* report) {
  int64_t failed = 0;
  const serve::PortfolioServer& server = *rig.server;
  if (server.decisions() != kUsers * rig.ticks) {
    report->Fail("serve: " + std::to_string(server.decisions()) +
                 " decisions for " + std::to_string(kUsers) + " users x " +
                 std::to_string(rig.ticks) + " ticks");
  }
  if (rig.ticks == 0) return 0;
  for (int i = 0; i < kOracleUsers; ++i) {
    const int64_t u = sample_rng->UniformInt(kUsers);
    core::PolicyStrategy strategy(rig.policy.get(), "PPN");
    backtest::BacktestConfig config;
    config.costs = backtest::CostModel::Uniform(0.0025);
    config.start_period = rig.starts[u];
    config.end_period = rig.starts[u] + rig.ticks;
    const backtest::BacktestRecord record =
        backtest::RunBacktest(&strategy, rig.dataset.panel, config);
    const double served = server.user(u).wealth;
    const double replayed = record.wealth_curve.back();
    if (std::memcmp(&served, &replayed, sizeof(double)) != 0 ||
        server.user(u).decisions != rig.ticks) {
      ++failed;
      report->Fail("serve: user " + std::to_string(u) + " wealth " +
                   std::to_string(served) + " != backtest " +
                   std::to_string(replayed));
    }
  }
  return failed;
}

/// How many of a tick's submissions the server accepted and served.
struct TickResult {
  int64_t submitted = 0;
  int64_t served = 0;

  /// Refused submissions plus accepted ones that got no decision.
  int64_t failed() const {
    return (kUsers - submitted) + (submitted - served);
  }
};

TickResult Tick(ServeRig* rig) {
  TickResult result;
  for (int64_t u = 0; u < kUsers; ++u) {
    if (rig->server->SubmitTick(u)) ++result.submitted;
  }
  result.served = rig->server->DrainPending();
  ++rig->ticks;
  return result;
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  SetupSampler setups(options.seconds);
  std::unique_ptr<ServeRig> rig;
  auto setup = [&](std::unique_ptr<ServeRig>* target) {
    *target = std::make_unique<ServeRig>(options.seed);
    (*target)->BuildServer();
  };
  setups.Sample([&] { setup(&rig); });
  Rng sample_rng(options.seed + 17);

  for (int i = 0; i < kWarmupTicks; ++i) Tick(rig.get());
  size_t first_latency = rig->server->latency_seconds().size();
  std::vector<double> latency_ms;
  auto collect = [&] {
    const std::vector<double>& samples = rig->server->latency_seconds();
    for (size_t i = first_latency; i < samples.size(); ++i) {
      latency_ms.push_back(samples[i] * 1e3);
    }
  };
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t decisions = 0;
  double busy_s = 0.0;
  double peak_rss_mb = 0.0;
  while (busy_s < options.seconds) {
    if (rig->ticks == kTicksPerServer) {
      collect();
      failed += CheckServer(*rig, &sample_rng, report);
      rig->BuildServer();
      first_latency = 0;
    }
    const Clock::time_point start = Clock::now();
    const TickResult tick = Tick(rig.get());
    busy_s += SecondsSince(start);
    attempted += kUsers;
    failed += tick.failed();
    decisions += tick.served;
    // The steady-state footprint, before a throwaway set-up adds to it.
    if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();
    setups.MaybeSample(busy_s, [&] {
      std::unique_ptr<ServeRig> other;
      setup(&other);
    });
  }
  collect();
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
  failed += CheckServer(*rig, &sample_rng, report);
  report->Attempt(attempted, failed);
  report->Set("setup_s", setups.Median(), "s");
  report->Set("throughput_per_s", static_cast<double>(decisions) / busy_s,
              "1/s");
  report->Set("latency_ms.p50", Quantile(latency_ms, 0.5), "ms");
  const double tail_ms = SegmentedQuantile(latency_ms, 0.99, kTailSegments);
  report->Set("latency_ms.tail", tail_ms, "ms");
  std::printf("serve: %lld decisions in %.3f s  serve.decisions_per_s=%.2f  "
              "serve.decision_ms.p50=%.3f  serve.decision_ms.p99=%.3f "
              "(whole run), %.3f (median of %d stretches)  (%zu samples)\n",
              static_cast<long long>(decisions), busy_s, decisions / busy_s,
              Quantile(latency_ms, 0.5), Quantile(latency_ms, 0.99), tail_ms,
              kTailSegments, latency_ms.size());
}

void TraceServe(const Options& options, double seconds, bool named,
                Report* report) {
  const auto rig = std::make_unique<ServeRig>(options.seed);
  rig->BuildServer();
  Rng sample_rng(options.seed + 17);
  const core::PolicyInference inference(rig->policy.get());
  const int64_t m = rig->policy->config().num_assets;
  const int64_t k = rig->policy->config().window;

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> queue_wait_ms;
  std::vector<double> process_ms;
  double distinct_windows = 0.0;
  int64_t batches = 0;
  int64_t batched_rows = 0;
  // One traced tick: the submission burst and each ProcessBatch call
  // timed; batches take users in submission order (FIFO queue, one
  // request per user), so batch j holds users [64j, 64j + 64).
  auto traced_tick = [&] {
    Scope tick_scope("serve.tick");
    std::vector<Clock::time_point> submitted(kUsers);
    int64_t accepted = 0;
    {
      Scope scope("serve.submit_burst");
      for (int64_t u = 0; u < kUsers; ++u) {
        submitted[u] = Clock::now();
        if (rig->server->SubmitTick(u)) ++accepted;
      }
    }
    int64_t served = 0;
    for (int64_t first = 0; served < accepted; first += kMaxBatch) {
      const Clock::time_point batch_start = Clock::now();
      std::set<int64_t> periods;
      const int64_t last = std::min(first + kMaxBatch, kUsers);
      for (int64_t u = first; u < last; ++u) {
        queue_wait_ms.push_back(
            std::chrono::duration<double>(batch_start - submitted[u]).count() *
            1e3);
        periods.insert(rig->server->user(u).next_period);
      }
      int64_t rows = 0;
      {
        Scope scope("serve.process_batch");
        rows = rig->server->ProcessBatch();
      }
      process_ms.push_back(SecondsSince(batch_start) * 1e3);
      if (rows == 0) break;
      served += rows;
      batched_rows += rows;
      distinct_windows += static_cast<double>(periods.size()) / rows;
      ++batches;
    }
    ++rig->ticks;
    attempted += kUsers;
    failed += (kUsers - accepted) + (accepted - served);
  };
  // DecideBatch alone at B=64 on the rows of batch [first, first + 64),
  // after the tick: the same work as that batch's forward, one period on.
  std::vector<double> decide_ms;
  auto decide_batch = [&](int64_t first) {
    Tensor windows({kMaxBatch, m, k, market::kNumPriceFields});
    Tensor prev_actions({kMaxBatch, m});
    const int64_t per_window = m * k * market::kNumPriceFields;
    for (int64_t i = 0; i < kMaxBatch; ++i) {
      const serve::UserState& user = rig->server->user(first + i);
      const Tensor window =
          market::NormalizedWindow(rig->dataset.panel, user.next_period - 1, k);
      std::memcpy(windows.MutableData() + i * per_window, window.Data(),
                  sizeof(float) * per_window);
      for (int64_t a = 0; a < m; ++a) {
        prev_actions.MutableData()[i * m + a] =
            static_cast<float>(user.pvm_row[a + 1]);
      }
    }
    const Clock::time_point start = Clock::now();
    {
      Scope scope("ppn.inference.decide.b64");
      inference.DecideBatch(windows, prev_actions);
    }
    decide_ms.push_back(SecondsSince(start) * 1e3);
  };

  for (int i = 0; i < kWarmupTicks; ++i) Tick(rig.get());
  std::vector<double> untraced_ms;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 0.3 * seconds) {
    const Clock::time_point tick_start = Clock::now();
    const TickResult tick = Tick(rig.get());
    untraced_ms.push_back(SecondsSince(tick_start) * 1e3);
    attempted += kUsers;
    failed += tick.failed();
  }

  LayerTable::Get().Reset();
  std::vector<double> traced_ms;
  {
    ppn::obs::ScopedTraceEnable tracing;
    start = Clock::now();
    while (SecondsSince(start) < 0.7 * seconds || traced_ms.size() < 3) {
      if (rig->ticks + 1 >= kTicksPerServer) break;
      const Clock::time_point tick_start = Clock::now();
      traced_tick();
      traced_ms.push_back(SecondsSince(tick_start) * 1e3);
      for (int64_t first = 0; first < kUsers; first += kMaxBatch) {
        decide_batch(first);
      }
    }
  }
  failed += CheckServer(*rig, &sample_rng, report);
  report->Attempt(attempted, failed);

  // Medians: the accounting row is the difference of two ~60 ms timings.
  const double process_p50 = Quantile(process_ms, 0.5);
  const double decide_p50 = Quantile(decide_ms, 0.5);
  report->Set("serve.process_batch_ms", process_p50, "ms");
  report->Set("ppn.inference.decide_ms.b64", decide_p50, "ms");
  report->Set("serve.accounting_ms", process_p50 - decide_p50, "ms");
  report->Set("serve.batch_size.mean",
              static_cast<double>(batched_rows) / std::max<int64_t>(batches, 1),
              "count");
  report->Set("serve.queue_wait_ms.p50", Quantile(queue_wait_ms, 0.5), "ms");
  report->Set("serve.distinct_window_ratio",
              distinct_windows / std::max<int64_t>(batches, 1), "ratio");
  if (named) {
    report->Set("obs.trace_overhead_ratio",
                Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5),
                "ratio");
  }
  std::printf("serve (traced): %zu ticks, ProcessBatch p50 %.3f ms, "
              "DecideBatch B=64 p50 %.3f ms (%.4f ms/decision)\n",
              traced_ms.size(), process_p50, decide_p50,
              decide_p50 / kMaxBatch);
}

}  // namespace perfbench
