// mab_campaign: the Fig. 7 Thompson campaign over target-frequency arms on a
// 1,214-cell RandomLogic block — 40 iterations of 4 concurrent pulls on a
// 4-worker RunExecutor. Every run is transmitted to a METRICS server that a
// live subscriber streams with poll_since. Throughput over many short flows.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "core/mab_scheduler.hpp"
#include "metrics/server.hpp"
#include "netlist/cell_library.hpp"
#include "stepwise.hpp"
#include "tune/flow_tuner.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr std::size_t kIterations = 40;
constexpr std::size_t kConcurrency = 4;
constexpr std::size_t kWorkers = 4;
constexpr auto kPollEvery = std::chrono::milliseconds(5);

/// The live dashboard: one subscriber draining the server until stopped.
class Monitor {
 public:
  Monitor(metrics::Server& server, SpanLog& log, std::uint64_t parent)
      : server_(server), log_(log), parent_(parent), sub_(server.subscribe(true)),
        thread_([this] { loop(); }) {}
  ~Monitor() { stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Stop polling after one last drain; returns every streamed record.
  std::vector<metrics::Record> stop() {
    if (thread_.joinable()) {
      done_.store(true, std::memory_order_release);
      thread_.join();
      poll();
      server_.unsubscribe(sub_);
    }
    return std::move(streamed_);
  }

 private:
  void loop() {
    while (!done_.load(std::memory_order_acquire)) {
      poll();
      std::this_thread::sleep_for(kPollEvery);
    }
  }
  void poll() {
    const SpanLog::Scope span(log_, "metrics.poll", parent_);
    metrics::Poll p = server_.poll_since(sub_);
    for (auto& r : p.records) streamed_.push_back(std::move(r));
  }

  metrics::Server& server_;
  SpanLog& log_;
  std::uint64_t parent_;
  std::uint64_t sub_;
  std::atomic<bool> done_{false};
  std::vector<metrics::Record> streamed_;
  std::thread thread_;  ///< last: starts after every member it uses
};

Simulated simulate(const core::MabRunResult& result, std::vector<MabCall> calls) {
  Simulated sim;
  sim.best_ghz = result.best_feasible_ghz;
  // Completion order varies between rounds; sum in seed order so the
  // figures repeat bit for bit.
  std::sort(calls.begin(), calls.end(),
            [](const MabCall& a, const MabCall& b) { return a.seed < b.seed; });
  std::vector<double> crit, hpwl;
  for (const auto& c : calls) {
    if (!c.result.completed) continue;
    crit.push_back(crit_path_ps(c.result, c.ghz));
    hpwl.push_back(c.result.hpwl_dbu / 1e6);
    sim.best_score = std::max(sim.best_score, tune::default_objective(c.result));
  }
  sim.crit_path_ps = mean(crit);
  sim.hpwl_mm = mean(hpwl);
  return sim;
}

}  // namespace

Report run_mab_campaign(const Args& args, SpanLog& log) {
  Report report;
  const netlist::CellLibrary lib = netlist::make_default_library();
  const flow::FlowManager manager{lib};
  flow::DesignSpec design;
  design.kind = flow::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.rtl_seed = 1;
  design.name = "rand1k";
  flow::FlowConstraints constraints;
  constraints.max_power_mw = 20.0;

  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(0.5, 2.5, 21);
  opt.iterations = kIterations;
  opt.concurrency = kConcurrency;
  opt.algorithm = core::MabAlgorithm::Thompson;
  const core::MabScheduler scheduler{opt};
  const std::uint64_t ops = kIterations * kConcurrency;

  std::vector<double> untraced_wall, traced_wall;
  std::vector<LayerFigures> traced_figures;
  std::optional<Simulated> sim;
  exec::RunExecutor pool{exec::ExecOptions{kWorkers, kWorkers}};
  // A fresh server per round, made between rounds (the first in set-up).
  auto server = std::make_unique<metrics::Server>(metrics::ServerOptions{});
  const double setup_s = ms_between(args.t0, Clock::now()) / 1000.0;

  run_rounds(args, log, [&](bool traced) {
    report.attempt(ops);
    metrics::Transmitter transmitter{*server};
    std::mutex mu;
    std::vector<MabCall> calls;
    std::vector<SentFlow> sent;
    std::vector<FlowFigures> figures;
    std::atomic<std::uint64_t> order{0};
    std::uint64_t campaign_id = 0;
    std::size_t cells = 0;

    const core::FlowOracle oracle = [&](double ghz, std::uint64_t seed) {
      flow::FlowRecipe recipe;
      recipe.design = design;
      recipe.target_ghz = ghz;
      recipe.seed = seed;
      const std::uint64_t call = order.fetch_add(1);
      flow::DesignState state;
      flow::FlowResult result;
      {
        const SpanLog::Scope span(log, "oracle", campaign_id);
        result = run_flow(manager, lib, recipe, constraints, state, log, span.id());
      }
      {
        const SpanLog::Scope span(log, "metrics.transmit", campaign_id);
        transmitter.transmit_flow(recipe, result);
      }
      const std::lock_guard<std::mutex> lock(mu);
      calls.push_back({call, ghz, seed, result});
      sent.push_back({seed, ghz, result});
      if (traced) figures.push_back(figures_of(state, result));
      if (state.nl) cells = state.nl->instance_count();
      return result;
    };

    const std::size_t mark = log.size();
    const std::size_t journal_mark = pool.journal().size();
    const auto start = Clock::now();
    core::MabRunResult res;
    std::vector<metrics::Record> streamed;
    {
      const SpanLog::Scope span(log, "campaign.mab");
      campaign_id = span.id();
      Monitor monitor{*server, log, campaign_id};
      util::Rng rng{derive_seed(args.seed, 0)};
      res = scheduler.run(oracle, rng, pool);
      streamed = monitor.stop();
    }
    const double wall_s = ms_between(start, Clock::now()) / 1000.0;
    (traced ? traced_wall : untraced_wall).push_back(wall_s);

    report.fail(res.censored_runs);
    for (const auto& c : calls) {
      if (!c.result.failed_step.empty()) report.fail(1);
    }
    report.check(check_mab_success(res, calls, constraints, kConcurrency), ops);
    report.check(check_mab_best(res), ops);
    report.check(check_mab_regret(res), ops);
    report.check(check_mab_total_runs(res, kIterations, kConcurrency), ops);
    report.check(check_metrics_records(*server, design.name, sent, streamed), ops);

    const Simulated round_sim = simulate(res, calls);
    if (!sim) {
      sim = round_sim;
      std::cerr << "e2ebench: " << design.name << ": " << cells << " cells after synthesis, best "
                << round_sim.best_ghz << " GHz\n";
    }
    report.check(round_sim == *sim ? std::nullopt
                                   : std::optional<std::string>("campaign not repeatable: "
                                                                "simulated figures changed"),
                 ops);
    if (traced) {
      LayerFigures f;
      add_span_figures(f, log.since(mark), static_cast<double>(kWorkers));
      add_flow_figures(f, figures);
      add_journal_figures(f, pool.journal(), journal_mark);
      f["metrics.records"] = static_cast<double>(server->size());
      traced_figures.push_back(std::move(f));
    }
    server = std::make_unique<metrics::Server>(metrics::ServerOptions{});
  });

  if (args.trace) {
    emit_per_layer(report, traced_figures, untraced_wall, traced_wall);
  } else {
    emit_end_to_end(report, setup_s, untraced_wall, static_cast<double>(ops),
                    sim.value_or(Simulated{}));
  }
  return report;
}

}  // namespace e2e
