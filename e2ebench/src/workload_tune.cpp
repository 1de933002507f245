// tune_memo: a FlowTuner campaign over every knob of
// flow::default_knob_spaces() on the 1,214-cell block, batch 4 on a
// 4-worker pool, memoized through RemoteRunCache -> in-process CacheServer
// -> a fresh on-disk RunStore. A second identical campaign then runs against
// the reopened store and must be served entirely from the memo layer.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "checks.hpp"
#include "netlist/cell_library.hpp"
#include "stepwise.hpp"
#include "store/cache_server.hpp"
#include "store/remote_cache.hpp"
#include "timed_cache.hpp"
#include "tune/flow_tuner.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr double kTargetGhz = 1.2;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kRechecked = 3;  ///< memo-served results re-run per round

/// Store, its cache index, the cache server fronting it and a client.
struct StoreStack {
  std::unique_ptr<store::RunStore> store;
  std::unique_ptr<store::RunCache> cache;
  std::unique_ptr<store::CacheServer> server;
  std::unique_ptr<store::RemoteRunCache> client;

  StoreStack(const std::string& dir, const std::string& socket) {
    store::RunStoreOptions so;
    so.shards = 8;
    so.fsync = store::FsyncMode::Batch;
    store = std::make_unique<store::RunStore>(dir, so);
    cache = std::make_unique<store::RunCache>(*store);
    store::CacheServerOptions cso;
    cso.socket_path = socket;
    server = std::make_unique<store::CacheServer>(*cache, cso);
    if (!server->start()) throw std::runtime_error("cache server failed to listen on " + socket);
    store::RemoteCacheOptions rco;
    rco.socket_path = socket;
    rco.tenant = "e2ebench";
    client = std::make_unique<store::RemoteRunCache>(rco, cache.get());
  }
  ~StoreStack() {
    client.reset();
    server->stop();
    server.reset();
    cache.reset();
    store.reset();
  }
  StoreStack(const StoreStack&) = delete;
  StoreStack& operator=(const StoreStack&) = delete;
};

struct Executed {
  std::uint64_t seed = 0;
  flow::FlowTrajectory knobs;
  flow::FlowResult result;
};

Simulated simulate(const tune::TuneResult& cold, std::vector<Executed> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Executed& a, const Executed& b) { return a.seed < b.seed; });
  Simulated sim;
  sim.best_score = cold.best_score;
  std::vector<double> crit, hpwl;
  for (const auto& e : runs) {
    if (!e.result.completed) continue;
    const double cp = crit_path_ps(e.result, kTargetGhz);
    crit.push_back(cp);
    hpwl.push_back(e.result.hpwl_dbu / 1e6);
    if (e.result.success()) sim.best_ghz = std::max(sim.best_ghz, 1000.0 / cp);
  }
  sim.crit_path_ps = mean(crit);
  sim.hpwl_mm = mean(hpwl);
  return sim;
}

}  // namespace

Report run_tune_memo(const Args& args, SpanLog& log) {
  namespace fs = std::filesystem;
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

  tune::TuneOptions base;
  base.design = design.name;
  base.rounds = 24;
  base.batch = 4;
  base.policy = tune::TunePolicy::Thompson;
  // One fixed campaign, whatever --seed says: a campaign's cost depends on
  // which knob values the tuner happens to explore and freeze, and measured
  // 2.0 to 7.7 s across 19 tuner seeds. No affordable number of campaigns
  // per run averages that spread below the wall-time bound, so the seed that
  // drives the other workloads' inputs leaves this one's unchanged.
  constexpr std::uint64_t tuner_seed = 2018;
  const std::uint64_t ops_per_campaign = base.rounds * base.batch;
  const std::uint64_t ops = 2 * ops_per_campaign;

  std::vector<double> untraced_wall, traced_wall;
  std::vector<LayerFigures> traced_figures;
  std::optional<Simulated> sim;
  std::size_t round_no = 0;
  const auto round_dir = [&] { return args.tmp_dir + "/r" + std::to_string(round_no); };
  exec::RunExecutor pool{exec::ExecOptions{kWorkers, kWorkers}};
  // Each round gets a fresh store and server, opened before its timed
  // section: the first round's in set-up.
  std::unique_ptr<StoreStack> stack;
  const auto open_fresh = [&] {
    fs::create_directories(round_dir());
    stack = std::make_unique<StoreStack>(round_dir() + "/store", round_dir() + "/cold.sock");
  };
  open_fresh();
  const double setup_s = ms_between(args.t0, Clock::now()) / 1000.0;

  run_rounds(args, log, [&](bool traced) {
    if (!stack) open_fresh();
    report.attempt(ops);
    std::mutex mu;
    std::vector<Executed> executed;
    std::vector<FlowFigures> figures;
    std::atomic<std::size_t> calls{0};
    std::uint64_t campaign_id = 0;

    const tune::TuneOracle oracle = [&](const flow::FlowTrajectory& knobs, std::uint64_t seed) {
      calls.fetch_add(1);
      flow::FlowRecipe recipe;
      recipe.design = design;
      recipe.target_ghz = kTargetGhz;
      recipe.knobs = knobs;
      recipe.seed = seed;
      flow::DesignState state;
      flow::FlowResult result;
      {
        const SpanLog::Scope span(log, "oracle", campaign_id);
        result = run_flow(manager, lib, recipe, constraints, state, log, span.id());
      }
      const std::lock_guard<std::mutex> lock(mu);
      executed.push_back({seed, knobs, result});
      if (traced) figures.push_back(figures_of(state, result));
      return result;
    };

    const std::size_t mark = log.size();
    const std::size_t journal_mark = pool.journal().size();
    tune::TuneResult cold, warm;
    std::size_t cold_calls = 0;
    std::size_t warm_calls = 0;
    std::uint64_t drops = 0;
    std::map<std::uint64_t, flow::FlowResult> served;
    std::map<std::uint64_t, std::uint64_t> inserted;
    bool ran = false;
    const auto start = Clock::now();
    try {
      {
        const SpanLog::Scope campaign(log, "campaign.cold");
        campaign_id = campaign.id();
        TimedCache cache{*stack->client, log, campaign_id};
        tune::TuneOptions opt = base;
        opt.cache = &cache;
        util::Rng rng{tuner_seed};
        cold = tune::FlowTuner{opt}.run(oracle, rng, pool);
        drops += cache.local_drops();
        inserted = cache.inserted_seeds();
      }
      cold_calls = calls.exchange(0);
      {
        const SpanLog::Scope reopen(log, "store.reopen");
        stack.reset();
        stack = std::make_unique<StoreStack>(round_dir() + "/store", round_dir() + "/warm.sock");
      }
      {
        const SpanLog::Scope campaign(log, "campaign.warm");
        campaign_id = campaign.id();
        TimedCache cache{*stack->client, log, campaign_id};
        tune::TuneOptions opt = base;
        opt.cache = &cache;
        util::Rng rng{tuner_seed};
        warm = tune::FlowTuner{opt}.run(oracle, rng, pool);
        drops += cache.local_drops();
        served = cache.served();
      }
      warm_calls = calls.load();
      ran = true;
    } catch (const std::exception& e) {
      std::cerr << "e2ebench: tune round threw: " << e.what() << '\n';
    }
    const double wall_s = ms_between(start, Clock::now()) / 1000.0;
    (traced ? traced_wall : untraced_wall).push_back(wall_s);

    stack.reset();
    if (!ran) {
      report.check("tune round did not finish", ops);
    } else {
      report.fail(drops);
      for (const auto& e : executed) {
        if (!e.result.failed_step.empty()) report.fail(1);
      }
      report.check(check_oracle_calls(cold_calls, cold.distinct_runs), ops_per_campaign);
      report.check(check_warm_campaign(warm_calls, cold, warm), ops_per_campaign);

      // Re-run a few memo-served results directly through FlowManager.
      std::map<std::uint64_t, const Executed*> by_seed;
      for (const auto& e : executed) by_seed[e.seed] = &e;
      std::size_t rechecked = 0;
      for (const auto& [fp, cached] : served) {
        if (rechecked == kRechecked) break;
        ++rechecked;
        const auto seed = inserted.find(fp);
        const auto run = seed == inserted.end() ? by_seed.end() : by_seed.find(seed->second);
        if (run == by_seed.end()) {
          report.check("memo-served fingerprint " + std::to_string(fp) + " was never executed", 1);
          continue;
        }
        flow::FlowRecipe recipe;
        recipe.design = design;
        recipe.target_ghz = kTargetGhz;
        recipe.knobs = run->second->knobs;
        recipe.seed = run->second->seed;
        report.check(check_rerun(cached, manager.run(recipe, constraints)), 1);
      }
      if (rechecked == 0) report.check("the warm campaign served nothing from the memo layer", ops);

      const Simulated round_sim = simulate(cold, executed);
      if (!sim) {
        sim = round_sim;
        std::cerr << "e2ebench: tuner: " << cold.total_runs << " dispatches, " << cold_calls
                  << " executed, warm campaign " << warm.total_runs << " dispatches, "
                  << warm_calls << " executed, best score " << cold.best_score << '\n';
      }
      report.check(round_sim == *sim ? std::nullopt
                                     : std::optional<std::string>("campaign not repeatable: "
                                                                  "simulated figures changed"),
                   ops);
    }
    if (traced) {
      LayerFigures f;
      add_span_figures(f, log.since(mark), static_cast<double>(kWorkers));
      add_flow_figures(f, figures);
      add_journal_figures(f, pool.journal(), journal_mark);
      traced_figures.push_back(std::move(f));
    }

    std::error_code ec;
    fs::remove_all(round_dir(), ec);
    ++round_no;
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
