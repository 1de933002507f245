// Every output check of the benchmark accepts the program's genuine output
// and rejects it once a value is corrupted.
//
//   cmake --build .bench_build/e2ebench --target e2ebench_tests
//   (cd .bench_build/e2ebench && ./e2ebench_tests)

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>

#include "checks.hpp"
#include "netlist/cell_library.hpp"
#include "place/placement.hpp"
#include "spans.hpp"
#include "stepwise.hpp"
#include "store/cache_server.hpp"
#include "store/remote_cache.hpp"
#include "timed_cache.hpp"

namespace e2e {
namespace {

double bump(double v) { return std::nextafter(v, HUGE_VAL); }

/// A small real flow, kept with its DesignState.
struct SmallFlow {
  netlist::CellLibrary lib = netlist::make_default_library();
  flow::FlowManager manager{lib};
  flow::FlowRecipe recipe;
  flow::FlowConstraints constraints;
  flow::DesignState state;
  flow::FlowResult result;
  SmallFlow() {
    recipe.design.kind = flow::DesignSpec::Kind::RandomLogic;
    recipe.design.gates_override = 400;
    recipe.design.name = "small";
    recipe.target_ghz = 1.0;
    recipe.seed = 7;
    // Coarse grid, one negotiation round: the run ends with overflow, so the
    // overflow recount is exercised on non-zero values.
    recipe.knobs.set(flow::FlowStep::Route, "gcells", "48");
    recipe.knobs.set(flow::FlowStep::Route, "rounds", "1");
    result = manager.run_keep_state(recipe, constraints, state);
  }
};

SmallFlow& small_flow() {
  static SmallFlow f;
  return f;
}

TEST(GrouteTotals, AcceptsTheRouterOutput) {
  const auto& f = small_flow();
  ASSERT_TRUE(f.result.completed);
  EXPECT_EQ(check_groute_totals(f.state.routed, f.state.groute), std::nullopt);
}

TEST(GrouteTotals, RejectsEachCorruptedTotal) {
  const auto& f = small_flow();
  route::RouteResult r = f.state.groute;
  r.total_overflow += 1.0;
  EXPECT_NE(check_groute_totals(f.state.routed, r), std::nullopt);
  r = f.state.groute;
  r.wirelength_gcells += 1.0;
  EXPECT_NE(check_groute_totals(f.state.routed, r), std::nullopt);
  r = f.state.groute;
  r.overflowed_edges += 1;
  EXPECT_NE(check_groute_totals(f.state.routed, r), std::nullopt);
  r = f.state.groute;
  r.max_utilization *= 1.01;
  EXPECT_NE(check_groute_totals(f.state.routed, r), std::nullopt);
}

TEST(GrouteTotals, RejectsACorruptedGrid) {
  const auto& f = small_flow();
  route::GridGraph g = f.state.routed;
  g.add_usage(0, 3.0);
  EXPECT_NE(check_groute_totals(g, f.state.groute), std::nullopt);
}

TEST(Placement, AcceptsTheLegalizedPlacement) {
  EXPECT_EQ(check_placement(*small_flow().state.pl), std::nullopt);
}

/// Two non-pad instances of the small design.
std::pair<netlist::InstanceId, netlist::InstanceId> two_cells(const place::Placement& pl) {
  std::vector<netlist::InstanceId> cells;
  for (std::size_t i = 0; i < pl.size() && cells.size() < 2; ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = pl.netlist().master_of(id).function;
    if (fn != netlist::CellFunction::Input && fn != netlist::CellFunction::Output) {
      cells.push_back(id);
    }
  }
  return {cells.at(0), cells.at(1)};
}

TEST(Placement, RejectsOverlapAndCellsOutsideTheCore) {
  const auto& f = small_flow();
  place::Placement pl = *f.state.pl;
  const auto [a, b] = two_cells(pl);
  pl.set_loc(b, pl.loc(a));
  EXPECT_NE(check_placement(pl), std::nullopt);

  pl = *f.state.pl;
  const geom::Rect core = pl.floorplan().core();
  pl.set_loc(a, {core.hi.x + 1000, core.lo.y});
  EXPECT_NE(check_placement(pl), std::nullopt);
}

TEST(Hpwl, AcceptsTheReportedTotalAndRejectsAnOffByOne) {
  const auto& f = small_flow();
  EXPECT_EQ(check_hpwl(*f.state.pl, f.result.hpwl_dbu), std::nullopt);
  EXPECT_NE(check_hpwl(*f.state.pl, f.result.hpwl_dbu + 1.0), std::nullopt);
  place::Placement pl = *f.state.pl;
  const auto [a, b] = two_cells(pl);
  (void)b;
  pl.set_loc(a, {pl.loc(a).x + 5000, pl.loc(a).y});
  EXPECT_NE(check_hpwl(pl, f.result.hpwl_dbu), std::nullopt);
}

TEST(Stepwise, MatchesFlowManagerBitwise) {
  auto& f = small_flow();
  SpanLog log;
  log.set_enabled(true);
  flow::DesignState state;
  const flow::FlowResult stepwise =
      run_flow_stepwise(f.lib, f.recipe, f.constraints, state, log, 0);
  EXPECT_EQ(diff_results(f.result, stepwise, true), std::nullopt);
  EXPECT_EQ(named(log.since(0), "flow.route").size(), 1u);
  EXPECT_EQ(log.size(), flow::kFlowStepCount);

  flow::FlowResult corrupt = stepwise;
  corrupt.wns_ps = bump(corrupt.wns_ps);
  EXPECT_NE(diff_results(f.result, corrupt, true), std::nullopt);
  corrupt = stepwise;
  const auto edited =
      std::find_if(corrupt.logs.begin(), corrupt.logs.end(), [](const util::ToolLog& l) {
        return !l.iterations.empty() && !l.iterations.back().values.empty();
      });
  ASSERT_NE(edited, corrupt.logs.end());
  edited->iterations.back().values.begin()->second += 1.0;
  EXPECT_NE(diff_results(f.result, corrupt, true), std::nullopt);
  EXPECT_EQ(diff_results(f.result, corrupt, false), std::nullopt);
}

// --- mab_campaign checks, on a real scheduler over a synthetic oracle -------

struct MabFixture {
  flow::FlowConstraints constraints;
  core::MabOptions opt;
  std::vector<MabCall> calls;
  core::MabRunResult res;
  MabFixture() {
    constraints.max_power_mw = 20.0;
    opt.frequency_arms_ghz = core::frequency_arms(0.5, 2.5, 9);
    opt.iterations = 6;
    opt.concurrency = 3;
    std::mutex mu;
    std::uint64_t order = 0;
    const core::FlowOracle oracle = [&](double ghz, std::uint64_t seed) {
      flow::FlowResult r;
      r.completed = true;
      r.wns_ps = (1.6 - ghz) * 100.0 + static_cast<double>(seed % 7) - 3.0;
      r.power_mw = 5.0 * ghz;
      r.area_um2 = 1000.0;
      r.timing_met = r.wns_ps >= 0.0;
      r.drc_clean = true;
      r.constraints_met = r.power_mw <= constraints.max_power_mw;
      const std::lock_guard<std::mutex> lock(mu);
      calls.push_back({order++, ghz, seed, r});
      return r;
    };
    exec::RunExecutor pool{exec::ExecOptions{2, 2}};
    util::Rng rng{5};
    res = core::MabScheduler{opt}.run(oracle, rng, pool);
  }
};

TEST(MabChecks, AcceptTheSchedulerOutput) {
  const MabFixture f;
  ASSERT_GT(f.res.successful_runs, 0u);
  EXPECT_EQ(check_mab_success(f.res, f.calls, f.constraints, f.opt.concurrency), std::nullopt);
  EXPECT_EQ(check_mab_best(f.res), std::nullopt);
  EXPECT_EQ(check_mab_regret(f.res), std::nullopt);
  EXPECT_EQ(check_mab_total_runs(f.res, f.opt.iterations, f.opt.concurrency), std::nullopt);
}

TEST(MabChecks, RejectAFlippedSuccess) {
  const MabFixture f;
  core::MabRunResult r = f.res;
  r.samples[4].success = !r.samples[4].success;
  EXPECT_NE(check_mab_success(r, f.calls, f.constraints, f.opt.concurrency), std::nullopt);
  std::vector<MabCall> calls = f.calls;
  const auto feasible = std::find_if(calls.begin(), calls.end(), [&](const MabCall& c) {
    return judge_success(c.result, f.constraints);
  });
  ASSERT_NE(feasible, calls.end());
  feasible->result.power_mw = 1e9;  // now infeasible, yet sampled as a success
  EXPECT_NE(check_mab_success(f.res, calls, f.constraints, f.opt.concurrency), std::nullopt);
}

TEST(MabChecks, RejectCorruptedBestRegretAndRunCount) {
  const MabFixture f;
  core::MabRunResult r = f.res;
  r.best_feasible_ghz += 0.25;
  EXPECT_NE(check_mab_best(r), std::nullopt);
  r = f.res;
  r.total_regret += 0.5;
  EXPECT_NE(check_mab_regret(r), std::nullopt);
  r = f.res;
  r.total_runs -= 1;
  EXPECT_NE(check_mab_total_runs(r, f.opt.iterations, f.opt.concurrency), std::nullopt);
}

// --- METRICS records --------------------------------------------------------

struct MetricsFixture {
  metrics::Server server{metrics::ServerOptions{}};
  std::vector<SentFlow> sent;
  std::vector<metrics::Record> streamed;
  MetricsFixture() {
    const std::uint64_t sub = server.subscribe(true);
    metrics::Transmitter tx{server};
    const auto& f = small_flow();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      flow::FlowRecipe recipe = f.recipe;
      recipe.seed = seed;
      flow::FlowResult r = f.result;
      r.area_um2 += static_cast<double>(seed);
      tx.transmit_flow(recipe, r);
      sent.push_back({seed, recipe.target_ghz, r});
    }
    streamed = server.poll_since(sub).records;
  }
};

TEST(MetricsRecords, AcceptTheTransmittedRecords) {
  const MetricsFixture m;
  EXPECT_EQ(check_metrics_records(m.server, "small", m.sent, m.streamed), std::nullopt);
}

TEST(MetricsRecords, RejectAnExtraMissingOrAlteredRecord) {
  MetricsFixture m;
  std::vector<SentFlow> fewer = m.sent;
  fewer.pop_back();
  EXPECT_NE(check_metrics_records(m.server, "small", fewer, m.streamed), std::nullopt);

  std::vector<SentFlow> altered = m.sent;
  altered[1].result.wns_ps = bump(altered[1].result.wns_ps);
  EXPECT_NE(check_metrics_records(m.server, "small", altered, m.streamed), std::nullopt);

  std::vector<metrics::Record> stream = m.streamed;
  stream.pop_back();
  EXPECT_NE(check_metrics_records(m.server, "small", m.sent, stream), std::nullopt);

  metrics::Record extra;
  extra.design = "small";
  extra.step = "flow";
  m.server.submit(extra);
  EXPECT_NE(check_metrics_records(m.server, "small", m.sent, m.streamed), std::nullopt);
}

// --- tune_memo checks -------------------------------------------------------

tune::TuneResult synthetic_campaign() {
  tune::TuneOptions opt;
  opt.rounds = 6;
  opt.batch = 2;
  opt.warmup_rounds = 2;
  const tune::TuneOracle oracle = [](const flow::FlowTrajectory& t, std::uint64_t seed) {
    flow::FlowResult r;
    r.completed = r.timing_met = r.drc_clean = r.constraints_met = true;
    r.area_um2 = 1000.0 + static_cast<double>(seed % 97) +
                 static_cast<double>(flow::flatten(t).size());
    return r;
  };
  exec::RunExecutor pool{exec::ExecOptions{2, 2}};
  util::Rng rng{3};
  return tune::FlowTuner{opt}.run(oracle, rng, pool);
}

TEST(TuneChecks, OracleCallCount) {
  EXPECT_EQ(check_oracle_calls(78, 78), std::nullopt);
  EXPECT_NE(check_oracle_calls(79, 78), std::nullopt);
}

TEST(TuneChecks, WarmCampaignMustMatchAndMakeNoCalls) {
  const tune::TuneResult a = synthetic_campaign();
  const tune::TuneResult b = synthetic_campaign();
  EXPECT_EQ(check_warm_campaign(0, a, b), std::nullopt);
  EXPECT_NE(check_warm_campaign(1, a, b), std::nullopt);
  tune::TuneResult c = b;
  c.samples[3].score = bump(c.samples[3].score);
  EXPECT_NE(check_warm_campaign(0, a, c), std::nullopt);
  c = b;
  c.distinct_runs += 1;
  EXPECT_NE(check_warm_campaign(0, a, c), std::nullopt);
  c = b;
  c.best_choice.back() ^= 1;
  EXPECT_NE(check_warm_campaign(0, a, c), std::nullopt);
}

TEST(TuneChecks, RerunMustEqualTheCachedResult) {
  const flow::FlowResult& r = small_flow().result;
  flow::FlowResult cached = r;
  cached.logs.clear();  // the store drops logs
  EXPECT_EQ(check_rerun(cached, r), std::nullopt);
  cached.power_mw = bump(cached.power_mw);
  EXPECT_NE(check_rerun(cached, r), std::nullopt);
}

TEST(TimedCache, CountsLookupsThatDropToTheLocalRung) {
  namespace fs = std::filesystem;
  const std::string dir = "checks_test_store." + std::to_string(::getpid());
  fs::remove_all(dir);
  {
    store::RunStore st{dir + "/store"};
    store::RunCache local{st};
    SpanLog log;
    log.set_enabled(true);

    store::RemoteCacheOptions dead;
    dead.socket_path = dir + "/nobody.sock";
    store::RemoteRunCache unreachable{dead, &local};
    TimedCache via_dead{unreachable, log, 0};
    EXPECT_EQ(via_dead.lookup(42), std::nullopt);
    EXPECT_EQ(via_dead.local_drops(), 1u);

    store::CacheServerOptions so;
    so.socket_path = dir + "/live.sock";
    store::CacheServer server{local, so};
    ASSERT_TRUE(server.start());
    store::RemoteCacheOptions live;
    live.socket_path = so.socket_path;
    live.op_timeout_ms = 2000.0;
    store::RemoteRunCache reachable{live, &local};
    TimedCache via_live{reachable, log, 0};
    via_live.insert(7, store::RunKey{}, small_flow().result);
    EXPECT_TRUE(via_live.lookup(7).has_value());
    EXPECT_EQ(via_live.lookup(8), std::nullopt);
    EXPECT_EQ(via_live.local_drops(), 0u);
    EXPECT_EQ(named(log.since(0), "cache.lookup").size(), 3u);
    server.stop();
  }
  fs::remove_all(dir);
}

TEST(Spans, SelfTimeAndCoverage) {
  std::vector<SpanRec> s = {{1, 0, "campaign.x", 0.0, 10.0},
                            {2, 1, "oracle", 1.0, 4.0},
                            {3, 1, "oracle", 3.0, 6.0},
                            {4, 2, "flow.place", 1.0, 2.0}};
  EXPECT_DOUBLE_EQ(covered_ms(named(s, "oracle"), 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(self_ms(s[0], s), 5.0);
  EXPECT_DOUBLE_EQ(self_ms(s[1], s), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.95), 4.8);
}

}  // namespace
}  // namespace e2e
