// flow_congested: two default flows back to back at 0.7 GHz — CpuLike
// scale 2 and the 4,000-gate RandomLogic baseline — the wait one designer
// sees in the global-route regime that never converges. No pool, store or
// METRICS layer is involved.

#include <algorithm>
#include <iostream>

#include "checks.hpp"
#include "netlist/cell_library.hpp"
#include "stepwise.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr double kTargetGhz = 0.7;

std::vector<flow::FlowRecipe> congested_recipes(std::uint64_t seed) {
  std::vector<flow::FlowRecipe> recipes(2);
  recipes[0].design.kind = flow::DesignSpec::Kind::CpuLike;
  recipes[0].design.scale = 2;
  recipes[0].design.name = "cpu2";
  recipes[1].design.kind = flow::DesignSpec::Kind::RandomLogic;
  recipes[1].design.gates_override = 4000;
  recipes[1].design.name = "rand4k";
  for (std::size_t i = 0; i < recipes.size(); ++i) {
    recipes[i].design.rtl_seed = 1;
    recipes[i].target_ghz = kTargetGhz;
    recipes[i].seed = derive_seed(seed, i);
  }
  return recipes;
}

Simulated simulate(const std::vector<flow::FlowResult>& results) {
  Simulated sim;
  std::vector<double> crit, hpwl;
  for (const auto& r : results) {
    if (!r.completed) continue;
    const double cp = crit_path_ps(r, kTargetGhz);
    crit.push_back(cp);
    hpwl.push_back(r.hpwl_dbu / 1e6);
    sim.best_ghz = std::max(sim.best_ghz, 1000.0 / cp);
    // No run here clears the 200-DRV bar, so default_objective would read 0;
    // the score is its value had the run succeeded: the area term.
    sim.best_score = std::max(sim.best_score, 1.0 + 1.0 / (1.0 + r.area_um2 / 1e4));
  }
  sim.crit_path_ps = mean(crit);
  sim.hpwl_mm = mean(hpwl);
  return sim;
}

}  // namespace

Report run_flow_congested(const Args& args, SpanLog& log) {
  Report report;
  const netlist::CellLibrary lib = netlist::make_default_library();
  const flow::FlowManager manager{lib};
  const std::vector<flow::FlowRecipe> recipes = congested_recipes(args.seed);
  const flow::FlowConstraints constraints;  // the default 200-DRV success bar
  const std::uint64_t ops = recipes.size();

  std::vector<double> untraced_wall, traced_wall;
  std::vector<LayerFigures> traced_figures;
  std::vector<flow::FlowResult> reference;  // first untraced round
  std::optional<Simulated> sim;
  const double setup_s = ms_between(args.t0, Clock::now()) / 1000.0;

  run_rounds(args, log, [&](bool traced) {
    report.attempt(ops);
    std::vector<flow::DesignState> states(recipes.size());
    std::vector<flow::FlowResult> results(recipes.size());
    std::vector<bool> threw(recipes.size(), false);
    const std::size_t mark = log.size();
    const auto start = Clock::now();
    {
      const SpanLog::Scope campaign(log, "campaign.flows");
      for (std::size_t i = 0; i < recipes.size(); ++i) {
        const SpanLog::Scope oracle(log, "oracle", campaign.id());
        try {
          results[i] = run_flow(manager, lib, recipes[i], constraints, states[i], log, oracle.id());
        } catch (const std::exception& e) {
          threw[i] = true;
          std::cerr << "e2ebench: flow " << recipes[i].design.name << " threw: " << e.what()
                    << '\n';
        }
      }
    }
    const double wall_s = ms_between(start, Clock::now()) / 1000.0;
    (traced ? traced_wall : untraced_wall).push_back(wall_s);

    std::vector<FlowFigures> figures;
    for (std::size_t i = 0; i < recipes.size(); ++i) {
      if (threw[i] || !results[i].failed_step.empty()) {
        report.fail(1);
        continue;
      }
      report.check(check_groute_totals(states[i].routed, states[i].groute), 1);
      report.check(check_placement(*states[i].pl), 1);
      report.check(check_hpwl(*states[i].pl, results[i].hpwl_dbu), 1);
      figures.push_back(figures_of(states[i], results[i]));
      if (reference.size() == recipes.size()) {
        // Traced rounds run step by step; every round repeats the same runs.
        const auto d = diff_results(reference[i], results[i], /*with_logs=*/true);
        report.check(d ? std::optional<std::string>((traced ? "stepwise run differs from "
                                                              "FlowManager::run in "
                                                            : "repeated run differs in ") +
                                                    *d)
                       : std::nullopt,
                     1);
      }
    }
    if (traced) {
      LayerFigures f;
      add_span_figures(f, log.since(mark), 1.0);
      add_flow_figures(f, figures);
      traced_figures.push_back(std::move(f));
    } else if (reference.empty()) {
      reference = results;
      sim = simulate(results);
      for (std::size_t i = 0; i < recipes.size(); ++i) {
        if (!states[i].nl) continue;
        std::cerr << "e2ebench: " << recipes[i].design.name << ": "
                  << states[i].nl->instance_count() << " cells after synthesis, "
                  << states[i].groute.rounds_used << " global-route rounds, final overflow "
                  << states[i].groute.total_overflow << '\n';
      }
    }
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
