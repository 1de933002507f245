#include "stepwise.hpp"

#include <cstring>

namespace e2e {

namespace {

const char* step_span_name(flow::FlowStep step) {
  switch (step) {
    case flow::FlowStep::Synthesis: return "flow.synthesis";
    case flow::FlowStep::Floorplan: return "flow.floorplan";
    case flow::FlowStep::Place: return "flow.place";
    case flow::FlowStep::Cts: return "flow.cts";
    case flow::FlowStep::Route: return "flow.route";
    case flow::FlowStep::Signoff: return "flow.signoff";
  }
  return "flow.?";
}

}  // namespace

flow::FlowResult run_flow(const flow::FlowManager& manager, const netlist::CellLibrary& lib,
                          const flow::FlowRecipe& recipe,
                          const flow::FlowConstraints& constraints, flow::DesignState& state,
                          SpanLog& log, std::uint64_t parent) {
  if (!log.enabled()) return manager.run_keep_state(recipe, constraints, state);
  return run_flow_stepwise(lib, recipe, constraints, state, log, parent);
}

flow::FlowResult run_flow_stepwise(const netlist::CellLibrary& lib,
                                   const flow::FlowRecipe& recipe,
                                   const flow::FlowConstraints& constraints,
                                   flow::DesignState& state, SpanLog& log, std::uint64_t parent) {
  using flow::FlowStep;
  flow::FlowResult res;
  state = flow::DesignState{};
  state.lib = &lib;

  // FlowManager's per-step context: decorrelated seed per step, the route
  // monitor on the route step only, the recipe's cancel token everywhere.
  const auto context_for = [&](FlowStep step) {
    flow::ToolContext ctx;
    ctx.target_ghz = recipe.target_ghz;
    const auto it = recipe.knobs.settings.find(step);
    if (it != recipe.knobs.settings.end()) ctx.knobs = it->second;
    ctx.seed = recipe.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(step) + 1;
    if (step == FlowStep::Route) ctx.route_monitor = recipe.route_monitor;
    ctx.cancel = recipe.cancel;
    return ctx;
  };
  const auto invoke = [&](FlowStep step) {
    const SpanLog::Scope span(log, step_span_name(step), parent);
    const flow::ToolContext ctx = context_for(step);
    switch (step) {
      case FlowStep::Synthesis: return flow::run_synthesis(state, recipe.design, ctx);
      case FlowStep::Floorplan: return flow::run_floorplan(state, ctx);
      case FlowStep::Place: return flow::run_place(state, ctx);
      case FlowStep::Cts: return flow::run_cts(state, ctx);
      case FlowStep::Route: return flow::run_route(state, ctx);
      case FlowStep::Signoff: return flow::run_signoff(state, ctx);
    }
    return flow::StepOutcome{};
  };

  for (std::size_t i = 0; i < flow::kFlowStepCount; ++i) {
    const FlowStep step = flow::step_at(i);
    if (recipe.cancel.cancelled()) {
      res.failed_step = "cancelled";
      return res;
    }
    flow::StepOutcome outcome = invoke(step);
    res.tat_minutes += outcome.runtime_min;
    res.logs.push_back(std::move(outcome.log));
    if (!outcome.ok) {
      res.failed_step = flow::to_string(step);
      return res;
    }
  }
  res.completed = true;

  res.area_um2 = state.nl->total_area_um2();
  res.wns_ps = state.signoff.wns_ps;
  res.whs_ps = state.signoff.whs_ps;
  res.tns_ps = state.signoff.tns_ps;
  res.power_mw = state.pwr.total_mw();
  res.final_drvs = state.droute.drvs.empty() ? 0.0 : state.droute.drvs.back();
  res.route_difficulty = state.droute.difficulty;
  res.hpwl_dbu = static_cast<double>(state.pl->total_hpwl());
  res.clock_skew_ps = state.clock.skew_ps();
  res.ir_drop_v = state.ir.worst_drop_v;

  res.timing_met = res.wns_ps >= 0.0;
  res.drc_clean = res.final_drvs < constraints.max_drvs;
  res.constraints_met =
      res.area_um2 <= constraints.max_area_um2 && res.power_mw <= constraints.max_power_mw;
  return res;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::optional<std::string> diff_results(const flow::FlowResult& a, const flow::FlowResult& b,
                                        bool with_logs) {
  if (a.completed != b.completed) return "completed";
  if (a.timing_met != b.timing_met) return "timing_met";
  if (a.drc_clean != b.drc_clean) return "drc_clean";
  if (a.constraints_met != b.constraints_met) return "constraints_met";
  if (a.failed_step != b.failed_step) return "failed_step";
  const struct {
    const char* name;
    double x, y;
  } fields[] = {
      {"area_um2", a.area_um2, b.area_um2},
      {"wns_ps", a.wns_ps, b.wns_ps},
      {"whs_ps", a.whs_ps, b.whs_ps},
      {"tns_ps", a.tns_ps, b.tns_ps},
      {"power_mw", a.power_mw, b.power_mw},
      {"final_drvs", a.final_drvs, b.final_drvs},
      {"route_difficulty", a.route_difficulty, b.route_difficulty},
      {"hpwl_dbu", a.hpwl_dbu, b.hpwl_dbu},
      {"clock_skew_ps", a.clock_skew_ps, b.clock_skew_ps},
      {"ir_drop_v", a.ir_drop_v, b.ir_drop_v},
      {"tat_minutes", a.tat_minutes, b.tat_minutes},
  };
  for (const auto& f : fields) {
    if (!same_bits(f.x, f.y)) return std::string(f.name);
  }
  if (!with_logs) return std::nullopt;
  if (a.logs.size() != b.logs.size()) return "logs.size";
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    if (a.logs[i].to_json().dump() != b.logs[i].to_json().dump()) {
      return "logs[" + std::to_string(i) + "] (" + a.logs[i].tool + ")";
    }
  }
  return std::nullopt;
}

}  // namespace e2e
