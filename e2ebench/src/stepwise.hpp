#pragma once
// The default flow, driven one flow::run_* step at a time so each step can
// carry its own span. Steps run in FlowManager's order with the per-step
// contexts FlowManager derives, and the result is reduced the same way, so
// a stepwise run's FlowResult is bitwise equal to FlowManager::run's (the
// flow_congested workload checks exactly that).

#include <optional>
#include <string>

#include "flow/flow.hpp"
#include "ns.hpp"
#include "spans.hpp"

namespace e2e {

/// One flow run. With `log` disabled this is FlowManager::run_keep_state;
/// with it enabled, each step is a child span of `parent`.
flow::FlowResult run_flow(const flow::FlowManager& manager, const netlist::CellLibrary& lib,
                          const flow::FlowRecipe& recipe,
                          const flow::FlowConstraints& constraints, flow::DesignState& state,
                          SpanLog& log, std::uint64_t parent);

/// The step-by-step flow itself (run_flow uses it when tracing).
flow::FlowResult run_flow_stepwise(const netlist::CellLibrary& lib,
                                   const flow::FlowRecipe& recipe,
                                   const flow::FlowConstraints& constraints,
                                   flow::DesignState& state, SpanLog& log, std::uint64_t parent);

/// Field-by-field bitwise comparison (doubles by bit pattern). Step logs are
/// compared through their JSON form when `with_logs`; memoized results come
/// back from the store without logs, so cache comparisons leave them out.
/// Returns a description of the first difference, or nullopt when equal.
std::optional<std::string> diff_results(const flow::FlowResult& a, const flow::FlowResult& b,
                                        bool with_logs);

bool same_bits(double a, double b);

}  // namespace e2e
