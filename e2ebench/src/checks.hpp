#pragma once
// Output checks. Each recomputes a property from the program's outputs by
// its own route (edge-by-edge recounts, pin-by-pin HPWL, success re-judged
// from the constraints, regret from the samples) and returns a description
// of the first violation, or nullopt when the output holds. The benchmark's
// tests feed every check a corrupted value and expect a rejection.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/mab_scheduler.hpp"
#include "flow/flow.hpp"
#include "metrics/server.hpp"
#include "tune/flow_tuner.hpp"
#include "ns.hpp"

namespace e2e {

using Failure = std::optional<std::string>;

// --- flow_congested ---------------------------------------------------------

/// Recount global-route totals edge by edge from the final grid: overflow
/// sum, wirelength (summed usage), overflowed-edge count, peak utilization.
Failure check_groute_totals(const route::GridGraph& graph, const route::RouteResult& result);
/// No two row cells overlap (place::check_overlaps) and every non-pad cell
/// lies inside the core, on a row.
Failure check_placement(const place::Placement& pl);
/// HPWL summed net by net from pin positions equals `claimed_dbu`.
Failure check_hpwl(const place::Placement& pl, double claimed_dbu);

// --- mab_campaign -----------------------------------------------------------

/// Success judged from a result's numbers against the constraints, without
/// FlowResult's own flags.
bool judge_success(const flow::FlowResult& r, const flow::FlowConstraints& c);

/// One oracle call as the benchmark saw it.
struct MabCall {
  std::uint64_t order = 0;  ///< call sequence number (iterations are barriers)
  double ghz = 0.0;
  std::uint64_t seed = 0;
  flow::FlowResult result;
};

/// Every sample's success agrees with its run re-judged against the
/// constraints: per iteration, the multiset of (arm, success) of the samples
/// equals that of the oracle calls.
Failure check_mab_success(const core::MabRunResult& res, std::vector<MabCall> calls,
                          const flow::FlowConstraints& constraints, std::size_t concurrency);
/// best_feasible_ghz is the highest successful sampled arm.
Failure check_mab_best(const core::MabRunResult& res);
/// total_regret recomputed from the samples (footnote 3: regret against the
/// best feasible arm's empirical mean reward).
Failure check_mab_regret(const core::MabRunResult& res);
Failure check_mab_total_runs(const core::MabRunResult& res, std::size_t iterations,
                             std::size_t concurrency);

/// One transmitted flow, as handed to metrics::Transmitter::transmit_flow.
struct SentFlow {
  std::uint64_t seed = 0;
  double target_ghz = 0.0;
  flow::FlowResult result;
};
/// The server's records for `design` equal the transmitted ones in count
/// and as a multiset, and the subscriber's stream equals the server's view.
Failure check_metrics_records(const metrics::Server& server, const std::string& design,
                              const std::vector<SentFlow>& sent,
                              const std::vector<metrics::Record>& streamed);

// --- tune_memo --------------------------------------------------------------

Failure check_oracle_calls(std::size_t oracle_calls, std::size_t distinct_runs);
/// Field-by-field bitwise comparison of two campaign results.
Failure diff_tune(const tune::TuneResult& a, const tune::TuneResult& b);
/// The warm campaign made no oracle call and reproduced the cold result.
Failure check_warm_campaign(std::size_t warm_oracle_calls, const tune::TuneResult& cold,
                            const tune::TuneResult& warm);
/// A memo-served result equals the same run re-executed (logs aside: the
/// store drops them by design).
Failure check_rerun(const flow::FlowResult& cached, const flow::FlowResult& rerun);

}  // namespace e2e
