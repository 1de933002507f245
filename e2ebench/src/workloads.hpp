#pragma once
// The benchmark's workloads and what they share: arguments, the round loop,
// the report (operations, checks, metrics) and the metric catalogue.
//
// A run repeats whole rounds of identical work until --seconds have passed.
// End-to-end metrics come from untraced rounds only. With --trace 1 the
// rounds alternate untraced / traced; per-layer metrics come from the traced
// rounds' spans, and trace.overhead_pct compares the two kinds of round.

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "exec/journal.hpp"
#include "flow/flow.hpp"
#include "ns.hpp"
#include "spans.hpp"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point t0;      ///< process start (the set-up clock's zero)
  std::string tmp_dir;       ///< per-run scratch, removed at exit
  std::string trace_out;     ///< optional Chrome trace output path
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints: operations attempted and failed, whether every output
/// check held, and the metrics.
class Report {
 public:
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }
  /// A failed output check: the run is not correct and the operations it
  /// covers are failed.
  void check(const std::optional<std::string>& failure, std::uint64_t ops);
  void metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ < attempted_ ? failed_ : attempted_; }
  std::string json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Name and unit of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

/// Repeat `round(traced)` until the deadline; at least one round, and with
/// tracing at least one untraced and one traced round.
template <typename F>
void run_rounds(const Args& args, SpanLog& log, F&& round) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (std::size_t r = 0;; ++r) {
    const bool traced = args.trace && r % 2 == 1;
    log.set_enabled(traced);
    const auto start = Clock::now();
    round(traced);
    log.set_enabled(false);
    std::cerr << "e2ebench: round " << r << (traced ? " (traced)" : "") << ": "
              << ms_between(start, Clock::now()) / 1000.0 << " s, peak RSS " << peak_rss_mb()
              << " MB\n";
    if (Clock::now() >= deadline && (!args.trace || r >= 1)) break;
  }
}

/// Per-flow figures read from the DesignState a flow leaves behind.
struct FlowFigures {
  double gr_rounds = 0.0;
  double gr_overflow = 0.0;
  double gr_overflow_drop = 0.0;
  double gr_wirelength = 0.0;
  double final_drvs = 0.0;
  double hpwl_mm = 0.0;
};
FlowFigures figures_of(const flow::DesignState& state, const flow::FlowResult& result);

/// The simulated end-to-end figures of one round.
struct Simulated {
  double crit_path_ps = 0.0;
  double hpwl_mm = 0.0;
  double best_ghz = 0.0;
  double best_score = 0.0;
  bool operator==(const Simulated&) const = default;
};
/// Signoff critical path of a completed run: clock period minus WNS.
double crit_path_ps(const flow::FlowResult& r, double target_ghz);

/// Per-layer figures of one traced round, keyed by per-layer metric name.
using LayerFigures = std::map<std::string, double>;
/// Figures every workload derives the same way: step, campaign, cache,
/// transmit and reopen spans; route and place figures; the pool journal.
void add_span_figures(LayerFigures& out, const std::vector<SpanRec>& spans, double workers);
void add_flow_figures(LayerFigures& out, const std::vector<FlowFigures>& flows);
/// Journal figures over the runs enqueued from record `from` on.
void add_journal_figures(LayerFigures& out, const exec::RunJournal& journal, std::size_t from);

/// Emit the end-to-end metrics from the untraced rounds.
void emit_end_to_end(Report& report, double setup_s, const std::vector<double>& round_wall_s,
                     double runs_per_round, const Simulated& sim);
/// Emit every per-layer metric: the median over traced rounds, 0 for a layer
/// the workload does not touch, and the tracing overhead.
void emit_per_layer(Report& report, const std::vector<LayerFigures>& traced,
                    const std::vector<double>& untraced_wall_s,
                    const std::vector<double>& traced_wall_s);

Report run_flow_congested(const Args& args, SpanLog& log);
Report run_mab_campaign(const Args& args, SpanLog& log);
Report run_tune_memo(const Args& args, SpanLog& log);

/// Seed for stream `k` of a run: SplitMix64 over (--seed, k).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

}  // namespace e2e
