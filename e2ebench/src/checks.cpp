#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "place/placement.hpp"
#include "stepwise.hpp"

namespace e2e {

namespace {

std::string fmt(const char* what, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": recomputed " << want << ", program reports " << got;
  return os.str();
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

bool close_rel(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

Failure check_groute_totals(const route::GridGraph& graph, const route::RouteResult& result) {
  // Edge-ascending sums of integral per-edge figures: exact in double.
  double overflow = 0.0;
  double usage = 0.0;
  std::size_t overflowed = 0;
  double peak = 0.0;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    const double u = graph.usage(e);
    const double c = graph.capacity(e);
    usage += u;
    if (u > c) {
      overflow += u - c;
      ++overflowed;
    }
    if (c > 0.0) peak = std::max(peak, u / c);
  }
  if (!close_rel(result.total_overflow, overflow, 1e-12)) {
    return fmt("groute total_overflow", result.total_overflow, overflow);
  }
  if (!close_rel(result.wirelength_gcells, usage, 1e-12)) {
    return fmt("groute wirelength_gcells", result.wirelength_gcells, usage);
  }
  if (result.overflowed_edges != overflowed) {
    return fmt("groute overflowed_edges", static_cast<double>(result.overflowed_edges),
               static_cast<double>(overflowed));
  }
  if (!close_rel(result.max_utilization, peak, 1e-12)) {
    return fmt("groute max_utilization", result.max_utilization, peak);
  }
  if (!result.overflow_per_round.empty() &&
      !close_rel(result.overflow_per_round.back(), overflow, 1e-12)) {
    return fmt("groute overflow_per_round.back", result.overflow_per_round.back(), overflow);
  }
  return std::nullopt;
}

Failure check_placement(const place::Placement& pl) {
  const place::OverlapReport overlaps = place::check_overlaps(pl);
  if (!overlaps.legal()) {
    return "placement has " + std::to_string(overlaps.overlapping_pairs) + " overlapping pairs";
  }
  const auto& nl = pl.netlist();
  const geom::Rect core = pl.floorplan().core();
  const geom::Dbu row_h = nl.library().row_height_dbu();
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto& m = nl.master_of(id);
    if (m.function == netlist::CellFunction::Input ||
        m.function == netlist::CellFunction::Output) {
      continue;  // pads sit on the I/O ring
    }
    const geom::Point p = pl.loc(id);
    if (p.x < core.lo.x || p.y < core.lo.y || p.x + m.width_dbu > core.hi.x ||
        p.y + row_h > core.hi.y) {
      return "cell " + std::to_string(i) + " (" + nl.instance(id).name + ") at (" +
             std::to_string(p.x) + "," + std::to_string(p.y) + ") lies outside the core";
    }
  }
  return std::nullopt;
}

Failure check_hpwl(const place::Placement& pl, double claimed_dbu) {
  const auto& nl = pl.netlist();
  std::int64_t total = 0;
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<netlist::NetId>(n));
    geom::Point p = pl.pin_of(net.driver);
    geom::Dbu x_lo = p.x, x_hi = p.x, y_lo = p.y, y_hi = p.y;
    for (const auto& sink : net.sinks) {
      p = pl.pin_of(sink.instance);
      x_lo = std::min(x_lo, p.x);
      x_hi = std::max(x_hi, p.x);
      y_lo = std::min(y_lo, p.y);
      y_hi = std::max(y_hi, p.y);
    }
    total += (x_hi - x_lo) + (y_hi - y_lo);
  }
  if (static_cast<double>(total) != claimed_dbu) {
    return fmt("placed HPWL (dbu)", claimed_dbu, static_cast<double>(total));
  }
  return std::nullopt;
}

bool judge_success(const flow::FlowResult& r, const flow::FlowConstraints& c) {
  return r.completed && r.failed_step.empty() && r.wns_ps >= 0.0 && r.final_drvs < c.max_drvs &&
         r.area_um2 <= c.max_area_um2 && r.power_mw <= c.max_power_mw;
}

Failure check_mab_success(const core::MabRunResult& res, std::vector<MabCall> calls,
                          const flow::FlowConstraints& constraints, std::size_t concurrency) {
  std::vector<const core::MabSample*> observed;
  for (const auto& s : res.samples) {
    if (!s.censored) observed.push_back(&s);
  }
  if (observed.size() != calls.size()) {
    return fmt("MAB observed samples vs oracle calls", static_cast<double>(observed.size()),
               static_cast<double>(calls.size()));
  }
  if (concurrency == 0) return "MAB concurrency is 0";
  std::sort(calls.begin(), calls.end(),
            [](const MabCall& a, const MabCall& b) { return a.order < b.order; });
  // Iterations are barriers, so call order chunks into iterations exactly
  // as the samples do (censored pulls aside, which have no observation).
  std::map<std::size_t, std::vector<std::pair<std::uint64_t, bool>>> by_iter_samples;
  for (const auto* s : observed) {
    by_iter_samples[s->iteration].emplace_back(bits(s->frequency_ghz), s->success);
  }
  std::size_t next = 0;
  for (auto& [iteration, samples] : by_iter_samples) {
    std::vector<std::pair<std::uint64_t, bool>> judged;
    for (std::size_t k = 0; k < samples.size(); ++k, ++next) {
      const MabCall& c = calls[next];
      judged.emplace_back(bits(c.ghz), judge_success(c.result, constraints));
    }
    std::sort(samples.begin(), samples.end());
    std::sort(judged.begin(), judged.end());
    if (samples != judged) {
      return "MAB iteration " + std::to_string(iteration) +
             ": sampled (arm, success) multiset differs from the re-judged runs";
    }
  }
  return std::nullopt;
}

Failure check_mab_best(const core::MabRunResult& res) {
  double best = 0.0;
  for (const auto& s : res.samples) {
    if (s.success && !s.censored) best = std::max(best, s.frequency_ghz);
  }
  if (!same_bits(best, res.best_feasible_ghz)) {
    return fmt("MAB best_feasible_ghz", res.best_feasible_ghz, best);
  }
  return std::nullopt;
}

Failure check_mab_regret(const core::MabRunResult& res) {
  struct Arm {
    std::size_t pulls = 0;
    std::size_t successes = 0;
    double reward_sum = 0.0;
  };
  std::map<std::uint64_t, Arm> arms;
  for (const auto& s : res.samples) {
    if (s.censored) continue;
    Arm& a = arms[bits(s.frequency_ghz)];
    ++a.pulls;
    const double reward = s.success ? s.frequency_ghz : 0.0;
    a.reward_sum += reward;
    if (s.success) ++a.successes;
  }
  double mu_star = 0.0;
  for (const auto& [freq, a] : arms) {
    if (a.successes > 0) mu_star = std::max(mu_star, a.reward_sum / static_cast<double>(a.pulls));
  }
  double regret = 0.0;
  for (const auto& s : res.samples) {
    if (!s.censored) regret += mu_star - (s.success ? s.frequency_ghz : 0.0);
  }
  regret = std::max(regret, 0.0);
  if (!close_rel(res.total_regret, regret, 1e-9)) {
    return fmt("MAB total_regret", res.total_regret, regret);
  }
  return std::nullopt;
}

Failure check_mab_total_runs(const core::MabRunResult& res, std::size_t iterations,
                             std::size_t concurrency) {
  const std::size_t want = iterations * concurrency;
  if (res.total_runs != want || res.samples.size() != want) {
    return fmt("MAB total_runs", static_cast<double>(res.total_runs), static_cast<double>(want));
  }
  return std::nullopt;
}

namespace {

std::string flow_record_key(std::uint64_t seed, double target, double area, double wns,
                            double drvs, double hpwl, double success) {
  std::ostringstream os;
  os << "flow|" << seed << '|' << bits(target) << '|' << bits(area) << '|' << bits(wns) << '|'
     << bits(drvs) << '|' << bits(hpwl) << '|' << bits(success);
  return os.str();
}

std::string record_key(const metrics::Record& r) {
  if (r.step != "flow") return r.step + '|' + std::to_string(r.seed);
  const auto v = [&](const char* name) { return r.value(name).value_or(std::nan("")); };
  return flow_record_key(r.seed, v(metrics::names::kTargetGhz), v(metrics::names::kAreaUm2),
                         v(metrics::names::kWnsPs), v(metrics::names::kDrvs),
                         v(metrics::names::kHpwlDbu), v(metrics::names::kSuccess));
}

std::string without_run_id(const metrics::Record& r) {
  metrics::Record copy = r;
  copy.run_id = 0;
  return copy.to_json().dump();
}

}  // namespace

Failure check_metrics_records(const metrics::Server& server, const std::string& design,
                              const std::vector<SentFlow>& sent,
                              const std::vector<metrics::Record>& streamed) {
  std::vector<std::string> want;
  for (const auto& f : sent) {
    const flow::FlowResult& r = f.result;
    want.push_back(flow_record_key(f.seed, f.target_ghz, r.area_um2, r.wns_ps, r.final_drvs,
                                   r.hpwl_dbu, r.success() ? 1.0 : 0.0));
    for (const auto& log : r.logs) want.push_back(log.tool + '|' + std::to_string(log.seed));
  }
  const std::vector<const metrics::Record*> held = server.for_design(design);
  if (held.size() != want.size()) {
    return fmt("METRICS records for design", static_cast<double>(held.size()),
               static_cast<double>(want.size()));
  }
  std::vector<std::string> got;
  got.reserve(held.size());
  for (const auto* r : held) got.push_back(record_key(*r));
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) return "METRICS records differ from the transmitted ones as a multiset";

  std::vector<std::string> stream_view;
  for (const auto& r : streamed) {
    if (r.design == design) stream_view.push_back(without_run_id(r));
  }
  std::vector<std::string> server_view;
  for (const auto* r : held) server_view.push_back(without_run_id(*r));
  std::sort(stream_view.begin(), stream_view.end());
  std::sort(server_view.begin(), server_view.end());
  if (stream_view != server_view) {
    return "METRICS subscriber stream (" + std::to_string(stream_view.size()) +
           " records) differs from the server's records (" + std::to_string(server_view.size()) +
           ")";
  }
  return std::nullopt;
}

Failure check_oracle_calls(std::size_t oracle_calls, std::size_t distinct_runs) {
  if (oracle_calls != distinct_runs) {
    return fmt("tuner oracle calls vs distinct_runs", static_cast<double>(distinct_runs),
               static_cast<double>(oracle_calls));
  }
  return std::nullopt;
}

Failure diff_tune(const tune::TuneResult& a, const tune::TuneResult& b) {
  if (a.samples.size() != b.samples.size()) return "TuneResult samples.size";
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.round != y.round || x.choice != y.choice || !same_bits(x.score, y.score) ||
        x.success != y.success) {
      return "TuneResult samples[" + std::to_string(i) + "]";
    }
  }
  const auto same_vec = [](const std::vector<double>& x, const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same_bits(x[i], y[i])) return false;
    }
    return true;
  };
  if (!same_vec(a.best_per_round, b.best_per_round)) return "TuneResult best_per_round";
  if (!same_bits(a.best_score, b.best_score)) return "TuneResult best_score";
  if (a.best_choice != b.best_choice) return "TuneResult best_choice";
  if (flow::flatten(a.best_trajectory) != flow::flatten(b.best_trajectory)) {
    return "TuneResult best_trajectory";
  }
  if (a.total_runs != b.total_runs) return "TuneResult total_runs";
  if (a.distinct_runs != b.distinct_runs) return "TuneResult distinct_runs";
  if (a.mined_rows != b.mined_rows) return "TuneResult mined_rows";
  if (!same_vec(a.importance, b.importance)) return "TuneResult importance";
  if (a.focus != b.focus) return "TuneResult focus";
  if (a.resumed != b.resumed) return "TuneResult resumed";
  return std::nullopt;
}

Failure check_warm_campaign(std::size_t warm_oracle_calls, const tune::TuneResult& cold,
                            const tune::TuneResult& warm) {
  if (warm_oracle_calls != 0) {
    return "warm campaign made " + std::to_string(warm_oracle_calls) + " oracle calls";
  }
  if (auto d = diff_tune(cold, warm)) return "warm campaign differs from cold: " + *d;
  return std::nullopt;
}

Failure check_rerun(const flow::FlowResult& cached, const flow::FlowResult& rerun) {
  if (auto d = diff_results(cached, rerun, /*with_logs=*/false)) {
    return "memo-served result differs from a direct re-run in " + *d;
  }
  return std::nullopt;
}

}  // namespace e2e
