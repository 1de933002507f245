#include "workloads.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/rng.hpp"

namespace e2e {

void Report::check(const std::optional<std::string>& failure, std::uint64_t ops) {
  if (!failure) return;
  correct_ = false;
  failed_ += ops;
  std::cerr << "e2ebench: check failed: " << *failure << '\n';
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted()
     << ", \"failed\": " << failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << value
       << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"flow.synthesis_ms", "ms"},      {"flow.floorplan_ms", "ms"},
      {"flow.place_ms", "ms"},          {"flow.cts_ms", "ms"},
      {"flow.route_ms", "ms"},          {"flow.signoff_ms", "ms"},
      {"route.gr_rounds", "count"},     {"route.gr_overflow", "count"},
      {"route.gr_overflow_drop", "ratio"}, {"route.gr_wirelength", "gcells"},
      {"route.final_drvs", "count"},    {"place.hpwl_mm", "mm"},
      {"exec.queue_wait_ms_p50", "ms"}, {"exec.queue_wait_ms_p95", "ms"},
      {"exec.run_ms_p50", "ms"},        {"exec.run_ms_p95", "ms"},
      {"exec.memo_served", "count"},    {"campaign.flow_ms", "ms"},
      {"campaign.idle_ms", "ms"},       {"campaign.pool_util", "ratio"},
      {"metrics.transmit_us_p50", "us"}, {"metrics.transmit_us_p95", "us"},
      {"metrics.poll_ms", "ms"},        {"metrics.records", "count"},
      {"store.lookup_us_p50", "us"},    {"store.lookup_us_p95", "us"},
      {"store.insert_us_p50", "us"},    {"store.insert_us_p95", "us"},
      {"store.reopen_ms", "ms"},        {"store.warm_campaign_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return k;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (k + 1));
  (void)util::splitmix64(s);
  return util::splitmix64(s);
}

FlowFigures figures_of(const flow::DesignState& state, const flow::FlowResult& result) {
  FlowFigures f;
  const route::RouteResult& gr = state.groute;
  f.gr_rounds = static_cast<double>(gr.rounds_used);
  f.gr_overflow = gr.total_overflow;
  f.gr_wirelength = gr.wirelength_gcells;
  // Useful-work ratio of negotiation: the share of the overflow left after
  // the first rip-up round that the remaining rounds remove; 1 when nothing
  // was left to remove, including a route that converged before its first
  // rip-up round.
  const auto& per_round = gr.overflow_per_round;
  if (!per_round.empty() && per_round.back() <= 0.0) {
    f.gr_overflow_drop = 1.0;
  } else if (per_round.size() >= 2 && per_round[1] > 0.0) {
    f.gr_overflow_drop = (per_round[1] - per_round.back()) / per_round[1];
  }
  f.final_drvs = result.final_drvs;
  f.hpwl_mm = result.hpwl_dbu / 1e6;  // 1000 dbu per um
  return f;
}

double crit_path_ps(const flow::FlowResult& r, double target_ghz) {
  return 1000.0 / target_ghz - r.wns_ps;
}

void add_span_figures(LayerFigures& out, const std::vector<SpanRec>& spans, double workers) {
  for (const char* step : {"synthesis", "floorplan", "place", "cts", "route", "signoff"}) {
    std::vector<double> d;
    for (const auto& s : named(spans, std::string("flow.") + step)) d.push_back(self_ms(s, spans));
    out[std::string("flow.") + step + "_ms"] = mean(d);
  }
  std::vector<SpanRec> campaigns;
  for (const auto& s : spans) {
    if (s.name.rfind("campaign.", 0) == 0) campaigns.push_back(s);
  }
  const std::vector<SpanRec> oracles = named(spans, "oracle");
  double flow_ms = 0.0;
  for (const auto& o : oracles) flow_ms += o.duration_ms();
  double campaign_ms = 0.0;
  double idle_ms = 0.0;
  for (const auto& c : campaigns) {
    campaign_ms += c.duration_ms();
    idle_ms += c.duration_ms() - covered_ms(oracles, c.start_ms, c.end_ms);
  }
  out["campaign.flow_ms"] = flow_ms;
  out["campaign.idle_ms"] = idle_ms;
  out["campaign.pool_util"] = campaign_ms > 0.0 ? flow_ms / (campaign_ms * workers) : 0.0;

  const auto us = [&](const char* name) {
    std::vector<double> v;
    for (const auto& s : named(spans, name)) v.push_back(s.duration_ms() * 1000.0);
    return v;
  };
  const std::vector<double> transmit = us("metrics.transmit");
  out["metrics.transmit_us_p50"] = percentile(transmit, 0.50);
  out["metrics.transmit_us_p95"] = percentile(transmit, 0.95);
  double poll_ms = 0.0;
  for (const auto& s : named(spans, "metrics.poll")) poll_ms += s.duration_ms();
  out["metrics.poll_ms"] = poll_ms;

  const std::vector<double> lookup = us("cache.lookup");
  const std::vector<double> insert = us("cache.insert");
  out["store.lookup_us_p50"] = percentile(lookup, 0.50);
  out["store.lookup_us_p95"] = percentile(lookup, 0.95);
  out["store.insert_us_p50"] = percentile(insert, 0.50);
  out["store.insert_us_p95"] = percentile(insert, 0.95);
  double reopen_ms = 0.0;
  for (const auto& s : named(spans, "store.reopen")) reopen_ms += s.duration_ms();
  out["store.reopen_ms"] = reopen_ms;
  double warm_ms = 0.0;
  for (const auto& s : named(spans, "campaign.warm")) warm_ms += s.duration_ms();
  out["store.warm_campaign_ms"] = warm_ms;
}

void add_flow_figures(LayerFigures& out, const std::vector<FlowFigures>& flows) {
  std::vector<double> rounds, overflow, drop, wl, drvs, hpwl;
  for (const auto& f : flows) {
    rounds.push_back(f.gr_rounds);
    overflow.push_back(f.gr_overflow);
    drop.push_back(f.gr_overflow_drop);
    wl.push_back(f.gr_wirelength);
    drvs.push_back(f.final_drvs);
    hpwl.push_back(f.hpwl_mm);
  }
  out["route.gr_rounds"] = mean(rounds);
  out["route.gr_overflow"] = mean(overflow);
  out["route.gr_overflow_drop"] = mean(drop);
  out["route.gr_wirelength"] = mean(wl);
  out["route.final_drvs"] = mean(drvs);
  out["place.hpwl_mm"] = mean(hpwl);
}

void add_journal_figures(LayerFigures& out, const exec::RunJournal& journal, std::size_t from) {
  std::vector<double> wait, run;
  double memo = 0.0;
  const std::vector<exec::RunRecord> records = journal.snapshot();
  for (std::size_t i = from; i < records.size(); ++i) {
    const exec::RunRecord& r = records[i];
    if (r.note == "cache_hit" || r.note == "inflight_join") {
      memo += 1.0;
      continue;
    }
    wait.push_back(r.queue_wait_ms());
    run.push_back(r.wall_ms());
  }
  out["exec.queue_wait_ms_p50"] = percentile(wait, 0.50);
  out["exec.queue_wait_ms_p95"] = percentile(wait, 0.95);
  out["exec.run_ms_p50"] = percentile(run, 0.50);
  out["exec.run_ms_p95"] = percentile(run, 0.95);
  out["exec.memo_served"] = memo;
}

void emit_end_to_end(Report& report, double setup_s, const std::vector<double>& round_wall_s,
                     double runs_per_round, const Simulated& sim) {
  const double wall = median(round_wall_s);
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", wall, "s");
  report.metric("runs_per_s", wall > 0.0 ? runs_per_round / wall : 0.0, "runs/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("crit_path_ps", sim.crit_path_ps, "ps");
  report.metric("hpwl_mm", sim.hpwl_mm, "mm");
  report.metric("best_ghz", sim.best_ghz, "GHz");
  report.metric("best_score", sim.best_score, "score");
}

void emit_per_layer(Report& report, const std::vector<LayerFigures>& traced,
                    const std::vector<double>& untraced_wall_s,
                    const std::vector<double>& traced_wall_s) {
  for (const auto& [name, unit] : per_layer_catalogue()) {
    if (name == "trace.overhead_pct") {
      const double base = median(untraced_wall_s);
      const double with = median(traced_wall_s);
      report.metric(name, base > 0.0 ? (with / base - 1.0) * 100.0 : 0.0, unit);
      continue;
    }
    std::vector<double> v;
    for (const auto& round : traced) {
      const auto it = round.find(name);
      if (it != round.end()) v.push_back(it->second);
    }
    report.metric(name, median(v), unit);
  }
}

}  // namespace e2e
